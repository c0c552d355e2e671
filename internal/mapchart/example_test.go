package mapchart_test

import (
	"fmt"

	"viewstags/internal/mapchart"
)

// The paper's popularity vector pop(v) is exactly one simple-encoding
// character per country: A=0 … 9=61.
func ExampleEncodeSimple() {
	payload, err := mapchart.EncodeSimple([]int{61, 30, 0})
	if err != nil {
		panic(err)
	}
	fmt.Println(payload)
	// Output: 9eA
}

// QuantizeInto at MaxIntensity implements the per-video normalization
// K(v): the hottest country is pushed to 61 and the rest scale linearly.
func ExampleQuantizeInto() {
	pop := mapchart.QuantizeInto(make([]int, 3), []float64{2.0, 1.0, 0.5}, mapchart.MaxIntensity)
	fmt.Println(pop)
	// Output: [61 31 15]
}

// A full chart URL round-trip — build what YouTube's 2011 watch page
// embedded, then scrape it back the way the paper's crawler did.
func ExampleParseURL() {
	chart := &mapchart.Chart{
		Codes:       []string{"US", "SG"},
		Intensities: []int{61, 61}, // the paper's Fig. 1 observation
	}
	u, err := chart.BuildURL()
	if err != nil {
		panic(err)
	}
	back, err := mapchart.ParseURL(u)
	if err != nil {
		panic(err)
	}
	fmt.Println(back.Codes, back.Intensities)
	// Output: [US SG] [61 61]
}
