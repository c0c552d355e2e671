package mapchart

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestSimpleAlphabetEndpoints(t *testing.T) {
	s, err := EncodeSimple([]int{0, 25, 26, 51, 52, 61})
	if err != nil {
		t.Fatal(err)
	}
	if s != "AZaz09" {
		t.Fatalf("encoded %q, want AZaz09", s)
	}
}

func TestSimpleRoundTrip(t *testing.T) {
	in := make([]int, 62)
	for i := range in {
		in[i] = i
	}
	enc, err := EncodeSimple(in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeSimple(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if dec[i] != in[i] {
			t.Fatalf("round trip broke at %d: %d", i, dec[i])
		}
	}
}

func TestSimpleMissingValue(t *testing.T) {
	enc, err := EncodeSimple([]int{5, -1, 61})
	if err != nil {
		t.Fatal(err)
	}
	if enc != "F_9" {
		t.Fatalf("encoded %q", enc)
	}
	dec, err := decodeSimple(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec[1] != -1 {
		t.Fatalf("missing value decoded to %d", dec[1])
	}
}

func TestSimpleRejectsOutOfRange(t *testing.T) {
	if _, err := EncodeSimple([]int{62}); !errors.Is(err, ErrRange) {
		t.Fatalf("EncodeSimple(62) err = %v, want ErrRange", err)
	}
}

func TestDecodeSimpleRejectsBadChar(t *testing.T) {
	if _, err := decodeSimple("AB*"); !errors.Is(err, ErrBadSimpleChar) {
		t.Fatalf("err = %v, want ErrBadSimpleChar", err)
	}
}

func TestSimpleRoundTripProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		in := make([]int, len(raw))
		for i, v := range raw {
			in[i] = int(v % 62)
		}
		enc, err := EncodeSimple(in)
		if err != nil {
			return false
		}
		dec, err := decodeSimple(enc)
		if err != nil || len(dec) != len(in) {
			return false
		}
		for i := range in {
			if dec[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// encodeExtended is decodeExtended's inverse for values in -1..4095.
func encodeExtended(values []int) string {
	var b strings.Builder
	for _, v := range values {
		if v < 0 {
			b.WriteString("__")
			continue
		}
		b.WriteByte(extendedAlphabet[v/64])
		b.WriteByte(extendedAlphabet[v%64])
	}
	return b.String()
}

// quantize is QuantizeInto at the chart's scale, into a fresh slice.
func quantize(intensity []float64) []int { return quantizeTo(intensity, MaxIntensity) }

// quantizeTo is QuantizeInto into a fresh slice.
func quantizeTo(intensity []float64, maxLevel int) []int {
	return QuantizeInto(make([]int, len(intensity)), intensity, maxLevel)
}

// intensity is IntensityInto with a fresh slice.
func intensity(views, traffic []float64) ([]float64, error) {
	return IntensityInto(make([]float64, len(views)), views, traffic)
}

func TestExtendedRoundTripProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		in := make([]int, len(raw))
		for i, v := range raw {
			in[i] = int(v % 4096)
		}
		dec, err := decodeExtended(encodeExtended(in))
		if err != nil || len(dec) != len(in) {
			return false
		}
		for i := range in {
			if dec[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExtendedKnownValues(t *testing.T) {
	got, err := decodeExtended("AA" + "A." + "BA" + ".." + "__")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 63, 64, 4095, -1}; !slices.Equal(got, want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
}

func TestExtendedErrors(t *testing.T) {
	if _, err := decodeExtended("ABC"); !errors.Is(err, ErrBadExtendedPair) {
		t.Fatalf("odd length err = %v", err)
	}
	if _, err := decodeExtended("A*"); !errors.Is(err, ErrBadExtendedPair) {
		t.Fatalf("bad char err = %v", err)
	}
}

func TestQuantizeMaxMapsTo61(t *testing.T) {
	got := quantize([]float64{0.5, 1.0, 0.25, 0})
	want := []int{31, 61, 15, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quantize = %v, want %v", got, want)
		}
	}
}

func TestQuantizeAllZero(t *testing.T) {
	got := quantize([]float64{0, 0, 0})
	for _, v := range got {
		if v != 0 {
			t.Fatalf("zero field quantized to %v", got)
		}
	}
	if got := quantize(nil); len(got) != 0 {
		t.Fatalf("empty quantize = %v", got)
	}
}

func TestQuantizePropertyInRange(t *testing.T) {
	f := func(raw []uint16) bool {
		in := make([]float64, len(raw))
		for i, v := range raw {
			in[i] = float64(v)
		}
		out := quantize(in)
		sawMax := len(out) == 0
		var maxIn float64
		for _, v := range in {
			if v > maxIn {
				maxIn = v
			}
		}
		if maxIn == 0 {
			sawMax = true // all-zero rule
		}
		for i, v := range out {
			if v < 0 || v > MaxIntensity {
				return false
			}
			if in[i] == maxIn && maxIn > 0 && v == MaxIntensity {
				sawMax = true
			}
		}
		return sawMax
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntensityDividesByTraffic(t *testing.T) {
	// The paper's Singapore-vs-USA observation: same intensity can come
	// from wildly different absolute views when traffic differs.
	views := []float64{1000, 10}
	traffic := []float64{100, 1}
	in, err := intensity(views, traffic)
	if err != nil {
		t.Fatal(err)
	}
	if in[0] != in[1] {
		t.Fatalf("intensities %v should be equal", in)
	}
	q := quantize(in)
	if q[0] != 61 || q[1] != 61 {
		t.Fatalf("both countries should cap at 61, got %v", q)
	}
}

func TestIntensityErrorsAndZeros(t *testing.T) {
	if _, err := intensity([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	in, err := intensity([]float64{5, 5}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if in[0] != 0 {
		t.Fatalf("zero-traffic country should have zero intensity, got %v", in[0])
	}
}

func TestBuildParseURLRoundTrip(t *testing.T) {
	c := &Chart{
		Codes:       []string{"US", "BR", "FR"},
		Intensities: []int{61, 30, -1},
		Width:       440,
		Height:      220,
	}
	u, err := c.BuildURL()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(u, "chart.apis.google.com") {
		t.Fatalf("unexpected host in %q", u)
	}
	got, err := ParseURL(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Codes) != 3 || got.Codes[1] != "BR" {
		t.Fatalf("codes = %v", got.Codes)
	}
	if got.Intensities[0] != 61 || got.Intensities[2] != -1 {
		t.Fatalf("intensities = %v", got.Intensities)
	}
	if got.Width != 440 || got.Height != 220 {
		t.Fatalf("size = %dx%d", got.Width, got.Height)
	}
}

func TestParseURLPipeSeparatedChld(t *testing.T) {
	got, err := ParseURL("http://chart.apis.google.com/chart?cht=map&chld=US|GB&chd=s:9A&chs=440x220")
	if err != nil {
		t.Fatal(err)
	}
	if got.Codes[0] != "US" || got.Codes[1] != "GB" {
		t.Fatalf("codes = %v", got.Codes)
	}
	if got.Intensities[0] != 61 || got.Intensities[1] != 0 {
		t.Fatalf("intensities = %v", got.Intensities)
	}
}

func TestParseURLErrors(t *testing.T) {
	cases := map[string]string{
		"wrong chart type": "http://x/chart?cht=p&chld=US&chd=s:9",
		"missing chld":     "http://x/chart?cht=t&chd=s:9",
		"odd chld":         "http://x/chart?cht=t&chld=USB&chd=s:99",
		"bad code":         "http://x/chart?cht=t&chld=u1&chd=s:9",
		"bad chd prefix":   "http://x/chart?cht=t&chld=US&chd=t:9",
		"count mismatch":   "http://x/chart?cht=t&chld=USGB&chd=s:9",
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseURL(raw); !errors.Is(err, ErrBadURL) {
				t.Fatalf("ParseURL(%q) err = %v, want ErrBadURL", raw, err)
			}
		})
	}
}

func TestBuildURLErrors(t *testing.T) {
	if _, err := (&Chart{Codes: []string{"US"}, Intensities: []int{1, 2}}).BuildURL(); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := (&Chart{Codes: []string{"usa"}, Intensities: []int{1}}).BuildURL(); err == nil {
		t.Fatal("bad code accepted")
	}
	if _, err := (&Chart{Codes: []string{"US"}, Intensities: []int{99}}).BuildURL(); err == nil {
		t.Fatal("out-of-range intensity accepted")
	}
}

func TestChartURLPropertyRoundTrip(t *testing.T) {
	codes := []string{"US", "GB", "FR", "DE", "BR", "JP", "KR", "IN"}
	f := func(raw [8]uint8) bool {
		in := make([]int, len(codes))
		for i := range in {
			in[i] = int(raw[i]) % 63
			if in[i] == 62 {
				in[i] = -1 // exercise the missing marker
			}
		}
		c := &Chart{Codes: codes, Intensities: in}
		u, err := c.BuildURL()
		if err != nil {
			return false
		}
		got, err := ParseURL(u)
		if err != nil {
			return false
		}
		for i := range in {
			if got.Intensities[i] != in[i] || got.Codes[i] != codes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseURLNeverPanicsOnArbitraryInput(t *testing.T) {
	// Robustness property: the parser must reject, never panic, on any
	// byte soup the scraper might encounter in the wild.
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ParseURL panicked on %q: %v", raw, r)
			}
		}()
		_, _ = ParseURL(string(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestParseURLNeverPanicsOnChartShapedInput(t *testing.T) {
	// Same property, but over inputs that look like chart URLs so the
	// deeper branches are reached.
	f := func(chld, chd []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panicked on chld=%q chd=%q: %v", chld, chd, r)
			}
		}()
		u := "http://chart.apis.google.com/chart?cht=t&chtm=world&chld=" + string(chld) + "&chd=s:" + string(chd)
		_, _ = ParseURL(u)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeToLevels(t *testing.T) {
	in := []float64{1, 0.5, 0.25}
	q := quantizeTo(in, 4095)
	if q[0] != 4095 || q[1] != 2048 || q[2] != 1024 {
		t.Fatalf("quantizeTo(4095) = %v", q)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("QuantizeInto at level 0 did not panic")
		}
	}()
	quantizeTo(in, 0)
}
