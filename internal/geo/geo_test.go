package geo

import (
	"math"
	"testing"
)

func TestDefaultWorldBasics(t *testing.T) {
	w := DefaultWorld()
	if w.N() < 50 {
		t.Fatalf("default world has %d countries, want >= 50", w.N())
	}
	if got := len(w.Codes()); got != w.N() {
		t.Fatalf("Codes() length %d != N() %d", got, w.N())
	}
}

func TestTrafficSumsToOne(t *testing.T) {
	w := DefaultWorld()
	var sum float64
	for _, p := range w.Traffic() {
		if p < 0 {
			t.Fatal("negative traffic share")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("traffic shares sum to %v", sum)
	}
}

// TestTrafficStrictlyPositive: no country of the default world has zero
// traffic, so a video's views in any country give it a positive Map-Chart
// intensity there — half of why every video with views quantises to a
// maximum of 61 (internal/synth TestTaggedOKVideosAreAdmitted).
func TestTrafficStrictlyPositive(t *testing.T) {
	w := DefaultWorld()
	for i, p := range w.Traffic() {
		if !(p > 0) {
			t.Fatalf("country %s has traffic share %v", w.Country(CountryID(i)).Code, p)
		}
	}
}

func TestTrafficOfMatchesVector(t *testing.T) {
	w := DefaultWorld()
	tr := w.Traffic()
	for i := range tr {
		if w.TrafficOf(CountryID(i)) != tr[i] {
			t.Fatalf("TrafficOf(%d) mismatch", i)
		}
	}
}

func TestTrafficCopyIsIndependent(t *testing.T) {
	w := DefaultWorld()
	tr := w.Traffic()
	orig := tr[0]
	tr[0] = 42
	if w.Traffic()[0] != orig {
		t.Fatal("Traffic() returned an aliased slice")
	}
}

func TestByCodeRoundTrip(t *testing.T) {
	w := DefaultWorld()
	for i := 0; i < w.N(); i++ {
		id := CountryID(i)
		c := w.Country(id)
		got, ok := w.ByCode(c.Code)
		if !ok || got != id {
			t.Fatalf("ByCode(%q) = %v,%v want %v,true", c.Code, got, ok, id)
		}
	}
}

func TestByCodeUnknown(t *testing.T) {
	w := DefaultWorld()
	if _, ok := w.ByCode("ZZ"); ok {
		t.Fatal("ByCode accepted unknown code ZZ")
	}
}

func TestMustByCodePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustByCode did not panic on unknown code")
		}
	}()
	DefaultWorld().MustByCode("ZZ")
}

// seedCountries resolves YouTube2011Locales against w; a missing locale
// panics.
func seedCountries(w *World) []CountryID {
	out := make([]CountryID, len(YouTube2011Locales))
	for i, code := range YouTube2011Locales {
		out[i] = w.MustByCode(code)
	}
	return out
}

func TestSeedCountriesComplete(t *testing.T) {
	w := DefaultWorld()
	seeds := seedCountries(w)
	if len(seeds) != 25 {
		t.Fatalf("got %d seed countries, want 25 (paper §2)", len(seeds))
	}
	seen := make(map[CountryID]bool)
	for _, id := range seeds {
		if seen[id] {
			t.Fatalf("duplicate seed country %v", w.Country(id).Code)
		}
		seen[id] = true
	}
}

func TestSeedLocalesAreExactPaperList(t *testing.T) {
	if len(YouTube2011Locales) != 25 {
		t.Fatalf("locale list has %d entries, want 25", len(YouTube2011Locales))
	}
	for _, must := range []string{"US", "BR", "JP", "CZ", "ZA"} {
		found := false
		for _, c := range YouTube2011Locales {
			if c == must {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("locale list missing %s", must)
		}
	}
}

func TestLanguagePeersConsistent(t *testing.T) {
	w := DefaultWorld()
	for _, lang := range w.Languages() {
		peers := w.LanguagePeers(lang)
		if len(peers) == 0 {
			t.Fatalf("language %q has no members", lang)
		}
		for _, id := range peers {
			if w.Country(id).Language != lang {
				t.Fatalf("country %s listed under wrong language %q", w.Country(id).Code, lang)
			}
		}
	}
}

func TestSpanishClusterSpansAtlantic(t *testing.T) {
	w := DefaultWorld()
	peers := w.LanguagePeers("es")
	if len(peers) < 5 {
		t.Fatalf("Spanish cluster has only %d countries", len(peers))
	}
	regions := make(map[Region]bool)
	for _, id := range peers {
		regions[w.Country(id).Region] = true
	}
	if !regions[RegionEurope] || !regions[RegionSouthAmerica] {
		t.Fatal("Spanish cluster should span Europe and South America")
	}
}

func TestRegionString(t *testing.T) {
	cases := map[Region]string{
		RegionEurope:       "Europe",
		RegionAsia:         "Asia",
		RegionSouthAmerica: "South America",
		Region(99):         "Region(99)",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Region.String(%d) = %q, want %q", int(r), got, want)
		}
	}
}

func TestNewWorldRejectsBadTables(t *testing.T) {
	cases := map[string][]Country{
		"empty": nil,
		"duplicate code": {
			{Code: "US", Name: "A", Region: RegionEurope, Language: "en", PopulationM: 1, NetUsersM: 1},
			{Code: "US", Name: "B", Region: RegionEurope, Language: "en", PopulationM: 1, NetUsersM: 1},
		},
		"empty code": {
			{Code: "", Name: "A", Region: RegionEurope, Language: "en", PopulationM: 1, NetUsersM: 1},
		},
		"zero population": {
			{Code: "AA", Name: "A", Region: RegionEurope, Language: "en", PopulationM: 0, NetUsersM: 1},
		},
		"zero net users total": {
			{Code: "AA", Name: "A", Region: RegionEurope, Language: "en", PopulationM: 1, NetUsersM: 0},
		},
	}
	for name, table := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := NewWorld(table); err == nil {
				t.Fatalf("NewWorld accepted invalid table %q", name)
			}
		})
	}
}

func TestUSIsLargestTrafficAmongLocales(t *testing.T) {
	// With China absent from YouTube in 2011 terms the US should dominate
	// the seed locales' traffic (sanity of the demographic table).
	w := DefaultWorld()
	us := w.MustByCode("US")
	seeds := seedCountries(w)
	for _, id := range seeds {
		if id != us && w.TrafficOf(id) >= w.TrafficOf(us) {
			t.Fatalf("%s traffic >= US traffic", w.Country(id).Code)
		}
	}
}
