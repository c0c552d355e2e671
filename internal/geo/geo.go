// Package geo is the country substrate for the reproduction: ISO-3166
// alpha-2 country codes, circa-2011 demographic estimates, language
// clusters used by the synthetic tag model, and the ground-truth
// per-country YouTube traffic prior p_yt from which the paper's Alexa
// estimate p̂_yt is derived (see internal/alexa).
//
// The paper's dataset was seeded from the 10 most popular videos in each
// of the 25 countries YouTube exposed as locales in March 2011; that seed
// list is exported as YouTube2011Locales.
package geo

import (
	"fmt"
	"sort"
)

// CountryID is a dense index into the world's country table. Using a
// dense index (rather than the ISO string) keeps per-country vectors flat
// and cache-friendly throughout the pipeline.
type CountryID int

// Region is a coarse continental grouping, used by the cache simulator
// and by the synthetic generator's regional tag class.
type Region int

// Regions. Enums start at one so the zero value is detectably invalid.
const (
	RegionInvalid Region = iota
	RegionNorthAmerica
	RegionSouthAmerica
	RegionEurope
	RegionMiddleEast
	RegionAfrica
	RegionAsia
	RegionOceania
)

// String returns the region name.
func (r Region) String() string {
	switch r {
	case RegionNorthAmerica:
		return "North America"
	case RegionSouthAmerica:
		return "South America"
	case RegionEurope:
		return "Europe"
	case RegionMiddleEast:
		return "Middle East"
	case RegionAfrica:
		return "Africa"
	case RegionAsia:
		return "Asia"
	case RegionOceania:
		return "Oceania"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// Country describes one country in the world table.
type Country struct {
	Code        string  // ISO-3166 alpha-2, upper case
	Name        string  // English short name
	Region      Region  // continental grouping
	Language    string  // dominant language cluster key (lower case)
	PopulationM float64 // total population, millions, ~2011
	NetUsersM   float64 // internet users, millions, ~2011
	Lat         float64 // approximate centroid latitude, degrees
	Lon         float64 // approximate centroid longitude, degrees
	// YTFactor scales the country's contribution to the YouTube traffic
	// prior relative to its internet population. 0 (the zero value)
	// means 1.0; values < 1 model access restrictions — YouTube was
	// blocked in mainland China throughout the paper's March-2011
	// collection window, so CN carries a small diaspora/VPN residual.
	YTFactor float64
}

// World is an immutable table of countries plus derived lookup
// structures. Construct with NewWorld or DefaultWorld.
type World struct {
	countries []Country
	byCode    map[string]CountryID
	traffic   []float64 // ground-truth YouTube traffic share p_yt, sums to 1
	langPeers map[string][]CountryID
}

// NewWorld builds a World from an explicit country table. Traffic shares
// are derived from internet-user counts (a country's share of YouTube
// views is taken proportional to its online population, which is the
// stand-in ground truth the synthetic generator and Alexa estimator
// perturb). It returns an error on duplicate codes or empty input.
func NewWorld(countries []Country) (*World, error) {
	if len(countries) == 0 {
		return nil, fmt.Errorf("geo: empty country table")
	}
	w := &World{
		countries: append([]Country(nil), countries...),
		byCode:    make(map[string]CountryID, len(countries)),
		langPeers: make(map[string][]CountryID),
	}
	var totalNet float64
	for i, c := range w.countries {
		if c.Code == "" || c.Name == "" {
			return nil, fmt.Errorf("geo: country %d has empty code or name", i)
		}
		if _, dup := w.byCode[c.Code]; dup {
			return nil, fmt.Errorf("geo: duplicate country code %q", c.Code)
		}
		if c.NetUsersM < 0 || c.PopulationM <= 0 {
			return nil, fmt.Errorf("geo: country %s has invalid demographics", c.Code)
		}
		w.byCode[c.Code] = CountryID(i)
		w.langPeers[c.Language] = append(w.langPeers[c.Language], CountryID(i))
		totalNet += c.NetUsersM
	}
	if totalNet <= 0 {
		return nil, fmt.Errorf("geo: total internet users is zero")
	}
	w.traffic = make([]float64, len(w.countries))
	var totalWeighted float64
	for _, c := range w.countries {
		totalWeighted += c.NetUsersM * ytFactor(c)
	}
	if totalWeighted <= 0 {
		return nil, fmt.Errorf("geo: total YouTube-weighted traffic is zero")
	}
	for i, c := range w.countries {
		w.traffic[i] = c.NetUsersM * ytFactor(c) / totalWeighted
	}
	return w, nil
}

// DefaultWorld returns the standard 60-country world used throughout the
// reproduction. The table is deliberately a superset of the 25 YouTube
// 2011 locales so that crawl seeds never reference an unknown country.
func DefaultWorld() *World {
	w, err := NewWorld(defaultCountries())
	if err != nil {
		// The default table is a compile-time constant of this package;
		// failing to build it is a programming error, not a runtime
		// condition a caller could handle.
		panic("geo: default world invalid: " + err.Error())
	}
	return w
}

// N returns the number of countries.
func (w *World) N() int { return len(w.countries) }

// Country returns the country record for id. It panics on an out-of-range
// id, which always indicates a bug (ids are only minted by this package).
func (w *World) Country(id CountryID) Country {
	return w.countries[id]
}

// ByCode resolves an ISO alpha-2 code. The boolean reports whether the
// code is known.
func (w *World) ByCode(code string) (CountryID, bool) {
	id, ok := w.byCode[code]
	return id, ok
}

// MustByCode resolves a code that is statically known to exist (e.g. the
// built-in locale list against the built-in world); it panics otherwise.
func (w *World) MustByCode(code string) CountryID {
	id, ok := w.byCode[code]
	if !ok {
		panic("geo: unknown country code " + code)
	}
	return id
}

// Codes returns all country codes in table order.
func (w *World) Codes() []string {
	out := make([]string, len(w.countries))
	for i, c := range w.countries {
		out[i] = c.Code
	}
	return out
}

// Traffic returns a copy of the ground-truth YouTube traffic share vector
// p_yt (sums to 1, indexed by CountryID).
func (w *World) Traffic() []float64 {
	return append([]float64(nil), w.traffic...)
}

// TrafficOf returns the ground-truth traffic share of one country.
func (w *World) TrafficOf(id CountryID) float64 { return w.traffic[id] }

// LanguagePeers returns the countries sharing the given language cluster,
// in table order. The returned slice is a copy: a caller that needs it per
// video takes it once and keeps it, as tags.Vocabulary does.
func (w *World) LanguagePeers(lang string) []CountryID {
	return append([]CountryID(nil), w.langPeers[lang]...)
}

// Languages returns the distinct language-cluster keys, sorted.
func (w *World) Languages() []string {
	out := make([]string, 0, len(w.langPeers))
	for l := range w.langPeers {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// YouTube2011Locales is the list of the 25 countries for which YouTube
// exposed localized "most popular" standard feeds in March 2011 — the
// seed countries of the paper's crawl (§2).
var YouTube2011Locales = []string{
	"US", "GB", "FR", "DE", "BR", "JP", "KR", "IN", "RU", "MX",
	"ES", "IT", "NL", "PL", "SE", "CZ", "AU", "CA", "AR", "TW",
	"HK", "IE", "IL", "NZ", "ZA",
}

// ytFactor returns the country's effective YouTube-access factor (the
// zero value means unrestricted access).
func ytFactor(c Country) float64 {
	if c.YTFactor == 0 {
		return 1
	}
	return c.YTFactor
}

// defaultCountries returns the built-in world table. Population and
// internet-user figures are circa-2011 estimates (millions), rounded;
// they set the relative traffic prior, not absolute truth.
func defaultCountries() []Country {
	return []Country{
		{Code: "US", Name: "United States", Region: RegionNorthAmerica, Language: "en", PopulationM: 311.6, NetUsersM: 245.2, Lat: 39.8, Lon: -98.6},
		{Code: "GB", Name: "United Kingdom", Region: RegionEurope, Language: "en", PopulationM: 63.3, NetUsersM: 52.7, Lat: 54.0, Lon: -2.0},
		{Code: "FR", Name: "France", Region: RegionEurope, Language: "fr", PopulationM: 65.3, NetUsersM: 52.2, Lat: 46.6, Lon: 2.2},
		{Code: "DE", Name: "Germany", Region: RegionEurope, Language: "de", PopulationM: 81.8, NetUsersM: 67.4, Lat: 51.0, Lon: 10.4},
		{Code: "BR", Name: "Brazil", Region: RegionSouthAmerica, Language: "pt", PopulationM: 196.9, NetUsersM: 88.5, Lat: -10.8, Lon: -53.0},
		{Code: "JP", Name: "Japan", Region: RegionAsia, Language: "ja", PopulationM: 127.8, NetUsersM: 101.2, Lat: 36.5, Lon: 138.0},
		{Code: "KR", Name: "South Korea", Region: RegionAsia, Language: "ko", PopulationM: 49.8, NetUsersM: 41.6, Lat: 36.5, Lon: 127.9},
		{Code: "IN", Name: "India", Region: RegionAsia, Language: "hi", PopulationM: 1221.2, NetUsersM: 125.0, Lat: 22.9, Lon: 79.6},
		{Code: "RU", Name: "Russia", Region: RegionEurope, Language: "ru", PopulationM: 142.9, NetUsersM: 70.0, Lat: 58.0, Lon: 70.0},
		{Code: "MX", Name: "Mexico", Region: RegionNorthAmerica, Language: "es", PopulationM: 114.8, NetUsersM: 42.0, Lat: 23.9, Lon: -102.5},
		{Code: "ES", Name: "Spain", Region: RegionEurope, Language: "es", PopulationM: 46.7, NetUsersM: 31.6, Lat: 40.2, Lon: -3.6},
		{Code: "IT", Name: "Italy", Region: RegionEurope, Language: "it", PopulationM: 60.7, NetUsersM: 35.8, Lat: 42.8, Lon: 12.1},
		{Code: "NL", Name: "Netherlands", Region: RegionEurope, Language: "nl", PopulationM: 16.7, NetUsersM: 15.5, Lat: 52.2, Lon: 5.5},
		{Code: "PL", Name: "Poland", Region: RegionEurope, Language: "pl", PopulationM: 38.5, NetUsersM: 24.9, Lat: 52.1, Lon: 19.4},
		{Code: "SE", Name: "Sweden", Region: RegionEurope, Language: "sv", PopulationM: 9.5, NetUsersM: 8.9, Lat: 62.0, Lon: 16.7},
		{Code: "CZ", Name: "Czech Republic", Region: RegionEurope, Language: "cs", PopulationM: 10.5, NetUsersM: 7.6, Lat: 49.8, Lon: 15.3},
		{Code: "AU", Name: "Australia", Region: RegionOceania, Language: "en", PopulationM: 22.3, NetUsersM: 17.7, Lat: -25.7, Lon: 134.5},
		{Code: "CA", Name: "Canada", Region: RegionNorthAmerica, Language: "en", PopulationM: 34.5, NetUsersM: 28.4, Lat: 56.0, Lon: -106.0},
		{Code: "AR", Name: "Argentina", Region: RegionSouthAmerica, Language: "es", PopulationM: 40.9, NetUsersM: 19.0, Lat: -35.4, Lon: -65.1},
		{Code: "TW", Name: "Taiwan", Region: RegionAsia, Language: "zh", PopulationM: 23.2, NetUsersM: 16.1, Lat: 23.6, Lon: 121.0},
		{Code: "HK", Name: "Hong Kong", Region: RegionAsia, Language: "zh", PopulationM: 7.1, NetUsersM: 4.9, Lat: 22.3, Lon: 114.2},
		{Code: "IE", Name: "Ireland", Region: RegionEurope, Language: "en", PopulationM: 4.6, NetUsersM: 3.4, Lat: 53.2, Lon: -8.2},
		{Code: "IL", Name: "Israel", Region: RegionMiddleEast, Language: "he", PopulationM: 7.8, NetUsersM: 5.3, Lat: 31.4, Lon: 35.0},
		{Code: "NZ", Name: "New Zealand", Region: RegionOceania, Language: "en", PopulationM: 4.4, NetUsersM: 3.6, Lat: -41.8, Lon: 172.8},
		{Code: "ZA", Name: "South Africa", Region: RegionAfrica, Language: "en", PopulationM: 51.6, NetUsersM: 8.5, Lat: -29.0, Lon: 25.1},
		{Code: "CN", Name: "China", Region: RegionAsia, Language: "zh", PopulationM: 1344.1, NetUsersM: 513.1, Lat: 36.6, Lon: 103.8, YTFactor: 0.02},
		{Code: "ID", Name: "Indonesia", Region: RegionAsia, Language: "id", PopulationM: 244.8, NetUsersM: 45.0, Lat: -2.2, Lon: 117.3},
		{Code: "TR", Name: "Turkey", Region: RegionMiddleEast, Language: "tr", PopulationM: 73.1, NetUsersM: 35.0, Lat: 39.1, Lon: 35.2},
		{Code: "PH", Name: "Philippines", Region: RegionAsia, Language: "en", PopulationM: 95.1, NetUsersM: 29.7, Lat: 11.8, Lon: 122.9},
		{Code: "VN", Name: "Vietnam", Region: RegionAsia, Language: "vi", PopulationM: 88.8, NetUsersM: 30.9, Lat: 16.6, Lon: 106.3},
		{Code: "TH", Name: "Thailand", Region: RegionAsia, Language: "th", PopulationM: 66.6, NetUsersM: 18.3, Lat: 15.1, Lon: 101.0},
		{Code: "MY", Name: "Malaysia", Region: RegionAsia, Language: "ms", PopulationM: 28.9, NetUsersM: 17.7, Lat: 3.8, Lon: 109.7},
		{Code: "SG", Name: "Singapore", Region: RegionAsia, Language: "en", PopulationM: 5.2, NetUsersM: 3.9, Lat: 1.35, Lon: 103.8},
		{Code: "PK", Name: "Pakistan", Region: RegionAsia, Language: "ur", PopulationM: 176.2, NetUsersM: 16.0, Lat: 29.9, Lon: 69.1},
		{Code: "BD", Name: "Bangladesh", Region: RegionAsia, Language: "bn", PopulationM: 152.9, NetUsersM: 7.6, Lat: 23.9, Lon: 90.2},
		{Code: "EG", Name: "Egypt", Region: RegionMiddleEast, Language: "ar", PopulationM: 82.5, NetUsersM: 21.7, Lat: 26.6, Lon: 29.8},
		{Code: "SA", Name: "Saudi Arabia", Region: RegionMiddleEast, Language: "ar", PopulationM: 28.4, NetUsersM: 13.0, Lat: 24.0, Lon: 44.5},
		{Code: "AE", Name: "United Arab Emirates", Region: RegionMiddleEast, Language: "ar", PopulationM: 8.9, NetUsersM: 6.2, Lat: 23.9, Lon: 54.3},
		{Code: "MA", Name: "Morocco", Region: RegionAfrica, Language: "ar", PopulationM: 32.1, NetUsersM: 16.5, Lat: 31.9, Lon: -6.3},
		{Code: "NG", Name: "Nigeria", Region: RegionAfrica, Language: "en", PopulationM: 164.2, NetUsersM: 45.0, Lat: 9.6, Lon: 8.1},
		{Code: "KE", Name: "Kenya", Region: RegionAfrica, Language: "en", PopulationM: 42.0, NetUsersM: 10.5, Lat: 0.5, Lon: 37.9},
		{Code: "CO", Name: "Colombia", Region: RegionSouthAmerica, Language: "es", PopulationM: 46.4, NetUsersM: 22.5, Lat: 3.9, Lon: -73.1},
		{Code: "CL", Name: "Chile", Region: RegionSouthAmerica, Language: "es", PopulationM: 17.3, NetUsersM: 9.3, Lat: -37.7, Lon: -71.4},
		{Code: "PE", Name: "Peru", Region: RegionSouthAmerica, Language: "es", PopulationM: 29.9, NetUsersM: 10.8, Lat: -9.2, Lon: -75.6},
		{Code: "VE", Name: "Venezuela", Region: RegionSouthAmerica, Language: "es", PopulationM: 29.3, NetUsersM: 11.0, Lat: 7.1, Lon: -66.2},
		{Code: "PT", Name: "Portugal", Region: RegionEurope, Language: "pt", PopulationM: 10.6, NetUsersM: 5.9, Lat: 39.6, Lon: -8.5},
		{Code: "BE", Name: "Belgium", Region: RegionEurope, Language: "fr", PopulationM: 11.0, NetUsersM: 8.9, Lat: 50.6, Lon: 4.6},
		{Code: "CH", Name: "Switzerland", Region: RegionEurope, Language: "de", PopulationM: 7.9, NetUsersM: 6.8, Lat: 46.8, Lon: 8.2},
		{Code: "AT", Name: "Austria", Region: RegionEurope, Language: "de", PopulationM: 8.4, NetUsersM: 6.7, Lat: 47.6, Lon: 14.1},
		{Code: "GR", Name: "Greece", Region: RegionEurope, Language: "el", PopulationM: 11.1, NetUsersM: 5.9, Lat: 39.1, Lon: 22.9},
		{Code: "RO", Name: "Romania", Region: RegionEurope, Language: "ro", PopulationM: 20.1, NetUsersM: 8.9, Lat: 45.8, Lon: 24.9},
		{Code: "HU", Name: "Hungary", Region: RegionEurope, Language: "hu", PopulationM: 10.0, NetUsersM: 6.5, Lat: 47.2, Lon: 19.4},
		{Code: "DK", Name: "Denmark", Region: RegionEurope, Language: "da", PopulationM: 5.6, NetUsersM: 5.0, Lat: 55.9, Lon: 10.0},
		{Code: "NO", Name: "Norway", Region: RegionEurope, Language: "no", PopulationM: 5.0, NetUsersM: 4.7, Lat: 64.5, Lon: 17.7},
		{Code: "FI", Name: "Finland", Region: RegionEurope, Language: "fi", PopulationM: 5.4, NetUsersM: 4.8, Lat: 64.5, Lon: 26.3},
		{Code: "UA", Name: "Ukraine", Region: RegionEurope, Language: "ru", PopulationM: 45.7, NetUsersM: 15.3, Lat: 49.0, Lon: 31.4},
		// XW is an ISO user-assigned code standing in for the long tail of
		// countries the table does not enumerate individually.
		{Code: "XW", Name: "Rest of World", Region: RegionAfrica, Language: "other", PopulationM: 900.0, NetUsersM: 60.0, Lat: -5.0, Lon: 20.0},
		{Code: "UY", Name: "Uruguay", Region: RegionSouthAmerica, Language: "es", PopulationM: 3.4, NetUsersM: 1.9, Lat: -32.8, Lon: -56.0},
		{Code: "EC", Name: "Ecuador", Region: RegionSouthAmerica, Language: "es", PopulationM: 15.2, NetUsersM: 4.8, Lat: -1.4, Lon: -78.9},
		{Code: "QA", Name: "Qatar", Region: RegionMiddleEast, Language: "ar", PopulationM: 1.9, NetUsersM: 1.6, Lat: 25.3, Lon: 51.2},
	}
}
