package mapchart

import (
	"fmt"
	"net/url"
	"strings"
)

// Chart is a decoded legacy world map chart: parallel country codes and
// simple-encoded intensities, exactly the information the paper extracts
// from each video's popularity map.
type Chart struct {
	Codes       []string // ISO alpha-2, upper case, one per value
	Intensities []int    // 0..61, -1 for "missing"
	Width       int
	Height      int
}

// legacyHost and legacy parameters mirror the retired chart API
// ("cht=t&chtm=world"), which is what YouTube's 2011 pages embedded.
const (
	legacyHost  = "chart.apis.google.com"
	legacyPath  = "/chart"
	legacyType  = "t"
	legacyMap   = "world"
	defaultSize = "440x220"
)

// BuildURL renders the chart as a legacy map-chart URL. Country codes are
// concatenated without separators in chld (the legacy convention), and
// intensities use simple encoding. It returns an error if codes and
// intensities disagree in length, a code is not two ASCII letters, or an
// intensity is out of range.
func (c *Chart) BuildURL() (string, error) {
	if len(c.Codes) != len(c.Intensities) {
		return "", fmt.Errorf("mapchart: %d codes but %d intensities", len(c.Codes), len(c.Intensities))
	}
	var chld strings.Builder
	for _, code := range c.Codes {
		if len(code) != 2 || !isUpperAlpha(code) {
			return "", fmt.Errorf("mapchart: invalid country code %q", code)
		}
		chld.WriteString(code)
	}
	payload, err := EncodeSimple(c.Intensities)
	if err != nil {
		return "", err
	}
	size := defaultSize
	if c.Width > 0 && c.Height > 0 {
		size = fmt.Sprintf("%dx%d", c.Width, c.Height)
	}
	q := url.Values{}
	q.Set("cht", legacyType)
	q.Set("chtm", legacyMap)
	q.Set("chs", size)
	q.Set("chld", chld.String())
	q.Set("chd", "s:"+payload)
	u := url.URL{Scheme: "http", Host: legacyHost, Path: legacyPath, RawQuery: q.Encode()}
	return u.String(), nil
}

// ParseURL decodes a legacy map-chart URL back into a Chart — the
// operation the paper's crawler performed on every scraped video page.
// It accepts both the legacy concatenated chld form and the newer
// pipe-separated form.
func ParseURL(raw string) (*Chart, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadURL, err)
	}
	q := u.Query()
	if q.Get("cht") != legacyType && q.Get("cht") != "map" {
		return nil, fmt.Errorf("%w: cht=%q", ErrBadURL, q.Get("cht"))
	}
	chld := q.Get("chld")
	if chld == "" {
		return nil, fmt.Errorf("%w: missing chld", ErrBadURL)
	}
	var codes []string
	if strings.Contains(chld, "|") {
		codes = strings.Split(chld, "|")
	} else {
		if len(chld)%2 != 0 {
			return nil, fmt.Errorf("%w: odd chld length %d", ErrBadURL, len(chld))
		}
		for i := 0; i < len(chld); i += 2 {
			codes = append(codes, chld[i:i+2])
		}
	}
	for _, code := range codes {
		if len(code) != 2 || !isUpperAlpha(code) {
			return nil, fmt.Errorf("%w: bad country code %q", ErrBadURL, code)
		}
	}
	chd := q.Get("chd")
	var values []int
	switch {
	case strings.HasPrefix(chd, "s:"):
		values, err = decodeSimple(chd[2:])
	case strings.HasPrefix(chd, "e:"):
		values, err = decodeExtended(chd[2:])
	default:
		return nil, fmt.Errorf("%w: unsupported chd %q", ErrBadURL, chd)
	}
	if err != nil {
		return nil, err
	}
	if len(values) != len(codes) {
		return nil, fmt.Errorf("%w: %d codes but %d values", ErrBadURL, len(codes), len(values))
	}
	chart := &Chart{Codes: codes, Intensities: values}
	if w, h, ok := parseSize(q.Get("chs")); ok {
		chart.Width, chart.Height = w, h
	}
	return chart, nil
}

func parseSize(s string) (w, h int, ok bool) {
	if n, err := fmt.Sscanf(s, "%dx%d", &w, &h); err != nil || n != 2 {
		return 0, 0, false
	}
	return w, h, true
}

func isUpperAlpha(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 'A' || s[i] > 'Z' {
			return false
		}
	}
	return true
}
