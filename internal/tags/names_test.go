package tags

import (
	"strconv"
	"testing"

	"viewstags/internal/xrand"
)

// probeUnique is unique as it was before it remembered suffixes: every
// base word's numeric suffixes are probed from 2.
func probeUnique(g *nameGen, taken map[string]int, lang string) string {
	for attempt := 0; attempt < 8; attempt++ {
		w := g.word(lang)
		if _, dup := taken[string(w)]; !dup {
			return string(w)
		}
	}
	base := len(g.word(lang))
	for i := 2; ; i++ {
		g.buf = strconv.AppendInt(g.buf[:base], int64(i), 10)
		if _, dup := taken[string(g.buf)]; !dup {
			return string(g.buf)
		}
	}
}

// TestUniqueMatchesProbeFromTwo: remembering where each base word's
// suffixes stopped names every tag as probing from 2 does, over a run of
// one language long enough to exhaust its short words, so most names
// carry a suffix and many base words carry several.
func TestUniqueMatchesProbeFromTwo(t *testing.T) {
	const names, lang = 30000, "ko"
	got, want := newNameGen(xrand.NewSource(7)), newNameGen(xrand.NewSource(7))
	gotTaken, wantTaken := map[string]int{}, map[string]int{}
	suffixed := 0
	for i := 0; i < names; i++ {
		g, w := got.unique(gotTaken, lang), probeUnique(want, wantTaken, lang)
		if g != w {
			t.Fatalf("name %d is %q, probing from 2 gives %q", i, g, w)
		}
		if _, dup := gotTaken[g]; dup {
			t.Fatalf("name %d %q was already taken", i, g)
		}
		gotTaken[g], wantTaken[w] = i, i
		if c := g[len(g)-1]; c >= '0' && c <= '9' {
			suffixed++
		}
	}
	if suffixed < names/2 {
		t.Fatalf("%d of %d names carry a suffix, want at least half", suffixed, names)
	}
	t.Logf("%d of %d names carry a suffix, over %d base words", suffixed, names, len(got.next))
}
