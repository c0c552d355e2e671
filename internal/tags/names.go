package tags

import (
	"strconv"
	"strings"

	"viewstags/internal/xrand"
)

// nameGen synthesizes plausible tag strings. Each language cluster gets
// its own syllable inventory so the synthetic vocabulary "reads" like a
// multilingual folksonomy rather than random bytes — which also exercises
// the normalization path with realistic inputs.
type nameGen struct {
	src *xrand.Source
	buf []byte // the word being synthesized; a name is copied out once, when kept
}

func newNameGen(src *xrand.Source) *nameGen {
	return &nameGen{src: src}
}

// syllables is the inventory per language cluster key.
var syllables = map[string][]string{
	"pt": {"ca", "ri", "o", "fa", "ve", "la", "sam", "ba", "do", "bra", "zu", "mor", "ro", "nho", "gol"},
	"es": {"el", "la", "cor", "ri", "da", "fue", "go", "ce", "le", "bre", "mun", "do", "can", "ta"},
	"fr": {"le", "mon", "de", "pa", "ri", "chan", "son", "vé", "lo", "bleu", "coeur", "nuit"},
	"de": {"der", "schau", "spiel", "lich", "berg", "wald", "lied", "zeit", "fest", "bahn"},
	"ja": {"ka", "wa", "ii", "to", "kyo", "sa", "ku", "ra", "ne", "ko", "man", "ga"},
	"ko": {"han", "gug", "seo", "ul", "no", "rae", "chum", "gi", "mu", "dae"},
	"ru": {"mos", "kva", "pes", "nya", "zhi", "vot", "koto", "rusk", "da", "net"},
	"hi": {"bha", "rat", "ga", "na", "fil", "mi", "des", "hi", "ma", "sa", "la"},
	"zh": {"zhong", "guo", "hua", "mei", "xi", "ju", "ge", "wu", "dian", "ying"},
	"ar": {"al", "ma", "ka", "bir", "sha", "riq", "ha", "bi", "bi", "nur"},
}

// neutralSyllables is the inventory of a cluster that has none of its own.
var neutralSyllables = []string{"ta", "ke", "lo", "mi", "ra", "zen", "po", "vu", "na", "si", "ko", "da", "fi", "ru"}

// word synthesizes one 2–4 syllable word in the given language flavor
// into g.buf and returns it; the bytes are overwritten by the next word.
func (g *nameGen) word(lang string) []byte {
	syl, ok := syllables[lang]
	if !ok {
		syl = neutralSyllables
	}
	n := 2 + g.src.Intn(3)
	g.buf = g.buf[:0]
	for i := 0; i < n; i++ {
		g.buf = append(g.buf, syl[g.src.Intn(len(syl))]...)
	}
	return g.buf
}

// unique returns a synthesized tag name not already present in taken.
// After a few collisions it falls back to a numeric suffix, which is
// guaranteed fresh.
func (g *nameGen) unique(taken map[string]int, lang string) string {
	for attempt := 0; attempt < 8; attempt++ {
		w := g.word(lang)
		if _, dup := taken[string(w)]; !dup { // a lookup by converted bytes does not allocate
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

// NormalizeName canonicalizes a raw tag string the way the analysis
// pipeline keys tags: lower-cased, surrounding whitespace trimmed, inner
// whitespace runs collapsed to single spaces.
func NormalizeName(raw string) string {
	return strings.Join(strings.Fields(strings.ToLower(raw)), " ")
}

// SplitTagList splits a comma-separated tag attribute (the GData wire
// form) into normalized, deduplicated tag names, preserving first-seen
// order. Empty fragments are dropped.
func SplitTagList(raw string) []string {
	parts := strings.Split(raw, ",")
	seen := make(map[string]bool, len(parts))
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		n := NormalizeName(p)
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
	}
	return out
}

// JoinTagList renders tag names as the comma-separated GData wire form.
func JoinTagList(names []string) string {
	return strings.Join(names, ",")
}
