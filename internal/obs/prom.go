package obs

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// TextContentType is the Prometheus text exposition content type the
// /metrics handlers answer with.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one name=value pair on a sample.
type Label struct {
	Name  string
	Value string
}

// TextWriter renders the Prometheus text exposition format (version
// 0.0.4) without any external dependency. Scalar series come from
// Encode, histograms from Histogram; a family is declared by
// its first series, and each family's lines form one contiguous group
// whatever order its series arrive in — samples are buffered per family,
// and Bytes writes the families in the order of their first declaration.
// The writer panics on programmer errors — a family redeclared with
// another type, a tag it cannot encode — because a malformed exposition
// is a bug, not a runtime condition; wire-level conformance is checked by
// Validate in tests.
type TextWriter struct {
	order    []*family
	families map[string]*family
}

// family is one declared family and its buffered sample lines.
type family struct {
	name, help, typ string
	lines           bytes.Buffer
}

// NewTextWriter returns an empty exposition.
func NewTextWriter() *TextWriter {
	return &TextWriter{families: make(map[string]*family)}
}

// family declares name on first use; declaring it again is a no-op (the
// first HELP text stands) unless the type differs.
func (w *TextWriter) family(name, help, typ string) *family {
	f := w.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		w.families[name] = f
		w.order = append(w.order, f)
	} else if f.typ != typ {
		panic("obs: family " + name + " redeclared as " + typ + ", declared " + f.typ)
	}
	return f
}

// Encode appends the scalar series a snapshot struct declares, the way
// encoding/json encodes its json tags, so the struct a JSON endpoint
// serves is the one declaration of every series it carries. v is a
// struct or a pointer to one; fields are walked in order, through
// embedded structs, pointers and slices, under two tags:
//
//   - prom:"name,counter|gauge" with help:"…" names a family. On a number
//     or bool field (a bool reads 1 or 0) it is one sample of the family,
//     and a third element such as result=hit adds a constant label; on a
//     struct it is the family of the label-tagged fields beneath.
//   - prom:"label" adds label=<the field's JSON name> to the field's
//     series, or to those beneath it; on a slice the value is each
//     element's index instead.
//
// A field the JSON omits — omitempty at its zero value, a nil pointer —
// is omitted here too. labels go on every series.
func (w *TextWriter) Encode(v any, labels ...Label) {
	w.encode(reflect.ValueOf(v), "", labels)
}

// encode walks one struct; fam is the tag of the nearest field above
// that names a family.
func (w *TextWriter) encode(v reflect.Value, fam reflect.StructTag, labels []Label) {
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	for i := 0; i < v.NumField(); i++ {
		sf, fv := v.Type().Field(i), v.Field(i)
		name, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
		if name == "-" || !sf.IsExported() && !sf.Anonymous ||
			strings.Contains(opts, "omitempty") && fv.Kind() != reflect.Struct && fv.IsZero() {
			continue
		}
		if name == "" {
			name = sf.Name
		}
		tag := sf.Tag.Get("prom")
		f, ls, label := fam, labels, tag
		if strings.Contains(tag, ",") {
			f, label = sf.Tag, ""
		} else if label != "" {
			ls = append(labels[:len(labels):len(labels)], Label{Name: label, Value: name})
		}
		switch fv.Kind() {
		case reflect.Struct, reflect.Pointer:
			w.encode(fv, f, ls)
		case reflect.Slice:
			for j := 0; j < fv.Len(); j++ {
				if label != "" {
					ls = append(labels[:len(labels):len(labels)], Label{Name: label, Value: strconv.Itoa(j)})
				}
				w.encode(fv.Index(j), f, ls)
			}
		default:
			if tag == "" {
				continue
			}
			famName, rest, ok := strings.Cut(f.Get("prom"), ",")
			if !ok {
				panic("obs: field " + sf.Name + " is labelled under no family")
			}
			typ, constant, _ := strings.Cut(rest, ",")
			ln, lv, _ := strings.Cut(constant, "=")
			w.family(famName, f.Get("help"), typ).line(famName, ls, Label{Name: ln, Value: lv}, number(fv), nil)
		}
	}
}

// number is a tagged field's sample value.
func number(v reflect.Value) float64 {
	switch {
	case v.Kind() == reflect.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	case v.CanInt():
		return float64(v.Int())
	case v.CanUint():
		return float64(v.Uint())
	case v.CanFloat():
		return v.Float()
	}
	panic("obs: prom tag on a " + v.Type().String() + " field")
}

// Histogram emits one histogram series: cumulative _bucket lines for
// every edge plus +Inf, then _sum (seconds) and _count. Exemplars are
// attached OpenMetrics-style to their bucket lines: `... 42 #
// {request_id="abc"} 0.0093`. Only buckets present in exemplars get the
// suffix; the base 0.0.4 format is untouched elsewhere, and Validate
// checks the exemplar grammar.
func (w *TextWriter) Histogram(name, help string, labels []Label, s HistSnapshot, exemplars ...BucketExemplar) {
	f := w.family(name, help, "histogram")
	exFor := func(bucket int) *BucketExemplar {
		for i := range exemplars {
			if exemplars[i].Bucket == bucket {
				return &exemplars[i]
			}
		}
		return nil
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += s.Counts[i]
		f.line(name+"_bucket", labels, Label{Name: "le", Value: formatFloat(bucketEdges[i])}, float64(cum), exFor(i))
	}
	cum += s.Counts[numBuckets]
	f.line(name+"_bucket", labels, Label{Name: "le", Value: "+Inf"}, float64(cum), exFor(numBuckets))
	f.line(name+"_sum", labels, Label{}, float64(s.SumNs)/1e9, nil)
	f.line(name+"_count", labels, Label{}, float64(cum), nil)
}

// line writes one sample with labels sorted by name (the validator
// rejects unsorted labels, and sorted output makes scrapes diffable);
// extra (when named) is merged into sort position — the histogram "le"
// label must interleave correctly with caller labels like "route". ex,
// when set, is appended as the line's exemplar.
func (f *family) line(name string, labels []Label, extra Label, v float64, ex *BucketExemplar) {
	b := &f.lines
	b.WriteString(name)
	all := append(make([]Label, 0, len(labels)+1), labels...)
	if extra.Name != "" {
		all = append(all, extra)
	}
	if len(all) > 0 {
		b.WriteByte('{')
		sort.Slice(all, func(a, b int) bool { return all[a].Name < all[b].Name })
		for i, l := range all {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	if ex != nil && ex.RequestID != "" {
		b.WriteString(` # {request_id="`)
		b.WriteString(escapeLabel(ex.RequestID))
		b.WriteString(`"} `)
		b.WriteString(formatFloat(ex.Seconds))
	}
	b.WriteByte('\n')
}

// Bytes returns the rendered exposition: each family's HELP and TYPE
// lines, then its samples.
func (w *TextWriter) Bytes() []byte {
	var out bytes.Buffer
	for _, f := range w.order {
		out.WriteString("# HELP " + f.name + " " + escapeHelp(f.help) + "\n# TYPE " + f.name + " " + f.typ + "\n")
		out.Write(f.lines.Bytes())
	}
	return out.Bytes()
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Validate is the text-format conformance checker the tests and the CI
// scrape step share. It parses every line of a 0.0.4 exposition and
// returns the first violation: unknown line shape, a sample before its
// # TYPE, a duplicate family declaration, a family split into more than
// one group (a sample outside the block its # TYPE opened, or a # HELP
// reopening a closed family), unsorted or duplicate labels, a duplicate
// series, an unparsable value, a histogram whose cumulative buckets
// decrease, or a histogram whose +Inf bucket disagrees with its _count.
func Validate(exposition []byte) error {
	type family struct {
		typ     string
		sampled bool
	}
	families := make(map[string]*family)
	var open *family                       // the block the last # TYPE opened
	seen := make(map[string]bool)          // full series key -> emitted
	histInf := make(map[string]float64)    // series key base -> +Inf cum
	histPrev := make(map[string]float64)   // series key base -> last cum
	histPrevLe := make(map[string]float64) // series key base -> last le
	lines := strings.Split(string(exposition), "\n")
	for ln, line := range lines {
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("metrics line %d: %s (%q)", ln+1, fmt.Sprintf(format, args...), line)
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fail("unknown comment shape")
			}
			if f := families[fields[2]]; fields[1] == "HELP" && f != nil && f != open {
				return fail("second block for family %s", fields[2])
			}
			if fields[1] == "TYPE" {
				name := fields[2]
				if len(fields) != 4 {
					return fail("TYPE without a type")
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fail("unknown type %q", fields[3])
				}
				if _, dup := families[name]; dup {
					return fail("duplicate TYPE for family %s", name)
				}
				open = &family{typ: fields[3]}
				families[name] = open
			}
			continue
		}
		name, labels, value, exemplar, err := parseSample(line)
		if err != nil {
			return fail("%v", err)
		}
		fam := families[name]
		base := name
		isBucket := false
		if fam == nil {
			// Histogram samples attach to their base family.
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(name, suffix) {
					base = strings.TrimSuffix(name, suffix)
					if f := families[base]; f != nil && f.typ == "histogram" {
						fam = f
						isBucket = suffix == "_bucket"
						break
					}
				}
			}
		}
		if fam == nil {
			return fail("sample for undeclared family %s", name)
		}
		if fam != open {
			return fail("sample for family %s outside its block", base)
		}
		fam.sampled = true
		var prevName string
		var le string
		for i, l := range labels {
			if i > 0 {
				if l.Name == prevName {
					return fail("duplicate label %s", l.Name)
				}
				if l.Name < prevName {
					return fail("labels not sorted: %s after %s", l.Name, prevName)
				}
			}
			prevName = l.Name
			if l.Name == "le" {
				le = l.Value
			}
		}
		key := line[:strings.LastIndexByte(line, ' ')]
		if seen[key] {
			return fail("duplicate series")
		}
		seen[key] = true
		if exemplar != "" && !isBucket {
			return fail("exemplar on a non-bucket sample")
		}
		if isBucket {
			if le == "" {
				return fail("histogram bucket without le")
			}
			// Series identity minus le: cumulative within one series.
			skey := base + "|" + labelKey(labels, "le")
			leV := math.Inf(1)
			if le != "+Inf" {
				leV, err = strconv.ParseFloat(le, 64)
				if err != nil {
					return fail("unparsable le %q", le)
				}
			}
			if exemplar != "" {
				exVal, exErr := validateExemplar(exemplar)
				if exErr != nil {
					return fail("%v", exErr)
				}
				if exVal > leV {
					return fail("exemplar value %v above bucket le %v", exVal, leV)
				}
			}
			if prev, ok := histPrevLe[skey]; ok && leV <= prev {
				return fail("histogram le not increasing")
			}
			if prev, ok := histPrev[skey]; ok && value < prev {
				return fail("histogram cumulative count decreased")
			}
			histPrev[skey] = value
			histPrevLe[skey] = leV
			if le == "+Inf" {
				histInf[skey] = value
			}
		}
		if fam.typ == "histogram" && strings.HasSuffix(name, "_count") {
			skey := base + "|" + labelKey(labels, "le")
			if inf, ok := histInf[skey]; !ok {
				return fail("histogram _count before +Inf bucket")
			} else if inf != value {
				return fail("histogram _count %v != +Inf bucket %v", value, inf)
			}
		}
	}
	for name, fam := range families {
		if !fam.sampled {
			return fmt.Errorf("metrics: family %s declared but never sampled", name)
		}
	}
	return nil
}

// labelKey renders labels (minus one excluded name) as a stable key.
func labelKey(labels []Label, exclude string) string {
	var b strings.Builder
	for _, l := range labels {
		if l.Name == exclude {
			continue
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(';')
	}
	return b.String()
}

// parseSample splits one sample line into name, labels (in written
// order), value and the raw exemplar section (the part after " # ",
// empty when absent).
func parseSample(line string) (string, []Label, float64, string, error) {
	var exemplar string
	if sep := strings.Index(line, " # "); sep >= 0 {
		exemplar = line[sep+3:]
		line = line[:sep]
	}
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd <= 0 {
		return "", nil, 0, "", fmt.Errorf("no metric name")
	}
	name := line[:nameEnd]
	rest := line[nameEnd:]
	var labels []Label
	if rest[0] == '{' {
		close := strings.IndexByte(rest, '}')
		if close < 0 {
			return "", nil, 0, "", fmt.Errorf("unterminated label set")
		}
		inner := rest[1:close]
		rest = rest[close+1:]
		for len(inner) > 0 {
			eq := strings.IndexByte(inner, '=')
			if eq <= 0 || eq+1 >= len(inner) || inner[eq+1] != '"' {
				return "", nil, 0, "", fmt.Errorf("malformed label pair")
			}
			lname := inner[:eq]
			// Scan the quoted value honoring escapes.
			i := eq + 2
			var val strings.Builder
			for i < len(inner) && inner[i] != '"' {
				if inner[i] == '\\' && i+1 < len(inner) {
					i++
					switch inner[i] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(inner[i])
					}
				} else {
					val.WriteByte(inner[i])
				}
				i++
			}
			if i >= len(inner) {
				return "", nil, 0, "", fmt.Errorf("unterminated label value")
			}
			labels = append(labels, Label{Name: lname, Value: val.String()})
			i++ // closing quote
			if i < len(inner) && inner[i] == ',' {
				i++
			}
			inner = inner[i:]
			i = 0
		}
	}
	rest = strings.TrimLeft(rest, " ")
	// A timestamp field may follow the value; this repo never emits
	// one, but the validator tolerates it per the format.
	valueField := rest
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		valueField = rest[:sp]
	}
	var v float64
	switch valueField {
	case "+Inf":
		v = math.Inf(1)
	case "-Inf":
		v = math.Inf(-1)
	case "NaN":
		v = math.NaN()
	default:
		var err error
		v, err = strconv.ParseFloat(valueField, 64)
		if err != nil {
			return "", nil, 0, "", fmt.Errorf("unparsable value %q", valueField)
		}
	}
	return name, labels, v, exemplar, nil
}

// validateExemplar checks the OpenMetrics-style exemplar section this
// repo emits — `{request_id="..."} <seconds>` — and returns the
// exemplar value.
func validateExemplar(ex string) (float64, error) {
	if len(ex) == 0 || ex[0] != '{' {
		return 0, fmt.Errorf("exemplar must start with a label set, got %q", ex)
	}
	close := strings.IndexByte(ex, '}')
	if close < 0 {
		return 0, fmt.Errorf("unterminated exemplar label set")
	}
	inner := ex[1:close]
	if !strings.HasPrefix(inner, `request_id="`) || !strings.HasSuffix(inner, `"`) {
		return 0, fmt.Errorf("exemplar labels must be request_id=\"...\", got %q", inner)
	}
	rest := strings.TrimLeft(ex[close+1:], " ")
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return 0, fmt.Errorf("unparsable exemplar value %q", rest)
	}
	return v, nil
}
