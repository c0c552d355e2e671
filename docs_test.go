// Documentation conformance tests: the API reference must cover every
// registered route, and every package must carry a doc comment. These
// run in the ordinary test suite, so CI's doc lint is just `go test`.
package viewstags_test

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"viewstags/internal/cluster"
	"viewstags/internal/server"
)

// policyTable renders a route table the way API.md's "Route policy"
// section prints it: one line per row, the policy bits spelled out.
func policyTable[D any](rows []server.Route[D]) string {
	word := func(set bool, yes, no string) string {
		if set {
			return yes
		}
		return no
	}
	var b strings.Builder
	b.WriteString("| path | method | limiter | traced | metric group | stream frame |\n|---|---|---|---|---|---|\n")
	for _, rt := range rows {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s |\n", rt.Path, rt.Method,
			word(rt.Policy&server.Unlimited != 0, "bypasses", "limited"),
			word(rt.Policy&server.Untraced != 0, "no", "yes"),
			word(rt.Policy&server.Unmetered != 0, "—", rt.Group.String()),
			word(rt.Policy&server.Streamable != 0, "yes", "no"))
	}
	return b.String()
}

// checkAPIDoc holds one daemon's route table against API.md: each
// registered path must appear in a markdown heading under the method its
// row takes, so a new endpoint cannot ship undocumented, and the "Route
// policy" table must be the rendering of the rows — the doc reads the
// same table the mux, the chain and the stream decoder do.
func checkAPIDoc[D any](t *testing.T, doc, owner string, rows []server.Route[D]) {
	t.Helper()
	if len(rows) == 0 {
		t.Fatalf("%s registers no routes", owner)
	}
	for _, rt := range rows {
		want, found := "`"+rt.Method+" "+rt.Path, false
		for _, line := range strings.Split(doc, "\n") {
			found = found || strings.HasPrefix(line, "#") && strings.Contains(line, want)
		}
		if !found {
			t.Errorf("route %s %s registered by %s but no API.md heading documents it under that method", rt.Method, rt.Path, owner)
		}
	}
	if table := policyTable(rows); !strings.Contains(doc, table) {
		t.Errorf("API.md's Route policy table for %s is not the code's; it should read:\n%s", owner, table)
	}
}

// TestAPIDocCoversEveryRoute holds both route tables — the daemon's
// (internal/server, public + shard-internal) and the cluster gateway's
// (internal/cluster) — against API.md.
func TestAPIDocCoversEveryRoute(t *testing.T) {
	raw, err := os.ReadFile("API.md")
	if err != nil {
		t.Fatalf("API.md missing: %v", err)
	}
	checkAPIDoc(t, string(raw), "internal/server", server.Routes())
	checkAPIDoc(t, string(raw), "internal/cluster (gateway)", cluster.GatewayRoutes())
}

// TestEveryPackageHasDocComment is the doc-comment lint: every package
// in the module (including cmd mains and examples) must open with a
// package-level doc comment on at least one of its files.
func TestEveryPackageHasDocComment(t *testing.T) {
	pkgDirs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			pkgDirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgDirs) < 10 {
		t.Fatalf("only %d package dirs found — walk broken?", len(pkgDirs))
	}
	for dir := range pkgDirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		documented := false
		var files []string
		fset := token.NewFileSet()
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			files = append(files, name)
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				t.Fatalf("%s/%s: %v", dir, name, err)
			}
			if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
				documented = true
				break
			}
		}
		if len(files) > 0 && !documented {
			t.Errorf("package %s has no package doc comment on any of %v", dir, files)
		}
	}
}

// printedFlags runs a daemon's -h and returns each flag it prints with
// the default it prints ("" when it prints none: a false bool, an empty
// string).
func printedFlags(t *testing.T, bin string) map[string]string {
	t.Helper()
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits 2
	flags := map[string]string{}
	var name string
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ = strings.Cut(rest, " ")
			flags[name] = ""
		} else if i := strings.LastIndex(line, " (default "); name != "" && i >= 0 && strings.HasSuffix(line, ")") {
			flags[name] = strings.Trim(line[i+len(" (default "):len(line)-1], `"`)
		}
	}
	if len(flags) == 0 {
		t.Fatalf("%s -h printed no flags:\n%s", bin, out)
	}
	return flags
}

// flagTable returns the rows of the first "| flag | default | meaning |"
// table after heading in doc: each row's flag (its first cell, one
// backticked -name) and its default cell, backticks dropped, with "—"
// and "off" read as no default.
func flagTable(t *testing.T, doc, heading string) [][2]string {
	t.Helper()
	_, after, ok := strings.Cut(doc, "\n"+heading+"\n")
	if !ok {
		t.Fatalf("OPERATIONS.md has no heading %q", heading)
	}
	_, table, ok := strings.Cut(after, "\n| flag | default | meaning |\n|---|---|---|\n")
	if !ok {
		t.Fatalf("no flag table under %q", heading)
	}
	var rows [][2]string
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, " | ")
		if !strings.HasPrefix(line, "| ") || len(cells) < 3 {
			break
		}
		flag := strings.Trim(strings.TrimPrefix(cells[0], "| "), "`")
		def := strings.ReplaceAll(cells[1], "`", "")
		if def == "—" || def == "off" {
			def = ""
		}
		rows = append(rows, [2]string{flag, def})
	}
	return rows
}

// TestFlagTablesMatchBinaries holds OPERATIONS.md's flag tables against
// the daemons: exactly one row per flag each binary's -h prints, with
// the default it prints, and no row for a flag it does not have.
func TestFlagTablesMatchBinaries(t *testing.T) {
	raw, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct{ bin, heading string }{
		{"serve", "## Starting the daemon"},
		{"gateway", "### Gateway flags"},
	} {
		flags := printedFlags(t, daemonBinary(t, d.bin))
		seen := map[string]int{}
		for _, row := range flagTable(t, string(raw), d.heading) {
			name := strings.TrimPrefix(row[0], "-")
			seen[name]++
			if def, ok := flags[name]; !ok {
				t.Errorf("%s table: row for %s, which %s -h does not print", d.bin, row[0], d.bin)
			} else if row[1] != def {
				t.Errorf("%s table: %s default %q, %s -h prints %q", d.bin, row[0], row[1], d.bin, def)
			}
		}
		for name := range flags {
			if seen[name] != 1 {
				t.Errorf("%s table: %d rows for -%s, want exactly one", d.bin, seen[name], name)
			}
		}
	}
}
