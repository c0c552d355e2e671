// Line ledger at repository scope: the non-test Go lines of every
// package of both modules (this one and bench/), pinned in
// testdata/lines.txt so that a change's diff shows its own line delta
// per package. After a change, rewrite the file with
//
//	go test -run TestLineLedgerPinned -update .
package viewstags_test

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// lineLedger counts the lines of the non-test .go files under root, per
// package import path. Hidden directories and testdata are not source.
func lineLedger(root string) (string, error) {
	lines := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := "viewstags"
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		lines[pkg] += bytes.Count(src, []byte("\n"))
		return nil
	})
	pkgs := make([]string, 0, len(lines))
	for p := range lines {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	var b strings.Builder
	for _, p := range pkgs {
		fmt.Fprintf(&b, "%s %d\n", p, lines[p])
	}
	return b.String(), err
}

func TestLineLedgerPinned(t *testing.T) {
	got, err := lineLedger(".")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "lines.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s is stale; run `go test -run TestLineLedgerPinned -update .` and commit the diff\ngot:\n%s", path, got)
	}
}
