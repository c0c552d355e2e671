package dataset

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// writeJSONL streams records to w as one JSON object per line — the
// interchange format of cmd/crawl and cmd/analyze.
func writeJSONL(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			return fmt.Errorf("dataset: encode record %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("dataset: flush: %w", err)
	}
	return nil
}

// scanJSONL decodes a JSONL stream one record at a time and hands each to
// fn; it holds one line, not the file. Blank lines are skipped; a
// malformed line is an error (corrupted files should fail loudly, not
// silently shrink the dataset), and so is the first error fn returns.
func scanJSONL(r io.Reader, fn func(*Record) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(text, &rec); err != nil {
			return fmt.Errorf("dataset: line %d: %w", line, err)
		}
		if err := fn(&rec); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("dataset: scan: %w", err)
	}
	return nil
}

func collect(scan func(fn func(*Record) error) error) ([]Record, error) {
	var out []Record
	err := scan(func(rec *Record) error {
		out = append(out, *rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SaveFile writes records to path as JSONL, gzip-compressed when the
// path ends in ".gz".
func SaveFile(path string, records []Record) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("dataset: close %s: %w", path, cerr)
		}
	}()
	var w io.Writer = f
	if strings.HasSuffix(path, ".gz") {
		gz := gzip.NewWriter(f)
		defer func() {
			if cerr := gz.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("dataset: close gzip %s: %w", path, cerr)
			}
		}()
		w = gz
	}
	return writeJSONL(w, records)
}

// ScanFile streams a JSONL (optionally .gz) dataset file through fn (see
// scanJSONL).
func ScanFile(path string, fn func(*Record) error) (err error) {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("dataset: open %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("dataset: close %s: %w", path, cerr)
		}
	}()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, gerr := gzip.NewReader(f)
		if gerr != nil {
			return fmt.Errorf("dataset: gzip %s: %w", path, gerr)
		}
		defer func() {
			if cerr := gz.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("dataset: close gzip %s: %w", path, cerr)
			}
		}()
		r = gz
	}
	return scanJSONL(r, fn)
}

// LoadFile reads a JSONL (optionally .gz) dataset file.
func LoadFile(path string) ([]Record, error) {
	return collect(func(fn func(*Record) error) error { return ScanFile(path, fn) })
}
