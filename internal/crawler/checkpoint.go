package crawler

import (
	"encoding/json"
	"fmt"
	"os"

	"viewstags/internal/dataset"
)

// Checkpoint is a resumable crawl state: everything the coordinator
// needs to continue a crawl after a crash.
type Checkpoint struct {
	Records []dataset.Record `json:"records"`
	// Depths are the records' snowball waves, parallel to Records.
	Depths   []int    `json:"depths"`
	Seen     []string `json:"seen"`
	Frontier []string `json:"frontier"`
	// FrontierDepths are the frontier entries' waves, parallel to
	// Frontier.
	FrontierDepths []int `json:"frontier_depths"`
	Stats          Stats `json:"stats"`
}

// saveCheckpoint writes cp to path atomically (write temp + rename), so
// a crash mid-write never corrupts the previous checkpoint.
func saveCheckpoint(path string, cp *Checkpoint) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("crawler: checkpoint create: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(cp); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("crawler: checkpoint encode: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("crawler: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("crawler: checkpoint rename: %w", err)
	}
	return nil
}

// loadCheckpoint reads a checkpoint written by saveCheckpoint.
func loadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("crawler: checkpoint open: %w", err)
	}
	defer func() { _ = f.Close() }()
	var cp Checkpoint
	if err := json.NewDecoder(f).Decode(&cp); err != nil {
		return nil, fmt.Errorf("crawler: checkpoint decode: %w", err)
	}
	return &cp, nil
}

// checkpoint snapshots the coordinator state. Failures are swallowed on
// purpose: a failed periodic checkpoint must not abort a healthy crawl
// (the next one will try again).
func (c *Crawler) checkpoint(res *Result, seen map[string]bool, queue []job) {
	cp := &Checkpoint{
		Records: res.Records,
		Depths:  res.Depths,
		Stats:   res.Stats,
	}
	for _, j := range queue {
		cp.Frontier = append(cp.Frontier, j.id)
		cp.FrontierDepths = append(cp.FrontierDepths, j.depth)
	}
	cp.Seen = make([]string, 0, len(seen))
	for id := range seen {
		cp.Seen = append(cp.Seen, id)
	}
	_ = saveCheckpoint(c.cfg.CheckpointPath, cp)
}
