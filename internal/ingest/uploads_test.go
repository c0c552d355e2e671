package ingest

import (
	"fmt"
	"sync"
	"testing"
)

// TestAddUploads pins the records-only announcement path the cluster
// tier routes through (Add's uploads): video ids count once per epoch toward Drain's
// newRecords, dedupe against upload-flagged events, touch no tag delta,
// and charge nothing against the attribution buffer.
func TestAddUploads(t *testing.T) {
	st := fixtureStore(t)
	a, err := NewAccumulator(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	br := st.Load().World().MustByCode("BR")

	if err := a.Add(nil, "u1", "u2", "u1"); err != nil {
		t.Fatal(err)
	}
	// Same video via the event path: still one record.
	if err := a.Add([]Event{{Video: "u2", Tags: []string{"pop"}, Country: br, Views: 5, Upload: true}}); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().Pending; got != 1 {
		t.Fatalf("pending = %d, want 1 (announcements must not charge the buffer)", got)
	}

	deltas, newRecords, _, _ := a.Drain()
	if newRecords != 2 {
		t.Fatalf("newRecords = %d, want 2 (u1 + u2, deduped across both paths)", newRecords)
	}
	if len(deltas) != 1 || deltas[0].Name != "pop" {
		t.Fatalf("deltas %v, want only the event-path pop delta", deltas)
	}
	// Note the cross-path dedup order dependency: u2 was announced
	// before its upload event, so the event found the video already
	// counted and did not bump pop's document frequency. That mirrors
	// the single-node per-epoch dedup (second Upload of a video never
	// bumps df) — a gateway never sends both paths for one video in one
	// batch anyway.
	if deltas[0].Videos != 0 {
		t.Fatalf("pop df increment = %d, want 0 (video already announced this epoch)", deltas[0].Videos)
	}

	// Epoch reset: the same ids announce again after a drain.
	if err := a.Add(nil, "u1"); err != nil {
		t.Fatal(err)
	}
	if _, newRecords, _, _ := a.Drain(); newRecords != 1 {
		t.Fatalf("post-drain newRecords = %d, want 1", newRecords)
	}
}

func TestAddUploadsRejectsEmptyID(t *testing.T) {
	st := fixtureStore(t)
	a, err := NewAccumulator(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Add(nil, "ok", ""); err == nil {
		t.Fatal("empty video id accepted")
	}
	// All-or-nothing: the valid id must not have been registered.
	if _, newRecords, _, _ := a.Drain(); newRecords != 0 {
		t.Fatalf("newRecords = %d after rejected batch, want 0", newRecords)
	}
}

// TestAddUploadsConcurrent exercises announcements racing event-path
// uploads and drains (run under -race in CI's soak step): counts must
// land exactly once per distinct video per epoch regardless of
// interleaving.
func TestAddUploadsConcurrent(t *testing.T) {
	st := fixtureStore(t)
	a, err := NewAccumulator(st, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	br := st.Load().World().MustByCode("BR")
	const workers, vids = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := 0; v < vids; v++ {
				id := fmt.Sprintf("vid-%d", v)
				if w%2 == 0 {
					if err := a.Add(nil, id); err != nil {
						t.Errorf("Add(nil, %q): %v", id, err)
						return
					}
				} else if err := a.Add([]Event{{Video: id, Tags: []string{"pop"}, Country: br, Views: 1, Upload: true}}); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	_, newRecords, _, _ := a.Drain()
	if newRecords != vids {
		t.Fatalf("newRecords = %d, want %d (every video exactly once)", newRecords, vids)
	}
}
