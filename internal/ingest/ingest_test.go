package ingest

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"viewstags/internal/alexa"
	"viewstags/internal/dist"
	"viewstags/internal/pipeline"
	"viewstags/internal/profilestore"
)

var (
	fixOnce sync.Once
	fixSnap *profilestore.Snapshot
	fixErr  error
)

func fixtureStore(t *testing.T) *profilestore.Store {
	t.Helper()
	fixOnce.Do(func() {
		res, err := pipeline.FromSynthetic(2000, 20110301, alexa.DefaultConfig())
		if err != nil {
			fixErr = err
			return
		}
		fixSnap, fixErr = profilestore.Build(res.Analysis)
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	st, err := profilestore.NewStore(fixSnap)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestAccumulateAndDrain(t *testing.T) {
	st := fixtureStore(t)
	snap := st.Load()
	a, err := NewAccumulator(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	br := snap.World().MustByCode("BR")
	us := snap.World().MustByCode("US")
	events := []Event{
		{Video: "v1", Tags: []string{"pop", "zz-new"}, Country: br, Views: 100, Upload: true},
		{Video: "v1", Tags: []string{"pop", "zz-new"}, Country: us, Views: 40},
		{Video: "v2", Tags: []string{"pop"}, Country: br, Views: 10, Upload: true},
		{Video: "v2", Tags: []string{"pop"}, Country: br, Views: 5, Upload: true}, // dup upload
	}
	if err := a.Add(events); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().Events; got != 4 {
		t.Fatalf("events = %d, want 4", got)
	}
	deltas, newRecords, released, _ := a.Drain()
	if released != 6 {
		t.Fatalf("drain released %d tag attributions, want 6", released)
	}
	if newRecords != 2 {
		t.Fatalf("newRecords = %d, want 2 (v1, v2 deduped)", newRecords)
	}
	byName := map[string]profilestore.TagDelta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	pop, ok := byName["pop"]
	if !ok {
		t.Fatal("no delta for pop")
	}
	if dist.Sum(pop.Views) != 155 || pop.Views[br] != 115 || pop.Views[us] != 40 {
		t.Fatalf("pop delta wrong: total=%v BR=%v US=%v", dist.Sum(pop.Views), pop.Views[br], pop.Views[us])
	}
	if pop.Videos != 2 {
		t.Fatalf("pop gained %d videos, want 2", pop.Videos)
	}
	if wantID, _ := snap.Lookup("pop"); pop.ID != wantID {
		t.Fatalf("pop id hint %d, want %d", pop.ID, wantID)
	}
	zz, ok := byName["zz-new"]
	if !ok {
		t.Fatal("no delta for zz-new")
	}
	if zz.ID != -1 {
		t.Fatalf("unknown tag got id hint %d", zz.ID)
	}
	if dist.Sum(zz.Views) != 140 || zz.Videos != 1 {
		t.Fatalf("zz-new delta wrong: %+v", zz)
	}

	// Drain resets: a second drain is empty.
	if d2, r2, e2, _ := a.Drain(); len(d2) != 0 || r2 != 0 || e2 != 0 {
		t.Fatalf("second drain not empty: %d deltas %d records %d events", len(d2), r2, e2)
	}
	// And the upload dedup set reset with it: v1 counts again next epoch.
	if err := a.Add([]Event{{Video: "v1", Tags: []string{"pop"}, Country: br, Views: 1, Upload: true}}); err != nil {
		t.Fatal(err)
	}
	if _, r3, _, _ := a.Drain(); r3 != 1 {
		t.Fatalf("post-drain upload not counted: %d", r3)
	}
}

func TestAddValidation(t *testing.T) {
	st := fixtureStore(t)
	a, err := NewAccumulator(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	nC := st.Load().World().N()
	cases := []struct {
		name string
		e    Event
	}{
		{"no tags", Event{Video: "v", Country: 0, Views: 1}},
		{"bad country", Event{Video: "v", Tags: []string{"t"}, Country: -1, Views: 1}},
		{"country past world", Event{Video: "v", Tags: []string{"t"}, Country: 999, Views: 1}},
		{"negative views", Event{Video: "v", Tags: []string{"t"}, Country: 0, Views: -1}},
		{"NaN views", Event{Video: "v", Tags: []string{"t"}, Country: 0, Views: math.NaN()}},
		{"infinite views", Event{Video: "v", Tags: []string{"t"}, Country: 0, Views: math.Inf(1)}},
		{"views above the bound", Event{Video: "v", Tags: []string{"t"}, Country: 0, Views: MaxEventViews * 2}},
		{"upload without video", Event{Tags: []string{"t"}, Country: 0, Views: 1, Upload: true}},
		{"empty tag string", Event{Video: "v", Tags: []string{"t", ""}, Country: 0, Views: 1}},
		{"too many tags", Event{Video: "v", Tags: make([]string, MaxEventTags+1), Country: 0, Views: 1}},
	}
	_ = nC
	for _, c := range cases {
		if err := a.Add([]Event{c.e}); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if err := a.Replay([]Event{c.e}, nil); err == nil {
			t.Errorf("%s: replayed", c.name)
		}
	}
	if got := a.Stats().Events; got != 0 {
		t.Fatalf("invalid events counted: %d", got)
	}
	if err := a.Add([]Event{{Video: "v", Tags: []string{"t"}, Country: 0, Views: MaxEventViews}}); err != nil {
		t.Errorf("views at the bound: %v", err)
	}
}

func TestBufferBackpressure(t *testing.T) {
	st := fixtureStore(t)
	a, err := NewAccumulator(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	ev := Event{Video: "v", Tags: []string{"t"}, Country: 0, Views: 1}
	if err := a.Add([]Event{ev, ev}); err != nil {
		t.Fatal(err)
	}
	if err := a.Add([]Event{ev}); err != ErrBufferFull {
		t.Fatalf("overflow add: %v, want ErrBufferFull", err)
	}
	if s := a.Stats(); s.Dropped != 1 || s.Pending != 2 {
		t.Fatalf("stats after overflow: %+v", s)
	}
	// Draining frees the buffer.
	a.Drain()
	if err := a.Add([]Event{ev}); err != nil {
		t.Fatalf("post-drain add rejected: %v", err)
	}
}

func TestCompactorFoldInstallsSnapshot(t *testing.T) {
	st := fixtureStore(t)
	base := st.Load()
	a, err := NewAccumulator(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	install := func(deltas []profilestore.TagDelta, newRecords int) error {
		next, err := profilestore.Rebuild(st.Load(), deltas, newRecords)
		if err != nil {
			return err
		}
		_, err = st.Swap(next)
		return err
	}
	c, err := NewCompactor(a, time.Hour, install, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Empty fold: no-op, no epoch advance, same snapshot.
	if folded, err := c.FoldNow(); err != nil || folded {
		t.Fatalf("empty fold: folded=%v err=%v", folded, err)
	}
	if a.Epoch() != 0 || st.Load() != base {
		t.Fatal("empty fold advanced state")
	}

	br := base.World().MustByCode("BR")
	if err := a.Add([]Event{{Video: "v9", Tags: []string{"zz-stream"}, Country: br, Views: 50, Upload: true}}); err != nil {
		t.Fatal(err)
	}
	if folded, err := c.FoldNow(); err != nil || !folded {
		t.Fatalf("fold: folded=%v err=%v", folded, err)
	}
	if a.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", a.Epoch())
	}
	now := st.Load()
	if now == base {
		t.Fatal("fold did not swap the snapshot")
	}
	id, ok := now.Lookup("zz-stream")
	if !ok {
		t.Fatal("ingested tag not served")
	}
	if p := now.Export().Profiles[id]; p.TotalViews != 50 || p.Videos != 1 {
		t.Fatalf("ingested profile %+v", p)
	}
	if now.Records() != base.Records()+1 {
		t.Fatalf("records %d, want %d", now.Records(), base.Records()+1)
	}
	if s := a.Stats(); s.LastTags != 1 || s.LastFoldMs < 0 {
		t.Fatalf("fold stats %+v", s)
	}
}

// TestCompactorRunFoldsOnIntervalAndShutdown exercises the background
// loop: events become visible without any explicit fold call, and a
// cancel flushes the tail.
func TestCompactorRunFoldsOnIntervalAndShutdown(t *testing.T) {
	st := fixtureStore(t)
	a, err := NewAccumulator(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	install := func(deltas []profilestore.TagDelta, newRecords int) error {
		next, err := profilestore.Rebuild(st.Load(), deltas, newRecords)
		if err != nil {
			return err
		}
		_, err = st.Swap(next)
		return err
	}
	c, err := NewCompactor(a, 5*time.Millisecond, install, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); c.Run(ctx) }()

	br := st.Load().World().MustByCode("BR")
	if err := a.Add([]Event{{Video: "va", Tags: []string{"zz-tick"}, Country: br, Views: 5, Upload: true}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for {
		if _, ok := st.Load().Lookup("zz-tick"); ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("interval fold never served the ingested tag")
		case <-time.After(time.Millisecond):
		}
	}

	// Tail flush: add, cancel immediately, expect visibility after Run
	// returns.
	if err := a.Add([]Event{{Video: "vb", Tags: []string{"zz-tail"}, Country: br, Views: 5, Upload: true}}); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done
	if _, ok := st.Load().Lookup("zz-tail"); !ok {
		t.Fatal("shutdown fold stranded accepted events")
	}
}

// TestConcurrentAddDrain is the accumulator's race check: many writers,
// a folding drainer, and totals must conserve.
func TestConcurrentAddDrain(t *testing.T) {
	st := fixtureStore(t)
	a, err := NewAccumulator(st, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_ = a.Add([]Event{{
					Video:   "vid",
					Tags:    []string{"zz-conc", "pop"},
					Country: 0,
					Views:   1,
				}})
			}
		}(w)
	}
	sum := func(deltas []profilestore.TagDelta) (total float64) {
		for _, d := range deltas {
			if d.Name == "zz-conc" {
				total += dist.Sum(d.Views)
			}
		}
		return total
	}
	stop := make(chan struct{})
	drained := make(chan float64)
	go func() {
		var total float64
		for {
			select {
			case <-stop:
				drained <- total
				return
			default:
			}
			deltas, _, _, _ := a.Drain()
			total += sum(deltas)
		}
	}()
	wg.Wait()
	close(stop)
	// Wait for the drainer to exit before the last Drain: deltas it has
	// taken out of the accumulator but not yet added are in neither tally.
	got := <-drained
	deltas, _, _, _ := a.Drain()
	got += sum(deltas)
	if got != writers*perWriter {
		t.Fatalf("conservation violated: drained %v views, wrote %v", got, writers*perWriter)
	}
}
