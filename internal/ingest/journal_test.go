package ingest

import (
	"errors"
	"fmt"
	"io"
	"log"
	"testing"
	"time"

	"viewstags/internal/profilestore"
)

// recordingJournal captures appends and can be told to fail.
type recordingJournal struct {
	gens    []uint64
	events  int
	uploads int
	fail    error
}

func (j *recordingJournal) Append(gen uint64, events []Event, uploads []string) error {
	if j.fail != nil {
		return j.fail
	}
	j.gens = append(j.gens, gen)
	j.events += len(events)
	j.uploads += len(uploads)
	return nil
}

// TestJournalBeforeAck pins the durability ordering: every accepted
// batch reaches the journal (ack implies journaled), a failing journal
// rejects the batch whole (no partial application, charge released),
// and the journaled generation advances exactly with Drain.
func TestJournalBeforeAck(t *testing.T) {
	st := fixtureStore(t)
	a, err := NewAccumulator(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	j := &recordingJournal{}
	a.SetJournal(j)
	us := st.Load().World().MustByCode("US")

	if err := a.Add([]Event{{Video: "v1", Tags: []string{"zz-j"}, Country: us, Views: 1, Upload: true}}); err != nil {
		t.Fatal(err)
	}
	if len(j.gens) != 1 || j.gens[0] != 0 || j.events != 1 {
		t.Fatalf("journal saw %+v, want one gen-0 event batch", j)
	}
	if err := a.Add(nil, "bare"); err != nil {
		t.Fatal(err)
	}
	if len(j.gens) != 2 || j.gens[1] != 0 || j.uploads != 1 {
		t.Fatalf("journal saw %+v, want a gen-0 upload record", j)
	}

	if _, _, _, gen := a.Drain(); gen != 1 {
		t.Fatalf("first drain returned gen %d, want 1", gen)
	}
	if err := a.Add([]Event{{Tags: []string{"zz-j"}, Country: us, Views: 1}}); err != nil {
		t.Fatal(err)
	}
	if j.gens[len(j.gens)-1] != 1 {
		t.Fatalf("post-drain append journaled at gen %d, want 1", j.gens[len(j.gens)-1])
	}

	// A failing journal must reject the whole batch before application.
	j.fail = fmt.Errorf("disk full")
	err = a.Add([]Event{{Tags: []string{"zz-lost"}, Country: us, Views: 5}})
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("Add with failing journal returned %v, want ErrJournal", err)
	}
	if a.Stats().Pending != 1 {
		t.Fatalf("pending = %d after rejected batch, want 1 (the earlier accepted tag)", a.Stats().Pending)
	}
	deltas, _, _, _ := a.Drain()
	for _, d := range deltas {
		if d.Name == "zz-lost" {
			t.Fatal("rejected batch leaked into the drain")
		}
	}
	if !errors.Is(a.Add(nil, "also-lost"), ErrJournal) {
		t.Fatal("an announcement with a failing journal did not surface ErrJournal")
	}

	// A malformed batch must never reach the journal.
	j.fail = nil
	before := len(j.gens)
	if err := a.Add([]Event{{Tags: nil, Country: us, Views: 1}}); err == nil {
		t.Fatal("malformed batch accepted")
	}
	if len(j.gens) != before {
		t.Fatal("malformed batch was journaled")
	}
}

// TestReplayBypassesJournalAndBound pins the recovery path: Replay
// applies without re-journaling, ignores the buffer bound (acked events
// must all fit back), and Restore repositions gen and epoch.
func TestReplayBypassesJournalAndBound(t *testing.T) {
	st := fixtureStore(t)
	a, err := NewAccumulator(st, 2) // tiny bound
	if err != nil {
		t.Fatal(err)
	}
	j := &recordingJournal{}
	a.SetJournal(j)
	us := st.Load().World().MustByCode("US")

	events := []Event{
		{Video: "r1", Tags: []string{"zz-r", "zz-r2"}, Country: us, Views: 10, Upload: true},
		{Video: "r2", Tags: []string{"zz-r", "zz-r3"}, Country: us, Views: 5, Upload: true},
	}
	if err := a.Replay(events, []string{"r3"}); err != nil {
		t.Fatal(err)
	}
	if len(j.gens) != 0 {
		t.Fatal("Replay re-journaled records")
	}
	st2 := a.Stats()
	if st2.Replayed != 2 || st2.Events != 2 {
		t.Fatalf("stats after replay: %+v, want 2 replayed events", st2)
	}
	if st2.Pending != 4 {
		t.Fatalf("pending %d, want 4 (bound ignored during replay)", st2.Pending)
	}

	a.Restore(7, 3)
	if a.Epoch() != 3 {
		t.Fatalf("epoch %d after Restore, want 3", a.Epoch())
	}
	deltas, newRecords, released, gen := a.Drain()
	if gen != 8 {
		t.Fatalf("drain after Restore(7,·) returned gen %d, want 8", gen)
	}
	if newRecords != 3 {
		t.Fatalf("newRecords %d, want 3 (two upload events + one bare announcement)", newRecords)
	}
	if released != 4 {
		t.Fatalf("released %d, want 4", released)
	}
	names := map[string]bool{}
	for _, d := range deltas {
		names[d.Name] = true
	}
	for _, want := range []string{"zz-r", "zz-r2", "zz-r3"} {
		if !names[want] {
			t.Fatalf("replayed tag %q missing from drain (got %v)", want, names)
		}
	}
}

// TestCheckpointRefusedAfterInstallFailure pins the coverage-safety
// rule: once a fold install fails (its drained deltas lost from
// memory), no later checkpoint may run — it would label the lost
// generation covered and recovery would never replay it.
func TestCheckpointRefusedAfterInstallFailure(t *testing.T) {
	st := fixtureStore(t)
	a, err := NewAccumulator(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	us := st.Load().World().MustByCode("US")
	failNext := true
	install := func(d []profilestore.TagDelta, n int) error {
		if failNext {
			failNext = false
			return fmt.Errorf("injected install failure")
		}
		return nil
	}
	c, err := NewCompactor(a, time.Hour, install, log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	var checkpoints []uint64
	c.SetCheckpoint(func(gen uint64) error { checkpoints = append(checkpoints, gen); return nil }, 1)

	if err := a.Add([]Event{{Tags: []string{"zz-lost-gen"}, Country: us, Views: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FoldNow(); err == nil {
		t.Fatal("failed install did not surface")
	}
	if err := a.Add([]Event{{Tags: []string{"zz-later"}, Country: us, Views: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FoldNow(); err == nil {
		t.Fatal("post-failure fold did not refuse its cadence checkpoint")
	}
	if _, err := c.CheckpointNow(); err == nil {
		t.Fatal("CheckpointNow after an install failure did not refuse")
	}
	if len(checkpoints) != 0 {
		t.Fatalf("checkpoint ran %v despite the lost generation", checkpoints)
	}
}

// TestAddBatchIsOneRecord pins the merged write: a batch's events and
// announcements are journaled as one record and applied together, and a
// refusal of either half — a bad announcement, a failed append — leaves
// nothing of the other behind.
func TestAddBatchIsOneRecord(t *testing.T) {
	st := fixtureStore(t)
	a, err := NewAccumulator(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	j := &recordingJournal{}
	a.SetJournal(j)
	us := st.Load().World().MustByCode("US")
	ev := []Event{{Video: "m1", Tags: []string{"zz-m"}, Country: us, Views: 1, Upload: true}}

	if err := a.Add(ev, "m2"); err != nil {
		t.Fatal(err)
	}
	if len(j.gens) != 1 || j.events != 1 || j.uploads != 1 {
		t.Fatalf("journal saw %+v, want one record with one event and one upload", j)
	}
	if err := a.Add(ev, ""); err == nil {
		t.Fatal("batch with an empty announcement accepted")
	}
	j.fail = fmt.Errorf("disk full")
	if err := a.Add(ev, "m3"); !errors.Is(err, ErrJournal) {
		t.Fatalf("Add with failing journal returned %v, want ErrJournal", err)
	}
	if len(j.gens) != 1 {
		t.Fatalf("refused batches reached the journal: %+v", j)
	}
	if got := a.Stats(); got.Pending != 1 || got.Events != 1 {
		t.Fatalf("stats %+v after refusals, want only the first batch's 1 pending, 1 event", got)
	}
	if _, newRecords, _, _ := a.Drain(); newRecords != 2 {
		t.Fatalf("newRecords = %d, want 2 (m1, m2; nothing of the refused batches)", newRecords)
	}
}
