package ingest

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"viewstags/internal/obs"
	"viewstags/internal/profilestore"
)

// InstallFunc folds a drained epoch's deltas into the current serving
// snapshot and installs the result atomically. internal/server's
// ApplyDeltas is the canonical implementation — the same install path
// every snapshot takes, so preload advisories cannot drift from it.
type InstallFunc func(deltas []profilestore.TagDelta, newRecords int) error

// CheckpointFunc persists the currently served snapshot as covering
// every journaled record with generation < gen — internal/persist's
// checkpoint save (write, fsync, atomic rename, prune obsolete WAL
// segments) is the canonical implementation. The compactor only ever
// calls it directly after an install, under the fold lock, so the
// snapshot on the store is exactly the one the generation describes.
type CheckpointFunc func(gen uint64) error

// Compactor drives the epoch loop: every interval it drains the
// accumulator and hands the deltas to the installer; each successful
// install advances the accumulator's epoch. Empty epochs are skipped,
// so a quiet stream causes no snapshot churn. With a checkpoint hook
// attached it also persists the snapshot every few folds and once more
// at shutdown, so a clean stop leaves nothing to replay.
type Compactor struct {
	acc      *Accumulator
	interval time.Duration
	install  InstallFunc
	logger   *log.Logger

	// mu serializes folds and checkpoints: the ticker loop, the
	// shutdown flush and the admin checkpoint route may all call in
	// concurrently, and a checkpoint must persist the snapshot of the
	// drain generation it is labeled with — a fold slipping in between
	// would make the label a lie and recovery double-apply.
	mu         sync.Mutex
	checkpoint CheckpointFunc
	ckptEvery  int
	sinceCkpt  int
	// traces, when set, records each non-empty fold as a "bg/fold"
	// trace (drain/install/checkpoint child spans) in the node's
	// tail-sampled ring — the background twin of request tracing, so a
	// flight-recorder dump shows what the fold loop was doing too.
	traces *obs.TraceStore
	// broken is set when a fold install fails: the drained deltas are
	// gone from the in-memory snapshot, so any LATER checkpoint would
	// claim to cover their generation while missing their data — and
	// recovery would never replay them. Once broken, checkpointing is
	// refused for the life of the process; the journal retains every
	// record since the last good checkpoint, and a restart rebuilds the
	// true state from checkpoint + full replay.
	broken bool
}

// NewCompactor wires a compactor. interval <= 0 selects the default of
// 3s; a nil logger uses the standard one.
func NewCompactor(acc *Accumulator, interval time.Duration, install InstallFunc, logger *log.Logger) (*Compactor, error) {
	if acc == nil {
		return nil, fmt.Errorf("ingest: nil accumulator")
	}
	if install == nil {
		return nil, fmt.Errorf("ingest: nil install func")
	}
	if interval <= 0 {
		interval = 3 * time.Second
	}
	if logger == nil {
		logger = log.Default()
	}
	return &Compactor{acc: acc, interval: interval, install: install, logger: logger}, nil
}

// SetCheckpoint attaches the persistence hook: fn runs after every
// everyFolds successful installs (everyFolds <= 0: only at shutdown or
// on CheckpointNow) and on the shutdown flush. Call before Run.
func (c *Compactor) SetCheckpoint(fn CheckpointFunc, everyFolds int) {
	c.mu.Lock()
	c.checkpoint = fn
	c.ckptEvery = everyFolds
	c.mu.Unlock()
}

// SetTraceStore attaches the tail-sampled trace ring fold traces are
// offered to. Call before Run.
func (c *Compactor) SetTraceStore(ts *obs.TraceStore) {
	c.mu.Lock()
	c.traces = ts
	c.mu.Unlock()
}

// FoldNow drains and installs one epoch synchronously, checkpointing if
// the cadence is due. It reports whether a fold happened (false:
// nothing pending). Exposed for tests and for operators that want a
// fold on demand (e.g. before a drain).
func (c *Compactor) FoldNow() (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.foldLocked(false)
}

// CheckpointNow folds and then checkpoints unconditionally (when a
// checkpoint hook is attached) — the admin /v1/checkpoint route, the
// recovery boot path and the shutdown flush. It reports whether a fold
// happened; the checkpoint runs either way, so even a quiet stream gets
// its WAL bounded.
func (c *Compactor) CheckpointNow() (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.foldLocked(true)
}

func (c *Compactor) foldLocked(forceCkpt bool) (bool, error) {
	begin := time.Now()
	deltas, newRecords, _, gen := c.acc.Drain()
	drainDur := time.Since(begin)
	// Background trace: non-empty folds record a "bg/fold" trace so the
	// flight recorder can show a fold competing with the requests it ran
	// beside. tr stays nil for empty epochs and when tracing is off —
	// Trace.Add is nil-safe, endTrace a no-op.
	var tr *obs.Trace
	endTrace := func(status int) {
		if tr != nil {
			tr.End(status, false, time.Since(begin))
			c.traces.Offer(tr)
		}
	}
	folded := false
	if len(deltas) > 0 || newRecords > 0 {
		if c.traces != nil {
			tr = obs.GetTrace(obs.NewRequestID(), "bg/fold", begin)
			tr.Add("drain", obs.NoShard, begin, drainDur, "")
		}
		start := time.Now()
		if err := c.install(deltas, newRecords); err != nil {
			// The drained deltas are lost from memory — but not from the
			// journal, when one is attached: recovery replays them. This
			// only fires on programming errors (shape mismatches), not
			// load. Checkpointing is disabled from here on (see broken):
			// a later checkpoint would mark this generation covered
			// without its data in the snapshot, silently dropping acked
			// records from every future recovery.
			tr.Add("install", obs.NoShard, start, time.Since(start), "error")
			endTrace(500)
			if c.checkpoint != nil && !c.broken {
				c.broken = true
				c.logger.Printf("ingest: checkpointing disabled after a failed fold install; the journal retains the records — restart to recover")
			}
			return false, fmt.Errorf("ingest: fold install: %w", err)
		}
		tr.Add("install", obs.NoShard, start, time.Since(start), "")
		c.acc.noteFold(time.Since(start), len(deltas))
		folded = true
		c.sinceCkpt++
	}
	if c.checkpoint != nil && (forceCkpt || (folded && c.ckptEvery > 0 && c.sinceCkpt >= c.ckptEvery)) {
		if c.broken {
			endTrace(500)
			return folded, fmt.Errorf("ingest: checkpointing disabled after an earlier fold-install failure; restart to recover from the journal")
		}
		ckStart := time.Now()
		if err := c.checkpoint(gen); err != nil {
			// The fold itself succeeded; the WAL simply stays longer.
			tr.Add("checkpoint", obs.NoShard, ckStart, time.Since(ckStart), "error")
			endTrace(500)
			return folded, fmt.Errorf("ingest: checkpoint: %w", err)
		}
		tr.Add("checkpoint", obs.NoShard, ckStart, time.Since(ckStart), "")
		c.sinceCkpt = 0
	}
	endTrace(200)
	return folded, nil
}

// Run folds every interval until ctx is canceled, then performs one
// final fold-and-checkpoint so a graceful shutdown doesn't strand
// accepted events: everything acked is either checkpointed or still in
// the journal when the process exits. Install errors are logged, not
// fatal: one bad epoch must not stop the stream.
func (c *Compactor) Run(ctx context.Context) {
	tick := time.NewTicker(c.interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			if _, err := c.CheckpointNow(); err != nil {
				c.logger.Printf("%v", err)
			}
			return
		case <-tick.C:
			if _, err := c.FoldNow(); err != nil {
				c.logger.Printf("%v", err)
			}
		}
	}
}
