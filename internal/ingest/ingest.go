// Package ingest is the streaming write path of the serving layer: it
// turns a continuous stream of per-video view events into the periodic
// immutable snapshot swaps internal/profilestore readers already
// understand, so tag profiles track live upload and viewing activity
// instead of waiting for an offline batch rebuild.
//
// The design splits the write path in two, mirroring an LSM memtable:
//
//   - An Accumulator absorbs events at request rate into sharded
//     mutable per-tag delta counters (one mutex per shard, tag ids
//     interned against the live profilestore snapshot so repeat tags
//     stay cheap). Readers of the serving store never see — or wait
//     on — any of this state.
//
//   - A Compactor periodically drains the accumulated deltas, folds
//     them into a fresh snapshot via profilestore.Rebuild
//     (copy-on-write: untouched tags share vectors with the base), and
//     installs the result through the same atomic swap a batch reload
//     uses. Each successful fold advances the accumulator's epoch.
//
// Backpressure is explicit: the accumulator bounds the events buffered
// between folds, and Add fails fast with ErrBufferFull once the bound
// is hit — the HTTP layer translates that into 503 + Retry-After, the
// same crisp overload behavior as the concurrency limiter.
//
// Durability is an optional hook: with a Journal attached (normally
// internal/persist's write-ahead log), Add appends every batch before
// applying it, so an ack implies the events are on disk; Drain stamps
// each epoch with a monotonic generation that tells recovery exactly
// which journal records a checkpoint covers, and Replay re-applies the
// uncovered tail at boot.
package ingest

import (
	"errors"
	"fmt"
	"hash/maphash"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"viewstags/internal/bincodec"
	"viewstags/internal/geo"
	"viewstags/internal/obs"
	"viewstags/internal/profilestore"
	"viewstags/internal/tagviews"
)

// numShards must stay a power of two so the hash→shard map is a mask.
const numShards = 16

// MaxEventTags bounds the tags one event may carry. Each distinct tag
// allocates a per-country vector in the accumulator and, once folded, a
// permanent profile in every subsequent snapshot — so tag count, not
// event count, is what drives memory, and an event is not allowed to
// smuggle an unbounded vocabulary past the batch limits.
const MaxEventTags = 64

// TooManyTags is Validate's error for event i carrying n > MaxEventTags
// tags, which the HTTP edge also answers before decoding such a list.
func TooManyTags(i, n int) error {
	return fmt.Errorf("ingest: event %d has %d tags, limit %d", i, n, MaxEventTags)
}

// MaxEventViews bounds one event's views, far above any real video's
// total, so no feasible number of events sums a tag past float64 to +Inf.
// It guards overflow, not exactness: nine events at the bound pass the
// 2⁵³ units below which a sum is exact (tagviews.ViewUnit).
const MaxEventViews = 1e12

// ErrBufferFull is returned by Add when the accumulator already holds
// the configured maximum of unfolded tag attributions (Σ len(Tags)
// over buffered events — the quantity that actually bounds memory).
// Callers should shed load (HTTP: 503 + Retry-After) and retry after
// the next fold.
var ErrBufferFull = errors.New("ingest: delta buffer full, retry after next fold")

// ErrJournal wraps a journal append failure: the batch was NOT applied
// (ack implies journaled, so an unjournalable batch must be rejected
// whole). The HTTP layer maps it to 503 — the likely cause is a full or
// failing disk, which load shedding, not a 400, describes.
var ErrJournal = errors.New("ingest: journal append failed")

// Journal persists an accepted batch before it is acknowledged — the
// durability hook internal/persist implements with its write-ahead log.
// Append is called with the accumulator's current drain generation
// under a lock that excludes Drain, so every journaled record belongs
// to exactly one fold: records appended at generation g are drained
// precisely by the drain that returns g+1. A checkpoint taken after
// that drain therefore covers every record with generation < g+1, and
// recovery replays the rest.
type Journal interface {
	Append(gen uint64, events []Event, uploads []string) error
}

// Event is one view-stream observation: Views additional views of video
// Video, watched from Country, attributed to the video's Tags. Upload
// marks the first observation of a freshly uploaded video; it bumps the
// training-corpus size (the IDF numerator) and each tag's
// document-frequency count, deduplicated per epoch by video id — so an
// Upload event must carry a Video id (Add rejects it otherwise).
type Event struct {
	Video   string
	Tags    []string
	Country geo.CountryID
	Views   float64
	Upload  bool
}

// A batch's binary encoding, written on internal/bincodec's primitives
// (str is a uvarint length and the bytes):
//
//	nEvents uvarint
//	  ( video str | nTags uvarint ( tag str )* | country uvarint
//	    | views f64 | upload u8 )*
//	| nUploads uvarint ( video str )*
//
// It is the body of a WAL record (internal/persist adds the frame, the
// CRC and the generation) and of a shard's /internal/ingest request, so
// both are written and read by the two functions below.

// maxStrLen bounds one decoded video id or tag: a corrupt length is an
// error, not an allocation the size of the corruption.
const maxStrLen = 1 << 20

// minEventLen is the fewest bytes an encoded event takes: an empty video
// id, no tags, a one-byte country, the views and the upload flag.
const minEventLen = 1 + 1 + 1 + 8 + 1

// AppendBatch appends the encoding of a batch — its events, then its
// bare upload announcements — to w.
func AppendBatch(w *bincodec.Writer, events []Event, uploads []string) {
	w.Uvarint(uint64(len(events)))
	for i := range events {
		e := &events[i]
		w.Str(e.Video)
		w.Uvarint(uint64(len(e.Tags)))
		for _, t := range e.Tags {
			w.Str(t)
		}
		w.Uvarint(uint64(e.Country))
		w.F64(e.Views)
		if e.Upload {
			w.U8(1)
		} else {
			w.U8(0)
		}
	}
	w.Uvarint(uint64(len(uploads)))
	for _, v := range uploads {
		w.Str(v)
	}
}

// ReadBatch reads a batch AppendBatch wrote, refusing an event or upload
// count above max, or an event's tag count above MaxEventTags, before
// allocating it. Otherwise it checks the encoding, not the event
// contract (Validate's). Errors are r's: check r.Err or r.End.
func ReadBatch(r *bincodec.Reader, max int) ([]Event, []string) {
	events := make([]Event, r.Count("event", max, minEventLen))
	for i := range events {
		e := &events[i]
		e.Video = r.Str(maxStrLen)
		e.Tags = make([]string, r.Count("tag", MaxEventTags, 1))
		for j := range e.Tags {
			e.Tags[j] = r.Str(maxStrLen)
		}
		e.Country = geo.CountryID(r.Uvarint())
		e.Views = r.F64()
		// One spelling per value, as for a varint: whatever decodes
		// re-encodes to the same bytes.
		switch flag := r.U8(); flag {
		case 0, 1:
			e.Upload = flag == 1
		default:
			r.Fail(fmt.Errorf("ingest: event %d upload flag %d", i, flag))
		}
	}
	uploads := make([]string, r.Count("upload", max, 1))
	for i := range uploads {
		uploads[i] = r.Str(maxStrLen)
	}
	return events, uploads
}

// tagAcc is one tag's unfolded delta.
type tagAcc struct {
	id     int32     // interning hint into the snapshot current at first touch
	views  []float64 // Σ of the events' views, each rounded (tagviews.RoundViews)
	videos int
}

// shard is one mutex-guarded slice of the delta map. Tags and upload
// video ids hash to shards independently.
type shard struct {
	mu      sync.Mutex
	tags    map[string]*tagAcc
	uploads map[string]bool // video ids counted as new records this epoch
}

// Stats is a point-in-time summary of the accumulator, surfaced by the
// server's /v1/stats and /healthz, and by /metrics as its prom tags.
type Stats struct {
	Epoch   uint64 `json:"epoch" prom:"viewstags_ingest_epoch,gauge" help:"Completed snapshot folds."`
	Events  int64  `json:"events" prom:"viewstags_ingest_events_total,counter" help:"View events accepted since start."`
	Dropped int64  `json:"dropped" prom:"viewstags_ingest_dropped_total,counter" help:"View events rejected by backpressure."`
	// Pending counts buffered tag attributions (Σ len(Tags) over events
	// awaiting the next fold) — the unit the buffer bound is in.
	Pending    int64   `json:"pending" prom:"viewstags_ingest_pending,gauge" help:"Buffered tag attributions awaiting the next fold (the -ingest-buffer unit)."`
	LastFoldMs float64 `json:"last_fold_ms"`
	LastTags   int64   `json:"last_fold_tags"` // tags touched by the last fold
	// Replayed counts events re-applied from the journal at recovery;
	// they are included in Events.
	Replayed int64 `json:"replayed,omitempty"`
}

// Accumulator absorbs events between folds. All methods are safe for
// concurrent use.
type Accumulator struct {
	store  *profilestore.Store
	nC     int
	buffer int64
	seed   maphash.Seed
	shards [numShards]shard

	pending  atomic.Int64
	events   atomic.Int64
	dropped  atomic.Int64
	replayed atomic.Int64
	epoch    atomic.Uint64

	lastFoldNs atomic.Int64
	lastTags   atomic.Int64
	// foldHist distributes fold wall times for GET /metrics; the
	// LastFoldMs stat keeps the most recent one for /v1/stats.
	foldHist obs.Histogram

	// foldMu fences writes against drains: Add holds it shared around
	// journal-then-apply, Drain holds it exclusively — so no batch ever
	// straddles a drain boundary, and every journaled record's
	// generation maps it to exactly one fold. gen is the drain
	// generation, guarded by foldMu.
	foldMu  sync.RWMutex
	gen     uint64
	journal Journal
}

// NewAccumulator sizes an accumulator against the store it will fold
// into. buffer bounds the unfolded tag attributions (Σ len(Tags)) held
// between folds; <= 0 selects the default of 1<<20.
func NewAccumulator(store *profilestore.Store, buffer int) (*Accumulator, error) {
	if store == nil {
		return nil, fmt.Errorf("ingest: nil store")
	}
	if buffer <= 0 {
		buffer = 1 << 20
	}
	a := &Accumulator{
		store:  store,
		nC:     store.Load().World().N(),
		buffer: int64(buffer),
		seed:   maphash.MakeSeed(),
	}
	for i := range a.shards {
		a.shards[i].tags = make(map[string]*tagAcc)
		a.shards[i].uploads = make(map[string]bool)
	}
	return a, nil
}

func (a *Accumulator) shardOf(s string) *shard {
	return &a.shards[maphash.String(a.seed, s)&(numShards-1)]
}

// SetJournal attaches the durability hook: every subsequently accepted
// batch is appended to j before it is applied (and so before it is
// acked). Call during startup, after any recovery replay and before
// serving traffic — replayed batches are already journaled and must not
// be re-appended.
func (a *Accumulator) SetJournal(j Journal) {
	a.foldMu.Lock()
	a.journal = j
	a.foldMu.Unlock()
}

// Restore positions the accumulator's counters after a recovery: gen is
// the next drain generation (past every journaled record that the
// checkpoint covers or the replay re-applied), epoch the fold count the
// checkpoint recorded — so a recovered node rejoins reporting the epoch
// it had actually reached, rather than restarting from zero. Call
// before serving traffic.
func (a *Accumulator) Restore(gen, epoch uint64) {
	a.foldMu.Lock()
	a.gen = gen
	a.foldMu.Unlock()
	a.epoch.Store(epoch)
}

// Validate checks a batch against the event contract for a world of
// nCountries and returns its buffered-attribution charge. It is the
// single validation layer for event semantics: Add and Replay run it,
// the HTTP handlers only resolve country codes, and the cluster gateway
// calls it before dispatching so an all-or-nothing batch is refused at
// the edge with the shard's own verdict.
func Validate(events []Event, nCountries int) (int64, error) {
	charge := int64(0) // tag attributions this batch will buffer
	for i := range events {
		e := &events[i]
		if len(e.Tags) == 0 {
			return 0, fmt.Errorf("ingest: event %d has no tags", i)
		}
		if len(e.Tags) > MaxEventTags {
			return 0, TooManyTags(i, len(e.Tags))
		}
		for _, tag := range e.Tags {
			if tag == "" {
				return 0, fmt.Errorf("ingest: event %d has an empty tag", i)
			}
		}
		if int(e.Country) < 0 || int(e.Country) >= nCountries {
			return 0, fmt.Errorf("ingest: event %d country %d out of range", i, int(e.Country))
		}
		if e.Views < 0 {
			return 0, fmt.Errorf("ingest: event %d has negative views", i)
		}
		if !(e.Views <= MaxEventViews) { // NaN fails too
			return 0, fmt.Errorf("ingest: event %d has views %v, want at most %g", i, e.Views, float64(MaxEventViews))
		}
		if e.Upload && e.Video == "" {
			return 0, fmt.Errorf("ingest: event %d is an upload without a video id", i)
		}
		charge += int64(len(e.Tags))
	}
	return charge, nil
}

// validate checks both halves of a batch: the event contract
// (Validate) and a video id on every upload announcement. It returns the
// buffered-attribution charge.
func (a *Accumulator) validate(events []Event, uploads []string) (int64, error) {
	charge, err := Validate(events, a.nC)
	if err != nil {
		return 0, err
	}
	for i, v := range uploads {
		if v == "" {
			return 0, fmt.Errorf("ingest: upload %d has no video id", i)
		}
	}
	return charge, nil
}

// apply folds a validated batch into the shard delta maps, each event's
// views rounded first (tagviews.RoundViews).
func (a *Accumulator) apply(events []Event, uploads []string) {
	snap := a.store.Load()
	for i := range events {
		e := &events[i]
		newUpload := e.Upload && a.announce(e.Video)
		views := tagviews.RoundViews(e.Views)
		for _, tag := range e.Tags {
			sh := a.shardOf(tag)
			sh.mu.Lock()
			acc := sh.tags[tag]
			if acc == nil {
				acc = &tagAcc{id: -1, views: make([]float64, a.nC)}
				// Interning hint: resolve once against the snapshot
				// current at first touch; Rebuild revalidates it.
				if id, ok := snap.Lookup(tag); ok {
					acc.id = id
				}
				// The key outlives the batch (Drain hands it to Rebuild,
				// which keeps a novel tag's name for good), and a decoded
				// string may be a substring of its request body: clone,
				// or one tag pins its whole body.
				sh.tags[strings.Clone(tag)] = acc
			}
			acc.views[e.Country] += views
			if newUpload {
				acc.videos++
			}
			sh.mu.Unlock()
		}
	}
	for _, v := range uploads {
		a.announce(v)
	}
	a.events.Add(int64(len(events)))
}

// announce counts video toward this epoch's training-corpus increment
// (Drain's newRecords) and reports whether it is new this epoch.
func (a *Accumulator) announce(video string) bool {
	vs := a.shardOf(video)
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if vs.uploads[video] {
		return false
	}
	vs.uploads[strings.Clone(video)] = true
	return true
}

// Add validates, journals (when a journal is attached) and absorbs a
// batch, all-or-nothing: a malformed event or announcement, a buffer
// overflow or a failed journal append rejects the whole batch before
// any of it is applied, and an accepted batch is one journal record. A
// nil-error return therefore means the batch is both visible to the
// next fold and durable.
//
// uploads are bare upload announcements: video ids that count once per
// fold epoch toward the training-corpus increment without touching any
// tag's delta. They are the cluster tier's record-replication path —
// the corpus size is global, so a shard that owns none of a fresh
// upload's tags still has to learn the corpus grew, or its IDF weights
// would drift from its peers'. A video already counted this epoch (as
// an announcement or an Upload event) is a no-op, and an announcement
// charges nothing against the buffer: it is one map entry, not a
// per-country vector.
func (a *Accumulator) Add(events []Event, uploads ...string) error {
	charge, err := a.validate(events, uploads)
	if err != nil {
		return err
	}
	if n := a.pending.Add(charge); n > a.buffer {
		a.pending.Add(-charge)
		a.dropped.Add(int64(len(events)))
		return ErrBufferFull
	}
	a.foldMu.RLock()
	if a.journal != nil {
		if err := a.journal.Append(a.gen, events, uploads); err != nil {
			a.foldMu.RUnlock()
			a.pending.Add(-charge)
			a.dropped.Add(int64(len(events)))
			return fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	a.apply(events, uploads)
	a.foldMu.RUnlock()
	return nil
}

// Replay re-applies a journaled batch during recovery: same validation
// and apply path as Add, but no journaling (the record is already on
// disk) and no buffer bound (everything acked before the crash must be
// accepted back, even if the configured buffer shrank). Call before
// serving traffic; the replayed events sit in the buffer until the
// recovery fold drains them.
func (a *Accumulator) Replay(events []Event, uploads []string) error {
	charge, err := a.validate(events, uploads)
	if err != nil {
		return err
	}
	a.pending.Add(charge)
	a.apply(events, uploads)
	a.replayed.Add(int64(len(events)))
	return nil
}

// Drain atomically takes everything accumulated since the last drain
// and resets the buffer: the per-tag deltas (in unspecified order), the
// number of distinct freshly uploaded videos, the buffered charge
// released (tag attributions), and the new drain generation. The caller
// owns the returned slices.
//
// The generation is the durability boundary: Drain holds the fold lock
// exclusively, so every batch journaled at a generation < gen is fully
// contained in this or an earlier drain — a checkpoint of the snapshot
// this drain folds into covers exactly those records, and recovery
// replays generations >= gen.
func (a *Accumulator) Drain() (deltas []profilestore.TagDelta, newRecords int, released int64, gen uint64) {
	a.foldMu.Lock()
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		for name, acc := range sh.tags {
			deltas = append(deltas, profilestore.TagDelta{
				Name:   name,
				ID:     acc.id,
				Views:  acc.views,
				Videos: acc.videos,
			})
		}
		newRecords += len(sh.uploads)
		if len(sh.tags) > 0 {
			sh.tags = make(map[string]*tagAcc)
		}
		if len(sh.uploads) > 0 {
			sh.uploads = make(map[string]bool)
		}
		sh.mu.Unlock()
	}
	a.gen++
	gen = a.gen
	released = a.pending.Load()
	a.pending.Add(-released)
	a.foldMu.Unlock()
	return deltas, newRecords, released, gen
}

// noteFold records a completed fold's bookkeeping.
func (a *Accumulator) noteFold(d time.Duration, tags int) {
	a.epoch.Add(1)
	a.lastFoldNs.Store(d.Nanoseconds())
	a.lastTags.Store(int64(tags))
	a.foldHist.Observe(d)
}

// FoldHist returns the live fold-duration histogram for exposition.
func (a *Accumulator) FoldHist() *obs.Histogram { return &a.foldHist }

// Epoch returns the number of completed folds. An event accepted now is
// visible to predictions once Epoch has advanced past its Add.
func (a *Accumulator) Epoch() uint64 { return a.epoch.Load() }

// Stats snapshots the accumulator's counters.
func (a *Accumulator) Stats() Stats {
	return Stats{
		Epoch:      a.epoch.Load(),
		Events:     a.events.Load(),
		Dropped:    a.dropped.Load(),
		Pending:    a.pending.Load(),
		LastFoldMs: float64(a.lastFoldNs.Load()) / 1e6,
		LastTags:   a.lastTags.Load(),
		Replayed:   a.replayed.Load(),
	}
}
