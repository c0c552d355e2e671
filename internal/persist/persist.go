// Package persist is the serving tier's durable state layer: it keeps
// the streamed view-event state that PRs 1–3 hold in RAM alive across
// daemon restarts and crashes, so a node rejoins with everything it
// ever acked instead of an empty epoch.
//
// It has three parts, glued together by a Manager over one data
// directory:
//
//   - A versioned, CRC-checksummed binary snapshot codec for
//     profilestore.SnapshotData (WriteSnapshot / ReadSnapshot):
//     interned ids, per-tag vectors, records, prior — round-trips
//     bit-identically, so a recovered node predicts exactly what the
//     crashed one did.
//
//   - An append-only write-ahead log for ingest batches: segment files
//     of length-prefixed, CRC-framed records, rotated by size, with an
//     fsync policy flag. The ingest accumulator journals every accepted
//     batch here before acking (Manager implements ingest.Journal), so
//     an ack means the events are on disk.
//
//   - A recovery path (LoadCheckpoint + Replay): on boot, load the
//     newest valid checkpoint, replay WAL records journaled at drain
//     generations the checkpoint does not cover, and truncate any torn
//     tail a crash left mid-record.
//
// The coverage contract is the drain generation (see ingest.Journal):
// every WAL record carries the generation it was journaled at, a
// checkpoint saved after the drain that returned generation G covers
// exactly the records with generation < G, and recovery replays the
// rest. Checkpoints prune WAL segments whose records are all covered,
// so disk use is bounded by checkpoint cadence, not uptime.
//
// Durability envelope: without fsync (the default), every write still
// reaches the kernel before the ack, so state survives any process
// death (SIGKILL, panic, OOM); only a whole-machine crash can lose the
// page-cache tail. With Fsync set, appends and checkpoints are synced
// and survive power loss, at a per-batch latency cost. Checkpoint
// installs are atomic (write-to-temp, fsync, rename), so a kill at any
// point leaves either the old or the new checkpoint, never a torn one.
package persist

import (
	"fmt"
	"log"
)

// DefaultSegmentBytes is the WAL rotation threshold when Options leaves
// SegmentBytes zero.
const DefaultSegmentBytes = 64 << 20

// Options parameterizes a Manager.
type Options struct {
	// Dir is the data directory (created if absent). One directory
	// belongs to one node; cluster shards use per-shard subdirectories
	// (cmd/serve derives shard-<i>-of-<n> automatically).
	Dir string
	// SegmentBytes rotates the WAL to a fresh segment file once the
	// active one exceeds this size (<= 0: DefaultSegmentBytes).
	SegmentBytes int64
	// Fsync syncs every WAL append and checkpoint to stable storage
	// before acking. Off by default: writes still survive process death
	// (they reach the kernel before the ack); set it when the tier must
	// also survive machine crashes and power loss.
	Fsync bool
	// Logger receives recovery notes (corrupt checkpoints skipped, torn
	// tails truncated). Nil uses the standard logger.
	Logger *log.Logger
}

// CheckpointMeta identifies a checkpoint: the drain generation it
// covers (every journaled record with a generation below it is folded
// into the snapshot) and the fold epoch the accumulator had reached, so
// a recovered node rejoins reporting its real epoch.
type CheckpointMeta struct {
	Gen   uint64 `json:"gen"`
	Epoch uint64 `json:"epoch"`
}

// Stats is a point-in-time summary of the durable state, surfaced by
// the server's /v1/stats and /healthz, and by /metrics as its prom tags.
type Stats struct {
	Dir   string `json:"dir"`
	Fsync bool   `json:"fsync"`
	// CheckpointGen/Epoch describe the newest durable checkpoint.
	CheckpointGen   uint64 `json:"checkpoint_gen" prom:"viewstags_checkpoint_gen,gauge" help:"Generation of the newest durable checkpoint."`
	CheckpointEpoch uint64 `json:"checkpoint_epoch"`
	Checkpoints     int    `json:"checkpoints" prom:"viewstags_checkpoints,gauge" help:"Checkpoint files on disk."`
	WALSegments     int    `json:"wal_segments" prom:"viewstags_wal_segments,gauge" help:"WAL segment files on disk."`
	WALBytes        int64  `json:"wal_bytes" prom:"viewstags_wal_bytes,gauge" help:"Total WAL bytes on disk."`
	WALAppends      int64  `json:"wal_appends" prom:"viewstags_wal_appends_total,counter" help:"Journal records appended since boot."`
	// Recovered reports whether boot loaded a checkpoint; the replay
	// counters say how much journal it re-applied on top.
	Recovered       bool  `json:"recovered"`
	ReplayedRecords int64 `json:"replayed_records"`
	ReplayedEvents  int64 `json:"replayed_events"`
	// TornTailTruncated reports that recovery found (and truncated) a
	// partially written record at the journal tail — the signature of a
	// crash mid-append. The record's batch was never acked.
	TornTailTruncated bool `json:"torn_tail_truncated,omitempty"`
}

// ParseFsync maps the -fsync flag's policy names onto the boolean the
// Options carry: "always" syncs every append and checkpoint, "never"
// (the default) trusts the kernel's page cache.
func ParseFsync(policy string) (bool, error) {
	switch policy {
	case "always":
		return true, nil
	case "never", "":
		return false, nil
	default:
		return false, fmt.Errorf("persist: unknown fsync policy %q (want always or never)", policy)
	}
}
