package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"viewstags/internal/obs"
	"viewstags/internal/ring"
	"viewstags/internal/server"
)

// This file is the gateway side of live topology change: replica
// catch-up (rebuild a revived replica from its peers without stopping
// reads) and resharding (move the whole tier onto a new shard set
// without dropping a request). Both copy state through one function,
// moveSlices, over the shard /internal/transfer routes: export streams
// a slice as a persist-codec snapshot, import merges it, adopt cuts a
// node over to its new identity. opMu serializes the two operations;
// moveSlices holds writeGate across its copies, and a reshard also holds
// gate across transfer, adopt and cutover, so in-flight traffic stays
// consistent with whichever topology it started under.

// Handoff phases, in order. A reshard walks transfer → cutover → idle;
// catch-up never appears here (it is per-shard, see ShardStatus.Syncing).
const (
	HandoffTransfer = "transfer"
	HandoffCutover  = "cutover"
	HandoffIdle     = "idle"
)

// HandoffStatus is the observable record of reshard handoffs: the
// current phase, whether it is still in flight, and the monotonically
// increasing handoff epoch (counts reshards started since gateway boot;
// an in-flight one carries the epoch it will complete as). Surfaces in
// /v1/stats under cluster.handoff and in /metrics as
// viewstags_handoff_epoch/_active.
type HandoffStatus struct {
	Epoch  uint64 `json:"epoch" prom:"viewstags_handoff_epoch,gauge" help:"Reshard handoffs started since gateway start."`
	Phase  string `json:"phase"`
	Active bool   `json:"active" prom:"viewstags_handoff_active,gauge" help:"1 while a reshard handoff is in flight."`
	// From and To are the shard counts on each side of the move.
	From int `json:"from_shards"`
	To   int `json:"to_shards"`
}

// setHandoff publishes a new handoff phase.
func (g *Gateway) setHandoff(epoch uint64, phase string, from, to int) {
	g.handoff.Store(&HandoffStatus{Epoch: epoch, Phase: phase, Active: phase != HandoffIdle, From: from, To: to})
}

// post POSTs to an absolute URL (which need not be a current shard
// target — reshard talks to the incoming shard set before it is
// adopted): in is sent as JSON, or streamed as a persist-codec snapshot
// when it is an io.Reader. A non-200 comes back as an error carrying the
// shard's message; otherwise the caller owns resp.Body.
func (g *Gateway) post(ctx context.Context, url string, in any) (*http.Response, error) {
	body, ok := in.(io.Reader)
	contentType := server.TransferContentType
	if !ok {
		raw, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body, contentType = bytes.NewReader(raw), "application/json"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, errText(raw))
	}
	return resp, nil
}

// postJSON is post with the JSON reply decoded into out.
func (g *Gateway) postJSON(ctx context.Context, url string, in, out any) error {
	resp, err := g.post(ctx, url, in)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	return json.NewDecoder(resp.Body).Decode(out)
}

// transfer streams one export from src into dst's import: the export
// response body (a persist-codec snapshot frame) is piped straight into
// the import request, so the slice never materializes on the gateway.
func (g *Gateway) transfer(ctx context.Context, src, dst string, req server.TransferExportRequest) (server.TransferImportResponse, error) {
	var imported server.TransferImportResponse
	exp, err := g.post(ctx, src+"/internal/transfer/export", &req)
	if err != nil {
		return imported, fmt.Errorf("export from %s: %w", src, err)
	}
	defer func() { _ = exp.Body.Close() }()
	if err := g.postJSON(ctx, dst+"/internal/transfer/import", exp.Body, &imported); err != nil {
		return imported, fmt.Errorf("import into %s: %w", dst, err)
	}
	return imported, nil
}

// moveSlices is the one state-copy path: each destination to[j], j in
// dests, imports the slice the ring over len(to) shards assigns it from
// every current shard in read rotation, skipping itself. Catch-up moves
// onto the same ring, a reshard onto a new one. The shards out of
// rotation are the exports' exclude list, so each tag arrives from one
// live source, and writes are held across the copies, so each import's
// fold-then-replace is an exact dedup. It returns each destination's
// version after its last import, in dests order. tr gets a span per
// destination.
func (g *Gateway) moveSlices(ctx context.Context, tp *topology, to []string, dests []int, tr *obs.Trace) ([]server.ShardVersion, error) {
	exclude := tp.excludedShards(nil)
	if !tp.ring.Covered(exclude) {
		return nil, fmt.Errorf("cluster: slice coverage lost (%d of %d shards out of rotation) — nothing to copy from, deferring", len(exclude), len(tp.targets))
	}
	g.writeGate.Lock()
	defer g.writeGate.Unlock()
	versions := make([]server.ShardVersion, len(dests))
	for k, j := range dests {
		start := time.Now()
		req := server.TransferExportRequest{
			DestShards:   len(to),
			DestReplicas: tp.ring.Replicas(),
			DestIndex:    j,
			Exclude:      exclude,
		}
		for s, src := range tp.targets {
			if src == to[j] || slices.Contains(exclude, s) {
				continue
			}
			ack, err := g.transfer(ctx, src, to[j], req)
			if err != nil {
				return nil, fmt.Errorf("cluster: transfer shard %d → shard %d of %d: %w", s, j, len(to), err)
			}
			versions[k] = ack.Version
			g.logger.Printf("cluster: transfer shard %d → shard %d of %d: %d tags, %d records", s, j, len(to), ack.Tags, ack.Version.Records)
		}
		tr.Add("transfer", j, start, time.Since(start), "")
	}
	return versions, nil
}

// maybeCatchUp runs replica catch-up opportunistically from the health
// loop, unless another topology operation is in flight (TryLock — the
// health loop must never block behind a reshard).
func (g *Gateway) maybeCatchUp(ctx context.Context) {
	if !g.opMu.TryLock() {
		return
	}
	defer g.opMu.Unlock()
	if err := g.catchUpLocked(ctx); err != nil {
		g.logger.Printf("cluster: replica catch-up: %v (will retry)", err)
	}
}

// CatchUp rebuilds every revived-but-syncing replica from its live
// peers and returns it to read rotation. The health loop runs this
// automatically; it is exported so tests and operators can force the
// repair instead of waiting out the poll interval. No-op when nothing
// is syncing.
func (g *Gateway) CatchUp(ctx context.Context) error {
	g.opMu.Lock()
	defer g.opMu.Unlock()
	return g.catchUpLocked(ctx)
}

// catchUpLocked rebuilds every syncing replica that is up in one
// all-or-nothing move: after a failure all stay syncing, and repeating
// the copy is harmless (an import folds, then replaces tags by name).
func (g *Gateway) catchUpLocked(ctx context.Context) error {
	tp := g.topo.Load()
	var dests []int
	for d, s := range tp.shards {
		if s.syncing.Load() && !s.down.Load() {
			dests = append(dests, d)
		}
	}
	if len(dests) == 0 {
		return nil
	}
	versions, err := g.moveSlices(ctx, tp, tp.targets, dests, nil)
	if err != nil {
		return err
	}
	for k, d := range dests {
		// The import changed what the shard holds without a fold, and its
		// reply says so with a new incarnation: observed before the shard
		// rejoins read rotation, it strands whatever was cached from it.
		tp.shards[d].observe(versions[k])
		tp.shards[d].syncing.Store(false)
		g.logger.Printf("cluster: shard %d (%s) caught up, back in read rotation", d, tp.targets[d])
	}
	return nil
}

// errReshardRequest marks a Reshard failure as the shape of the request
// (a 400: nothing the tier's state could change), as opposed to the
// state of the tier (a 503: heal it and retry).
var errReshardRequest = errors.New("cluster: bad reshard request")

// Reshard moves the cluster onto targets live: every destination
// receives its slice from the current tier, adopts its new identity,
// and the gateway cuts its topology over — all under the request
// barrier, so no client request ever straddles the move. Targets
// already in the cluster keep their node (and its health state); their
// adopt step prunes the slice they no longer own. The replica factor is
// preserved, so len(targets) must still be >= Replicas, and a URL may
// appear once. tr, when non-nil, receives per-step spans (transfer per
// destination, adopt, cutover) for the stitched trace view.
//
// Preconditions: every current shard up and in read rotation (a
// reshard is a planned operation; run it on a healthy tier), and every
// incoming target ready with the same dataset (country table and
// prior).
func (g *Gateway) Reshard(ctx context.Context, targets []string, tr *obs.Trace) error {
	newTargets := make([]string, len(targets))
	for i, t := range targets {
		newTargets[i] = strings.TrimSuffix(strings.TrimSpace(t), "/")
		if newTargets[i] == "" {
			return fmt.Errorf("%w: target %d is blank", errReshardRequest, i)
		}
		// One daemon cannot hold two ring indexes: it would adopt each in
		// turn, pruning to the first slice and then pruning that to the
		// second, and a ring signature carries no index to catch it.
		if slices.Contains(newTargets[:i], newTargets[i]) {
			return fmt.Errorf("%w: target %s is listed twice", errReshardRequest, newTargets[i])
		}
	}
	g.opMu.Lock()
	defer g.opMu.Unlock()
	tp := g.topo.Load()
	replicas := tp.ring.Replicas()
	if len(newTargets) == 0 {
		return fmt.Errorf("%w: at least one target is needed", errReshardRequest)
	}
	if len(newTargets) < replicas {
		return fmt.Errorf("%w: %d targets cannot hold %d replicas", errReshardRequest, len(newTargets), replicas)
	}
	for i, s := range tp.shards {
		if s.down.Load() {
			return fmt.Errorf("cluster: shard %d (%s) is down — heal the tier before resharding", i, tp.targets[i])
		}
		if s.syncing.Load() {
			return fmt.Errorf("cluster: shard %d (%s) is still syncing — wait for catch-up before resharding", i, tp.targets[i])
		}
	}
	newRing, err := ring.New(len(newTargets), replicas)
	if err != nil {
		return err
	}

	// Pre-flight every incoming target before touching anything: ready,
	// same dataset (admitData).
	for j, t := range newTargets {
		var meta server.InternalMetaResponse
		err := g.get(ctx, t+server.InternalMetaPath).decode(&meta)
		if err == nil {
			err = admitData(&meta, g.codes, g.prior)
		}
		if err != nil {
			return fmt.Errorf("cluster: new shard %d (%s): %w", j, t, err)
		}
	}

	epoch := uint64(1)
	if h := g.handoff.Load(); h != nil {
		epoch = h.Epoch + 1
	}

	// Close the request barrier: transfers, adopts and the cutover are
	// invisible to clients — requests queue at the gate and resume on
	// the new topology.
	g.gate.Lock()
	defer g.gate.Unlock()
	from, to := len(tp.targets), len(newTargets)
	g.setHandoff(epoch, HandoffTransfer, from, to)
	// However the move ends, the handoff ends idle: a failure leaves the
	// old topology serving.
	defer g.setHandoff(epoch, HandoffIdle, from, to)
	reshardStart := time.Now()
	g.logger.Printf("cluster: reshard %d → %d shards (replicas=%d) starting, handoff epoch %d",
		from, to, replicas, epoch)

	// Transfer: on a healthy tier nothing is excluded, so each tag's
	// primary owner is its sole exporter.
	dests := make([]int, to)
	for j := range dests {
		dests[j] = j
	}
	if _, err := g.moveSlices(ctx, tp, newTargets, dests, tr); err != nil {
		return err
	}

	// Adopt: cut every destination over to its new identity and verify
	// it lands on exactly the ring the gateway will route by.
	wantSig := newRing.Signature()
	adopted := make([]server.ShardVersion, to)
	for j, dst := range newTargets {
		aStart := time.Now()
		var ack server.TransferAdoptResponse
		err := g.postJSON(ctx, dst+"/internal/transfer/adopt", server.TransferAdoptRequest{
			Index:    j,
			Shards:   to,
			Replicas: replicas,
		}, &ack)
		if err != nil {
			return fmt.Errorf("cluster: reshard adopt new shard %d (%s): %w", j, dst, err)
		}
		if ack.Signature != wantSig {
			return fmt.Errorf("cluster: new shard %d (%s) adopted ring %q, gateway computes %q", j, dst, ack.Signature, wantSig)
		}
		adopted[j] = ack.Version
		tr.Add("adopt", j, aStart, time.Since(aStart), "")
	}

	// Cutover: install the new topology. Nodes carried over keep their
	// shardState (health history) and their stream; genuinely new nodes
	// start fresh. Either holds the version its adopt reply stated.
	// Departed nodes' streams close once nothing can route to them.
	cStart := time.Now()
	g.setHandoff(epoch, HandoffCutover, from, to)
	ntp := &topology{
		ring:    newRing,
		targets: newTargets,
		shards:  make([]*shardState, to),
		streams: make([]*shardStream, to),
		rows:    newRowCache(),
	}
	for j, dst := range newTargets {
		if s := slices.Index(tp.targets, dst); s >= 0 {
			ntp.shards[j], ntp.streams[j] = tp.shards[s], tp.streams[s]
			ntp.shards[j].observe(adopted[j])
		} else {
			ntp.shards[j], ntp.streams[j] = newShardState(adopted[j]), g.newStream(dst)
		}
	}
	g.topo.Store(ntp)
	for s, st := range tp.streams {
		if !slices.Contains(newTargets, tp.targets[s]) {
			st.close()
		}
	}
	tr.Add("cutover", obs.NoShard, cStart, time.Since(cStart), "")
	g.logger.Printf("cluster: reshard complete in %s: %d shards, ring %s",
		time.Since(reshardStart).Round(time.Millisecond), to, wantSig)
	g.RefreshHealth(ctx)
	return nil
}

// ReshardRequest is the POST /v1/reshard body: the full replacement
// target list, in new shard order.
type ReshardRequest struct {
	Targets []string `json:"targets"`
}

// ReshardResponse acknowledges a completed reshard.
type ReshardResponse struct {
	Shards       int    `json:"shards"`
	Replicas     int    `json:"replicas,omitempty"`
	Signature    string `json:"signature"`
	HandoffEpoch uint64 `json:"handoff_epoch"`
}

// handleReshard is POST /v1/reshard — the operator entry point for a
// live topology change. It deliberately takes NO request gate: Reshard
// itself closes the barrier the data handlers hold.
func (g *Gateway) handleReshard(w http.ResponseWriter, r *http.Request) {
	var req ReshardRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	if err := g.Reshard(r.Context(), req.Targets, server.TraceFrom(r)); err != nil {
		status := http.StatusServiceUnavailable
		if errors.Is(err, errReshardRequest) {
			status = http.StatusBadRequest
		}
		server.WriteError(w, status, "%v", err)
		return
	}
	tp := g.topo.Load()
	resp := ReshardResponse{
		Shards:    len(tp.targets),
		Signature: tp.ring.Signature(),
	}
	if rep := tp.ring.Replicas(); rep > 1 {
		resp.Replicas = rep
	}
	if h := g.handoff.Load(); h != nil {
		resp.HandoffEpoch = h.Epoch
	}
	server.WriteJSON(w, http.StatusOK, resp)
}
