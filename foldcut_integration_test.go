package viewstags_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"viewstags/internal/faultproxy"
	"viewstags/internal/ingest"
	"viewstags/internal/profilestore"
	"viewstags/internal/server"
	"viewstags/internal/tagviews"
	"viewstags/internal/xrand"
)

// foldCutBatches are the accepted batches every case of
// TestFoldCutsGiveEqualBits folds: vocabulary tags and new ones,
// re-touched from batch to batch from other countries, with views that
// are no multiple of the view unit. Every upload has its own video id,
// so no cut changes what counts as a new record.
func foldCutBatches(t *testing.T) (batches [][]server.IngestEvent, touched []string) {
	t.Helper()
	names := testFixture(t).Analysis.TagNames()
	touched = []string{"zz-cut-a", "zz-cut-b", "zz-cut-c", "pop", "favela", names[0], names[len(names)/2]}
	countries := []string{"JP", "US", "BR", "DE", "KR", "IN"}
	src := xrand.NewSource(57)
	for b := 0; b < 6; b++ {
		var batch []server.IngestEvent
		for i := 0; i < 4; i++ {
			ev := server.IngestEvent{Video: fmt.Sprintf("cut-%d-%d", b, i), Country: countries[src.Intn(len(countries))],
				Views: float64(1+src.Intn(1_000_000)) / 7, Upload: src.Bernoulli(0.5)}
			for _, j := range src.Perm(len(touched))[:1+src.Intn(3)] {
				ev.Tags = append(ev.Tags, touched[j])
			}
			batch = append(batch, ev)
		}
		batches = append(batches, batch)
	}
	return batches, touched
}

// foldCutQueries are the tag lists the cases compare: each touched tag
// alone, then mixed with each other and with untouched vocabulary.
func foldCutQueries(touched []string) [][]string {
	out := [][]string{touched, {touched[0], "samba", touched[3]}, {touched[4], touched[1], touched[6], touched[2]}}
	for _, tag := range touched {
		out = append(out, []string{tag})
	}
	return out
}

// TestFoldCutsGiveEqualBits: the same accepted batches, folded under
// different cuts, leave the same bits, under every weighting — in one
// store (every touched tag's row, every prediction), on two R=2
// replicas behind a gateway (each replica excluded in turn, against a
// node that cut its folds elsewhere), and on a 3-shard tier against a
// node whose fold timers cut differently. Each tag stores its exact Eq. 3
// sums, so a fold's result does not depend on where folds were cut.
func TestFoldCutsGiveEqualBits(t *testing.T) {
	batches, touched := foldCutBatches(t)
	queries := foldCutQueries(touched)

	t.Run("store", func(t *testing.T) {
		base, err := profilestore.Build(testFixture(t).Analysis)
		if err != nil {
			t.Fatal(err)
		}
		world := base.World()
		// fold runs the batches through one store and accumulator,
		// folding after batch b when cut(b) says so, and after the last.
		fold := func(cut func(b int) bool) *profilestore.Snapshot {
			store, err := profilestore.NewStore(base)
			if err != nil {
				t.Fatal(err)
			}
			acc, err := ingest.NewAccumulator(store, 0)
			if err != nil {
				t.Fatal(err)
			}
			for b, batch := range batches {
				events := make([]ingest.Event, len(batch))
				for i, ev := range batch {
					events[i] = ingest.Event{Video: ev.Video, Tags: ev.Tags, Country: world.MustByCode(ev.Country), Views: ev.Views, Upload: ev.Upload}
				}
				if err := acc.Add(events); err != nil {
					t.Fatal(err)
				}
				if cut(b) || b == len(batches)-1 {
					deltas, records, _, _ := acc.Drain()
					next, err := profilestore.Rebuild(store.Load(), deltas, records)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := store.Swap(next); err != nil {
						t.Fatal(err)
					}
				}
			}
			return store.Load()
		}
		bits := math.Float64bits
		want := fold(func(int) bool { return false }) // one fold of everything
		for name, cut := range map[string]func(int) bool{
			"every batch":        func(int) bool { return true },
			"every other batch":  func(b int) bool { return b%2 == 1 },
			"after batches 1, 2": func(b int) bool { return b == 0 || b == 2 },
		} {
			got := fold(cut)
			if got.Records() != want.Records() {
				t.Fatalf("%s: %d records, one fold %d", name, got.Records(), want.Records())
			}
			for _, tag := range touched {
				wv, wn, wvec := want.Row(tag)
				gv, gn, gvec := got.Row(tag)
				if bits(gv) != bits(wv) || gn != wn || len(gvec) != len(wvec) {
					t.Fatalf("%s: %s row %v views over %d videos, one fold %v over %d", name, tag, gv, gn, wv, wn)
				}
				for c := range wvec {
					if bits(gvec[c]) != bits(wvec[c]) {
						t.Fatalf("%s: %s country %d sums to %v, one fold %v", name, tag, c, gvec[c], wvec[c])
					}
				}
			}
			for _, w := range []tagviews.Weighting{tagviews.WeightUniform, tagviews.WeightByViews, tagviews.WeightIDF} {
				for _, tags := range queries {
					wd, gd := make([]float64, world.N()), make([]float64, world.N())
					want.PredictInto(wd, tags, w)
					got.PredictInto(gd, tags, w)
					for c := range wd {
						if bits(gd[c]) != bits(wd[c]) {
							t.Fatalf("%s w=%v %v: country %d predicted %v, one fold %v", name, w, tags, c, gd[c], wd[c])
						}
					}
				}
			}
		}
	})

	// feed sends every batch to the tier's gateway and its single node,
	// then folds what each cut says: node i after batch b when
	// cut(i, b), the single node after every third batch; everything is
	// folded and observed at the end.
	feed := func(t *testing.T, tr *tier, cut func(i, b int) bool) {
		t.Helper()
		for b, batch := range batches {
			tr.ingest(t, 1, batch...)
			for i, n := range tr.nodes {
				if cut(i, b) {
					n.settle()
				}
			}
			if b%3 == 2 {
				tr.single.settle()
			}
		}
		tr.settle()
	}

	t.Run("R2", func(t *testing.T) {
		tr := newTier(t, 2, 2, time.Hour) // two shards at R=2: replicas of one slice
		tr.RestartGateway(t, tr.urls())
		feed(t, tr, func(i, b int) bool { return i == 0 || b%2 == 1 })
		tr.opts.Gateway.FailThreshold = 2
		tr.opts.Gateway.HealthInterval = time.Hour
		for cut := range tr.nodes {
			proxies := make([]*faultproxy.Proxy, len(tr.nodes))
			targets := make([]string, len(tr.nodes))
			for i, n := range tr.nodes {
				proxies[i] = newFlakyShard(t, n.ts.URL)
				targets[i] = proxies[i].URL()
			}
			tr.RestartGateway(t, targets)
			proxies[cut].Kill()
			for i := 0; i < 2; i++ {
				tr.g.RefreshHealth(context.Background())
			}
			if up := promCounter(t, tr.client, tr.gw.URL, fmt.Sprintf(`viewstags_shard_up{shard="%d"}`, cut)); up != 0 {
				t.Fatalf("cut replica %d reads up=%v after two failed probes", cut, up)
			}
			for _, tags := range queries {
				assertSameReplies(t, tr.client, tr.single.ts.URL, tr.gw.URL, fmt.Sprintf("replica %d excluded, %v", cut, tags),
					server.PredictRequest{Tags: tags, Top: 1 << 10})
			}
		}
	})

	t.Run("tier", func(t *testing.T) {
		tr := newTier(t, 3, 1, time.Hour)
		tr.RestartGateway(t, tr.urls())
		feed(t, tr, func(i, b int) bool { return (b+i)%(i+1) == 0 })
		for _, tags := range queries {
			assertSamePrediction(t, tr.client, tr.single.ts.URL, tr.gw.URL, tags)
		}
	})
}
