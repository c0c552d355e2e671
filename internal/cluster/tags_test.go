package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"testing"

	"viewstags/internal/profilestore"
	"viewstags/internal/ring"
	"viewstags/internal/xrand"
)

// TestTagRankingMatchesFullSort: over seeded sequences of folds, a
// snapshot's TopProfiles(k) is a full sort's prefix (views descending,
// name ascending), and a 3-shard gateway's /v1/tags body is a node's
// byte for byte. Every fold makes ties that profile ids cannot break:
// new tags, named to sort before every existing tag and so interned
// after them, take an existing tag's exact total; zero-mass deltas touch
// tags without moving them; and new zero-view tags tie at the bottom.
func TestTagRankingMatchesFullSort(t *testing.T) {
	ringOne, err := ring.New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	full := startNode(t, ringOne, 0, 1)
	shards, g := startCluster(t, 3)
	gw := gatewayServer(t, g)
	rg := g.topo.Load().ring
	src := xrand.NewSource(44)
	nC := full.store.Load().World().N()

	fold := func(store *profilestore.Store, deltas []profilestore.TagDelta) {
		t.Helper()
		next, err := profilestore.Rebuild(store.Load(), deltas, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Swap(next); err != nil {
			t.Fatal(err)
		}
	}
	body := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
		}
		return b
	}

	for round := 0; round < 6; round++ {
		profs := full.store.Load().Export().Profiles
		var deltas []profilestore.TagDelta
		add := func(name string, total float64) {
			views := make([]float64, nC)
			views[src.Intn(nC)] = total
			deltas = append(deltas, profilestore.TagDelta{Name: name, Views: views, ID: -1})
		}
		for i := 0; i < 8; i++ {
			add(fmt.Sprintf("0-tie-%d-%d", round, i), profs[src.Intn(len(profs))].TotalViews)
			add(fmt.Sprintf("0-zero-%d-%d", round, i), 0)
			add(profs[src.Intn(len(profs))].Name, 0)
			add(profs[src.Intn(len(profs))].Name, float64(1+src.Intn(1e6)))
		}
		fold(full.store, deltas)
		for i, sh := range shards {
			var own []profilestore.TagDelta
			for _, d := range deltas {
				if rg.Owner(d.Name) == i {
					own = append(own, d)
				}
			}
			fold(sh.store, own)
		}

		snap := full.store.Load()
		want := append([]profilestore.Profile(nil), snap.Export().Profiles...)
		sort.Slice(want, func(a, b int) bool {
			if want[a].TotalViews != want[b].TotalViews {
				return want[a].TotalViews > want[b].TotalViews
			}
			return want[a].Name < want[b].Name
		})
		n := len(want)
		for _, k := range []int{1, 2, 20, n - 1, n, n + 1} {
			got := snap.TopProfiles(k)
			if len(got) != min(k, n) {
				t.Fatalf("round %d: TopProfiles(%d) has %d profiles, want %d", round, k, len(got), min(k, n))
			}
			for i, p := range got {
				if p.Name != want[i].Name {
					t.Fatalf("round %d, k=%d, rank %d: %s (%v), full sort has %s (%v)",
						round, k, i, p.Name, p.TotalViews, want[i].Name, want[i].TotalViews)
				}
			}
			q := "/v1/tags?k=" + strconv.Itoa(k)
			if node, merged := body(full.ts.URL+q), body(gw.URL+q); !bytes.Equal(node, merged) {
				t.Fatalf("round %d, k=%d: gateway body differs from the node's (%d vs %d bytes)", round, k, len(merged), len(node))
			}
		}
	}
}
