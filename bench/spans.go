package main

import "strings"

// request is the spans of one traced request, regrouped.
type request struct {
	client  *spanRec
	handler *spanRec // gateway.handler or server.handler
	legs    []spanRec
	shards  map[int]spanRec // shard.handler by shard index
}

// groupSpans regroups the spans whose trace id starts with prefix by
// request, keeping only complete ones (a client and a handler span).
func groupSpans(spans []spanRec, prefix string) []*request {
	byID := map[string]*request{}
	var order []string
	for i := range spans {
		s := &spans[i]
		if !strings.HasPrefix(s.Trace, prefix) {
			continue
		}
		r := byID[s.Trace]
		if r == nil {
			r = &request{shards: map[int]spanRec{}}
			byID[s.Trace] = r
			order = append(order, s.Trace)
		}
		switch s.Name {
		case spanClient:
			r.client = s
		case spanGateway, spanServer:
			r.handler = s
		case spanLeg:
			r.legs = append(r.legs, *s)
		case spanShard:
			r.shards[s.Shard] = *s
		}
	}
	out := make([]*request, 0, len(order))
	for _, id := range order {
		if r := byID[id]; r.client != nil && r.handler != nil {
			out = append(out, r)
		}
	}
	return out
}

// spanStats are the medians the ledger reports for one traced stream,
// in microseconds unless named otherwise.
type spanStats struct {
	requests   int
	clientUs   float64 // client.request
	handlerUs  float64 // gateway.handler or server.handler
	loopbackUs float64 // client − handler: net/http and the socket
	selfUs     float64 // handler − union of its legs
	legUs      float64 // every leg
	hopUs      float64 // leg − the shard.handler it reached
	shardUs    float64 // shard.handler
	slowestUs  float64 // per request, its slowest leg
	legSkew    float64 // per request, slowest leg ÷ mean leg
	legsPerReq float64 // mean legs per request
}

// analyse reduces the requests of one route (the URL path the client
// sent) to medians. Self time is per request: the handler span minus
// the union of its overlapping leg spans.
func analyse(reqs []*request, route string) spanStats {
	var client, handler, loopback, self, leg, hop, shard, slowest, skew []float64
	legs := 0
	n := 0
	for _, r := range reqs {
		if r.handler.Route != route {
			continue
		}
		n++
		hd := r.handler.End - r.handler.Start
		cd := r.client.End - r.client.Start
		client = append(client, us(cd))
		handler = append(handler, us(hd))
		loopback = append(loopback, us(cd-hd))
		if len(r.legs) == 0 {
			continue
		}
		legs += len(r.legs)
		ivs := make([]interval, len(r.legs))
		var worst, sum int64
		for i, l := range r.legs {
			ivs[i] = interval{l.Start, l.End}
			d := l.End - l.Start
			sum += d
			if d > worst {
				worst = d
			}
			leg = append(leg, us(d))
			if sh, ok := r.shards[l.Shard]; ok {
				sd := sh.End - sh.Start
				shard = append(shard, us(sd))
				hop = append(hop, us(d-sd))
			}
		}
		self = append(self, us(selfTime(r.handler.Start, r.handler.End, ivs)))
		slowest = append(slowest, us(worst))
		skew = append(skew, float64(worst)*float64(len(r.legs))/float64(sum))
	}
	st := spanStats{
		requests: n, clientUs: median(client), handlerUs: median(handler), loopbackUs: median(loopback),
		selfUs: median(self), legUs: median(leg), hopUs: median(hop), shardUs: median(shard),
		slowestUs: median(slowest), legSkew: median(skew),
	}
	if n > 0 {
		st.legsPerReq = float64(legs) / float64(n)
	}
	return st
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
