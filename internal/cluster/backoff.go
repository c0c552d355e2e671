package cluster

import (
	"math/rand"
	"time"
)

// Backoff produces a jittered exponential retry schedule: the first
// Next returns ~Base, each subsequent call grows by Factor up to Max,
// and every delay is spread uniformly across ±Jitter/2 of its nominal
// value. The jitter is the point — a fleet of gateways restarting
// together must not retry against the shard tier in synchronized
// waves — and the exponential growth keeps a long outage from being
// hammered at the initial cadence.
type Backoff struct {
	// Base is the nominal first delay.
	Base time.Duration
	// Max caps the nominal delay; jitter may still land slightly above.
	Max time.Duration
	// Factor is the per-step growth multiplier (must be >= 1).
	Factor float64
	// Jitter is the fraction of the nominal delay randomized: a delay d
	// becomes uniform in [d·(1−Jitter/2), d·(1+Jitter/2)]. 0 disables.
	Jitter float64

	// Rand supplies uniform [0,1) variates; nil uses math/rand. Tests
	// inject a constant to pin the schedule.
	Rand func() float64

	cur time.Duration
}

// Next returns the delay to sleep before the next attempt and advances
// the schedule.
func (b *Backoff) Next() time.Duration {
	if b.cur <= 0 {
		b.cur = b.Base
	}
	d := b.cur
	grown := time.Duration(float64(b.cur) * b.Factor)
	if grown > b.Max {
		grown = b.Max
	}
	if grown > b.cur {
		b.cur = grown
	}
	if b.Jitter > 0 {
		r := b.Rand
		if r == nil {
			r = rand.Float64
		}
		span := float64(d) * b.Jitter
		d = time.Duration(float64(d) - span/2 + r()*span)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// newSyncBackoff is the gateway's startup sync-retry schedule: quick
// first probes while shards finish booting, backing off toward a few
// seconds for longer recoveries.
func newSyncBackoff() *Backoff {
	return &Backoff{
		Base:   250 * time.Millisecond,
		Max:    4 * time.Second,
		Factor: 2,
		Jitter: 0.4,
	}
}

// tickJitter spreads a periodic interval uniformly across ±20% so
// background loops on different gateways drift apart instead of
// probing in lockstep.
type tickJitter struct {
	interval time.Duration
	rand     func() float64
}

func newTickJitter(interval time.Duration) *tickJitter {
	return &tickJitter{interval: interval}
}

// Next returns the next tick delay.
func (j *tickJitter) Next() time.Duration {
	r := j.rand
	if r == nil {
		r = rand.Float64
	}
	span := float64(j.interval) * 0.4
	return time.Duration(float64(j.interval) - span/2 + r()*span)
}
