package cluster

import (
	"math/rand"
	"time"
)

// The gateway's startup sync-retry schedule: quick first probes while
// shards finish booting, doubling toward a few seconds for longer
// recoveries. The exponential growth keeps a long outage from being
// hammered at the initial cadence.
const (
	syncBackoffBase = 250 * time.Millisecond
	syncBackoffMax  = 4 * time.Second
)

// jitter spreads d uniformly across ±20%, [0.8·d, 1.2·d], drawing the
// variate from r (nil: math/rand). The jitter is the point — a fleet of
// gateways restarting together must not retry against the shard tier,
// or probe it, in synchronized waves.
func jitter(d time.Duration, r func() float64) time.Duration {
	if r == nil {
		r = rand.Float64
	}
	span := float64(d) * 0.4
	return time.Duration(float64(d) - span/2 + r()*span)
}

// syncBackoff walks the sync-retry schedule. rand is the variate seam:
// nil uses math/rand, and tests pin it.
type syncBackoff struct {
	cur  time.Duration
	rand func() float64
}

// Next returns the delay to sleep before the next attempt and advances
// the schedule.
func (b *syncBackoff) Next() time.Duration {
	if b.cur == 0 {
		b.cur = syncBackoffBase
	}
	d := b.cur
	b.cur = min(2*b.cur, syncBackoffMax)
	return jitter(d, b.rand)
}

// tickJitter spreads a periodic interval with jitter so background loops
// on different gateways drift apart instead of probing in lockstep.
type tickJitter struct {
	interval time.Duration
	rand     func() float64
}

// Next returns the next tick delay.
func (j *tickJitter) Next() time.Duration { return jitter(j.interval, j.rand) }
