package cluster

import (
	"testing"
	"time"
)

// TestBackoffSchedule pins the nominal schedule: with jitter pinned to
// its midpoint (r = 0.5 makes the jittered delay exactly the nominal
// one), delays double from 250 ms and saturate at 4 s.
func TestBackoffSchedule(t *testing.T) {
	b := &syncBackoff{rand: func() float64 { return 0.5 }}
	want := []time.Duration{
		250 * time.Millisecond,
		500 * time.Millisecond,
		time.Second,
		2 * time.Second,
		4 * time.Second,
		4 * time.Second, // saturated
		4 * time.Second,
	}
	for i, w := range want {
		if got := b.Next(); got != w {
			t.Fatalf("Next() call %d = %s, want %s", i, got, w)
		}
	}
}

// TestBackoffJitterBounds pins the jitter envelope: a delay d spreads
// uniformly across [0.8·d, 1.2·d), so the extreme variates land exactly
// on the bounds.
func TestBackoffJitterBounds(t *testing.T) {
	mk := func(r float64) *syncBackoff {
		return &syncBackoff{rand: func() float64 { return r }}
	}
	if got, want := mk(0).Next(), 200*time.Millisecond; got != want {
		t.Fatalf("low-variate first delay = %s, want %s", got, want)
	}
	if got, want := mk(1).Next(), 300*time.Millisecond; got != want {
		t.Fatalf("high-variate first delay = %s, want %s", got, want)
	}
	// Real variates stay inside the envelope across the whole schedule.
	b := &syncBackoff{}
	nominal := []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second, 4 * time.Second}
	for i, n := range nominal {
		d := b.Next()
		lo := time.Duration(float64(n) * 0.8)
		hi := time.Duration(float64(n) * 1.2)
		if d < lo || d > hi {
			t.Fatalf("delay %d = %s outside jitter envelope [%s, %s]", i, d, lo, hi)
		}
	}
}

// TestTickJitterEnvelope pins the health-loop tick spread: ±20% of the
// interval, uniform.
func TestTickJitterEnvelope(t *testing.T) {
	j := &tickJitter{interval: time.Second}
	j.rand = func() float64 { return 0 }
	if got, want := j.Next(), 800*time.Millisecond; got != want {
		t.Fatalf("low-variate tick = %s, want %s", got, want)
	}
	j.rand = func() float64 { return 0.5 }
	if got, want := j.Next(), time.Second; got != want {
		t.Fatalf("mid-variate tick = %s, want %s", got, want)
	}
	j.rand = func() float64 { return 1 }
	if got, want := j.Next(), 1200*time.Millisecond; got != want {
		t.Fatalf("high-variate tick = %s, want %s", got, want)
	}
}
