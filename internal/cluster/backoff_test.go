package cluster

import (
	"testing"
	"time"
)

// TestBackoffSchedule pins the nominal schedule: with jitter pinned to
// its midpoint (r = 0.5 makes the jittered delay exactly the nominal
// one), delays double from Base and saturate at Max.
func TestBackoffSchedule(t *testing.T) {
	b := &Backoff{
		Base:   250 * time.Millisecond,
		Max:    4 * time.Second,
		Factor: 2,
		Jitter: 0.4,
		Rand:   func() float64 { return 0.5 },
	}
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
// uniformly across [d·(1−J/2), d·(1+J/2)), so the extreme variates land
// exactly on the bounds.
func TestBackoffJitterBounds(t *testing.T) {
	mk := func(r float64) *Backoff {
		return &Backoff{Base: time.Second, Max: time.Minute, Factor: 2, Jitter: 0.4,
			Rand: func() float64 { return r }}
	}
	if got, want := mk(0).Next(), 800*time.Millisecond; got != want {
		t.Fatalf("low-variate first delay = %s, want %s", got, want)
	}
	if got, want := mk(1).Next(), 1200*time.Millisecond; got != want {
		t.Fatalf("high-variate first delay = %s, want %s", got, want)
	}
	// Real variates stay inside the envelope across the whole schedule.
	b := &Backoff{Base: time.Second, Max: 8 * time.Second, Factor: 2, Jitter: 0.4}
	nominal := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 8 * time.Second}
	for i, n := range nominal {
		d := b.Next()
		lo := time.Duration(float64(n) * 0.8)
		hi := time.Duration(float64(n) * 1.2)
		if d < lo || d > hi {
			t.Fatalf("delay %d = %s outside jitter envelope [%s, %s]", i, d, lo, hi)
		}
	}
}

// TestBackoffNoJitter pins the Jitter-0 path: delays are exactly the
// nominal schedule with no randomness consulted.
func TestBackoffNoJitter(t *testing.T) {
	b := &Backoff{Base: 100 * time.Millisecond, Max: 400 * time.Millisecond, Factor: 2,
		Rand: func() float64 { t.Fatal("Rand consulted with Jitter 0"); return 0 }}
	for i, want := range []time.Duration{100, 200, 400, 400} {
		if got := b.Next(); got != want*time.Millisecond {
			t.Fatalf("Next() call %d = %s, want %s", i, got, want*time.Millisecond)
		}
	}
}

// TestTickJitterEnvelope pins the health-loop tick spread: ±20% of the
// interval, uniform.
func TestTickJitterEnvelope(t *testing.T) {
	j := newTickJitter(time.Second)
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
