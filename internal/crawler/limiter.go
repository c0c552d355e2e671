package crawler

import (
	"context"
	"sync"
	"time"
)

// limiter is a blocking token bucket used for client-side politeness.
// rate <= 0 disables limiting. It is safe for concurrent use.
type limiter struct {
	mu     sync.Mutex
	rate   float64
	tokens float64
	last   time.Time
}

func newLimiter(rate float64) *limiter {
	return &limiter{rate: rate, tokens: 1, last: time.Now()}
}

// wait blocks until a token is available or ctx is done. It refills at
// the configured rate with a burst of one — a strict inter-request gap,
// which is what crawl politeness wants (smooth, not bursty).
func (l *limiter) wait(ctx context.Context) {
	if l.rate <= 0 {
		return
	}
	for {
		l.mu.Lock()
		now := time.Now()
		l.tokens += now.Sub(l.last).Seconds() * l.rate
		if l.tokens > 1 {
			l.tokens = 1
		}
		l.last = now
		if l.tokens >= 1 {
			l.tokens--
			l.mu.Unlock()
			return
		}
		need := time.Duration((1 - l.tokens) / l.rate * float64(time.Second))
		l.mu.Unlock()
		t := time.NewTimer(need)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return
		}
		t.Stop()
	}
}
