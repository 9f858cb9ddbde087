package experiments

import (
	"testing"
	"time"
)

// TestQuantileNearestRank pins the nearest-rank definition: the smallest
// sample with at least a fraction p of the samples at or below it.
func TestQuantileNearestRank(t *testing.T) {
	var ten []time.Duration
	for i := 1; i <= 10; i++ {
		ten = append(ten, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.99, 10}, {1, 10}} {
		if got := quantile(ten, c.p); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	l := summarize([]time.Duration{3 * time.Microsecond, 1500 * time.Nanosecond})
	if l.Count != 2 || l.P50Micros != 1.5 || l.P99Micros != 3 {
		t.Errorf("summarize = %+v, want 2 samples, p50 1.5µs, p99 3µs", l)
	}
}
