package experiments

import (
	"math"
	"slices"
	"time"
)

// Service op kinds a session player times.
const (
	opOpen = iota
	opFeedback
	opClose
)

// opLatencies collects service-call latencies, indexed by op kind.
type opLatencies [3][]time.Duration

// since records the latency of an op of the given kind started at t0;
// a nil receiver records nothing.
func (l *opLatencies) since(op int, t0 time.Time) {
	if l != nil {
		l[op] = append(l[op], time.Since(t0))
	}
}

// count is the number of recorded calls over every op kind.
func (l *opLatencies) count() int {
	return len(l[opOpen]) + len(l[opFeedback]) + len(l[opClose])
}

// OpLatency summarizes one op kind's latencies: the sample count and the
// nearest-rank p50/p99 in microseconds.
type OpLatency struct {
	Count     int     `json:"count"`
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
}

// summarize sorts samples in place and reduces them to an OpLatency.
func summarize(samples []time.Duration) OpLatency {
	slices.Sort(samples)
	return OpLatency{
		Count:     len(samples),
		P50Micros: micros(quantile(samples, 0.50)),
		P99Micros: micros(quantile(samples, 0.99)),
	}
}

// timeEach calls fn(0..n-1) in order and summarizes the per-call
// latencies.
func timeEach(n int, fn func(i int) error) (OpLatency, error) {
	samples := make([]time.Duration, n)
	for i := range samples {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return OpLatency{}, err
		}
		samples[i] = time.Since(t0)
	}
	return summarize(samples), nil
}

// quantile is the nearest-rank p-quantile (0 ≤ p ≤ 1) of sorted
// samples: the smallest one with at least a fraction p of all samples
// at or below it. It is 0 for no samples.
func quantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
