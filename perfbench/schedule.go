package main

import (
	"math"
	"sort"
	"time"
)

// rng is splitmix64: a tiny generator whose stream is fixed by this file,
// so a seed names the same query stream, arrivals and think times on
// every Go release.
type rng struct{ s uint64 }

// newRNG starts a generator at a hash of seed and stream. Every seed
// walks the same Weyl sequence, so a start linear in the seed would make
// seed n+1's draws seed n's shifted by one; hashing puts nearby seeds
// and streams at unrelated points.
func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: mix64(mix64(seed) ^ (stream+1)*0xD1B54A32D192ED03)}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix64(r.s)
}

// mix64 is splitmix64's output function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// exp returns an exponential draw with the given mean.
func (r *rng) exp(mean float64) float64 { return -mean * math.Log(1-r.float()) }

// Random streams derived from the workload seed.
const (
	streamArrivals = 1
	streamItems    = 2
	streamPerm     = 3
	streamSatItems = 4
	streamThink    = 5
)

// itemSampler draws query items: uniformly, or Zipf-skewed over a
// permutation of the collection so that a few items recur often. The
// permutation — which items are popular — belongs to the collection and
// is fixed by its own seed; the workload seed only draws the stream.
type itemSampler struct {
	r    *rng
	perm []int     // rank → item (Zipf only)
	cdf  []float64 // cumulative rank weights (Zipf only)
	n    int
}

func newItemSampler(seed, stream uint64, n int, zipfS float64, popularity uint64) *itemSampler {
	s := &itemSampler{r: newRNG(seed, stream), n: n}
	if zipfS <= 0 {
		return s
	}
	pr := newRNG(popularity, streamPerm)
	s.perm = make([]int, n)
	for i := range s.perm {
		s.perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := pr.intn(i + 1)
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
	}
	s.cdf = make([]float64, n)
	total := 0.0
	for i := range s.cdf {
		total += math.Pow(float64(i+1), -zipfS)
		s.cdf[i] = total
	}
	for i := range s.cdf {
		s.cdf[i] /= total
	}
	return s
}

func (s *itemSampler) next() int {
	if s.perm == nil {
		return s.r.intn(s.n)
	}
	u := s.r.float()
	rank := sort.SearchFloat64s(s.cdf, u)
	if rank >= s.n {
		rank = s.n - 1
	}
	return s.perm[rank]
}

// plannedSession is one session of the open-loop script: when it
// arrives, which item it queries, and the seed of its think times.
type plannedSession struct {
	Index   int
	Arrival time.Duration // offset from the start of the phase
	Item    int
}

// schedule draws the open-loop script: Poisson arrivals at rate
// sessions per second over window, each with its query item.
func schedule(seed uint64, rate float64, window time.Duration, items *itemSampler) []plannedSession {
	arr := newRNG(seed, streamArrivals)
	var out []plannedSession
	t := 0.0
	for {
		t += arr.exp(1 / rate)
		at := time.Duration(t * float64(time.Second))
		if at >= window {
			return out
		}
		out = append(out, plannedSession{Index: len(out), Arrival: at, Item: items.next()})
	}
}

// thinkTime is the pause before round `round` of session `session`: an
// exponential draw with the given mean, capped at five means so a single
// draw cannot stretch the drain. It depends only on its arguments, never
// on response timing.
func thinkTime(seed uint64, session, round int, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	r := newRNG(seed^uint64(session)*0xA24BAED4963EE407, streamThink+uint64(round)*7)
	d := r.exp(float64(mean))
	if d > 5*float64(mean) {
		d = 5 * float64(mean)
	}
	return time.Duration(d)
}
