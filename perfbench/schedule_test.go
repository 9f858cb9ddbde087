package main

import (
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsReproducible(t *testing.T) {
	mk := func(seed uint64, zipf float64) []plannedSession {
		return schedule(seed, 200, 5*time.Second, newItemSampler(seed, streamItems, 3000, zipf, 1))
	}
	for _, zipf := range []float64{0, 1.1} {
		a, b := mk(7, zipf), mk(7, zipf)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("zipf %g: the same seed gave different scripts", zipf)
		}
		if reflect.DeepEqual(a, mk(8, zipf)) {
			t.Fatalf("zipf %g: seeds 7 and 8 gave the same script", zipf)
		}
		// Poisson at 200/s over 5 s: about 1000 arrivals.
		if n := len(a); n < 850 || n > 1150 {
			t.Errorf("zipf %g: %d arrivals, want about 1000", zipf, n)
		}
		for i, p := range a {
			if p.Index != i || p.Arrival < 0 || p.Arrival >= 5*time.Second || p.Item < 0 || p.Item >= 3000 {
				t.Fatalf("session %d out of range: %+v", i, p)
			}
			if i > 0 && p.Arrival < a[i-1].Arrival {
				t.Fatalf("arrivals not ordered at %d", i)
			}
		}
	}
}

func TestZipfSkewsItems(t *testing.T) {
	count := func(zipf float64) int {
		s := newItemSampler(3, streamItems, 3000, zipf, 1)
		seen := map[int]int{}
		top := 0
		for i := 0; i < 20000; i++ {
			it := s.next()
			seen[it]++
			top = max(top, seen[it])
		}
		return top
	}
	uniform, skewed := count(0), count(1.1)
	if skewed < 10*uniform {
		t.Errorf("most frequent item: %d draws with zipf 1.1, %d uniform; want a strong skew", skewed, uniform)
	}
}

func TestThinkTimeDependsOnlyOnItsArguments(t *testing.T) {
	mean := 100 * time.Millisecond
	a := thinkTime(5, 10, 2, mean)
	if b := thinkTime(5, 10, 2, mean); a != b {
		t.Fatalf("think time not reproducible: %v vs %v", a, b)
	}
	if a == thinkTime(5, 10, 3, mean) && a == thinkTime(5, 11, 2, mean) {
		t.Fatalf("think time ignores the round and the session")
	}
	var sum time.Duration
	for s := 0; s < 2000; s++ {
		d := thinkTime(1, s, 1, mean)
		if d < 0 || d > 5*mean {
			t.Fatalf("think time %v outside [0, 5×mean]", d)
		}
		sum += d
	}
	if avg := sum / 2000; avg < 80*time.Millisecond || avg > 110*time.Millisecond {
		t.Errorf("mean think time %v, want about %v less the cap", avg, mean)
	}
	if thinkTime(1, 1, 1, 0) != 0 {
		t.Errorf("zero mean must give zero think time")
	}
}

func TestNearbySeedsGiveUnrelatedStreams(t *testing.T) {
	// Under any shift of up to 1000 draws, two streams of 2000 draws
	// from [0, 2^20) should agree in about 2 positions by chance.
	draws := func(seed, stream uint64) []int {
		s := newItemSampler(seed, stream, 1<<20, 0, 1)
		out := make([]int, 3000)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	pairs := [][2][2]uint64{
		{{1001, streamItems}, {1002, streamItems}},
		{{1001, streamItems}, {2001, streamItems}},
		{{7, streamItems}, {7, streamSatItems}},
	}
	for _, p := range pairs {
		a, b := draws(p[0][0], p[0][1]), draws(p[1][0], p[1][1])
		for shift := 0; shift <= 1000; shift++ {
			same, sameRev := 0, 0
			for i := 0; i < 2000; i++ {
				if a[i+shift] == b[i] {
					same++
				}
				if a[i] == b[i+shift] {
					sameRev++
				}
			}
			if same > 10 || sameRev > 10 {
				t.Fatalf("seed/stream %v and %v agree in %d/%d of 2000 draws at shift %d", p[0], p[1], same, sameRev, shift)
			}
		}
	}
}
