package main

import (
	"math"
	"strings"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		p     float64
		value float64
	}{
		{10000, 99.9, 9990},
		{1000, 99, 990},
		{999, 98, 980},
		{500, 98, 490},
		{200, 95, 190},
		{100, 90, 90},
		{40, 75, 30},
		{21, 50, 11},
		{11, 0, 0},
		{0, 0, 0},
	}
	for _, c := range cases {
		q := tailOf(ramp(c.n))
		if q.P != c.p || q.Value != c.value || q.N != c.n {
			t.Errorf("tailOf(%d samples) = %+v, want P=%g value=%g N=%d", c.n, q, c.p, c.value, c.n)
			continue
		}
		if q.P > 0 {
			beyond := 0
			for _, x := range ramp(c.n) {
				if x > q.Value {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("tailOf(%d samples): only %d samples beyond p%g", c.n, beyond, q.P)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := ramp(4)
	for p, want := range map[float64]float64{0: 1, 25: 1, 50: 2, 75: 3, 100: 4} {
		if got := percentileOf(xs, p).Value; got != want {
			t.Errorf("p%g of 1..4 = %g, want %g", p, got, want)
		}
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if q := percentileOf(nil, 50); q.N != 0 || q.Value != 0 {
		t.Errorf("percentile of no samples = %+v", q)
	}
}

const exposition = `# HELP fb_service_request_seconds Serving-layer request latency by operation.
# TYPE fb_service_request_seconds histogram
fb_service_request_seconds_bucket{collection="default",op="open",le="0.001"} 3
fb_service_request_seconds_bucket{collection="default",op="open",le="+Inf"} 4
fb_service_request_seconds_sum{collection="default",op="open"} 0.0042
fb_service_request_seconds_count{collection="default",op="open"} 4
fb_service_request_seconds_sum{collection="default",op="close"} 0.5
fb_service_request_seconds_count{collection="default",op="close"} 10
# TYPE fb_process_gc_cycles_total gauge
fb_process_gc_cycles_total 7
fb_odd{collection="a \"quoted\" name",shard="1"} 2
fb_odd{collection="b",shard="2"} 3
`

func TestParsePromAndDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	later := strings.NewReplacer(
		`op="open"} 0.0042`, `op="open"} 0.0102`,
		`op="open"} 4`, `op="open"} 10`,
		"fb_process_gc_cycles_total 7", "fb_process_gc_cycles_total 12",
	).Replace(exposition)
	after, err := parseProm(strings.NewReader(later))
	if err != nil {
		t.Fatal(err)
	}
	h := histogramDelta(before, after, "fb_service_request_seconds", map[string]string{"op": "open"})
	if h.Count != 6 || math.Abs(h.Sum-0.006) > 1e-12 || math.Abs(h.Mean()-0.001) > 1e-12 {
		t.Errorf("open histogram delta = %+v (mean %g), want 6 observations of 1 ms", h, h.Mean())
	}
	if h := histogramDelta(before, after, "fb_service_request_seconds", map[string]string{"op": "close"}); h.Count != 0 || h.Mean() != 0 {
		t.Errorf("close histogram delta = %+v, want none", h)
	}
	if d := delta(before, after, "fb_process_gc_cycles_total", nil); d != 5 {
		t.Errorf("gc delta = %g, want 5", d)
	}
	if s := after.sum("fb_odd", nil); s != 5 {
		t.Errorf("sum over shards = %g, want 5", s)
	}
	if s := after.sum("fb_odd", map[string]string{"collection": `a "quoted" name`}); s != 2 {
		t.Errorf("sum with escaped label = %g, want 2", s)
	}
	if s := after.sum("fb_missing", nil); s != 0 {
		t.Errorf("sum of a missing family = %g", s)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"fb_x{op=\"a\" 1\n", "fb_x notanumber\n", "fb_x{op=a} 1\n", "lonely\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted malformed input", bad)
		}
	}
}

func TestEdgeSubtractsServerMean(t *testing.T) {
	// Client mean 500 µs; the server spent 1.2 ms over 4 requests.
	got := edgeMicros(0.0005, histDelta{Count: 4, Sum: 0.0012})
	if math.Abs(got-200) > 1e-9 {
		t.Errorf("edge = %g µs, want 200", got)
	}
	// No server observations: the whole client time is edge.
	if got := edgeMicros(0.0005, histDelta{}); math.Abs(got-500) > 1e-9 {
		t.Errorf("edge without server samples = %g µs, want 500", got)
	}
}

func TestWindowedP50IgnoresASlowWindow(t *testing.T) {
	// Ten windows of 10 ns, five samples each: 1 ms everywhere except a
	// slow period covering window 3.
	var vals []float64
	var due []int64
	for w := int64(0); w < 10; w++ {
		for i := int64(0); i < 5; i++ {
			v := 0.001 + float64(i)*1e-6
			if w == 3 {
				v = 0.1
			}
			vals = append(vals, v)
			due = append(due, 1000+w*10+i)
		}
	}
	got, n := windowedP50(vals, due, 1000, 100, 10)
	if n != 10 || got != 0.001002 {
		t.Errorf("windowed p50 = %v over %d windows, want 0.001002 over 10", got, n)
	}
	// Samples due past the end land in the last window, before the
	// start in the first; empty windows are not counted.
	got, n = windowedP50([]float64{3, 1, 2}, []int64{5000, 0, 5000}, 1000, 100, 10)
	if n != 2 || got != 1 {
		t.Errorf("clamped: p50 %v over %d windows, want 1 over 2", got, n)
	}
	if got, n := windowedP50([]float64{4, 2}, []int64{0, 0}, 0, 0, 0); n != 1 || got != 2 {
		t.Errorf("degenerate window: p50 %v over %d windows, want 2 over 1", got, n)
	}
}
