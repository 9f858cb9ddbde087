package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// tailPercentiles are the candidate tail percentiles, highest first. A
// timing reports the highest one that leaves at least minBeyond samples
// strictly above it, so a tail figure is never read off a single sample.
var tailPercentiles = []float64{99.9, 99, 98, 95, 90, 80, 75, 50}

// minBeyond is the number of samples a reported percentile must leave
// above it.
const minBeyond = 10

// quantile is one percentile of a sample set together with the sample
// count it was read from.
type quantile struct {
	P     float64 // percentile, 0-100
	Value float64
	N     int
}

// nearestRank returns the index into n sorted samples of the p-th
// percentile under the nearest-rank rule.
func nearestRank(n int, p float64) int {
	// The epsilon keeps p·n that is integral in exact arithmetic from
	// rounding up a rank through floating-point error.
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// percentileOf reads the p-th percentile of ascending samples.
func percentileOf(sorted []float64, p float64) quantile {
	if len(sorted) == 0 {
		return quantile{P: p}
	}
	return quantile{P: p, Value: sorted[nearestRank(len(sorted), p)], N: len(sorted)}
}

// tailOf reads the highest percentile of ascending samples that has at
// least minBeyond samples above it. With fewer than minBeyond+1 samples
// no percentile qualifies and the result has P = 0.
func tailOf(sorted []float64) quantile {
	n := len(sorted)
	for _, p := range tailPercentiles {
		if n-1-nearestRank(n, p) >= minBeyond {
			return percentileOf(sorted, p)
		}
	}
	return quantile{N: n}
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	return percentileOf(sortedCopy(xs), 50).Value
}

// windowedP50 splits samples by when each was due into n equal
// sub-windows of [lo, lo+span) and returns the median of the windows'
// p50s, with the number of windows that held samples. Samples due past
// the end count in the last window. While a host slow period covers
// fewer than half the windows, the result stays among the p50s of the
// windows it missed, where it would shift a whole-run p50 directly.
func windowedP50(vals []float64, due []int64, lo, span int64, n int) (float64, int) {
	if n < 1 || span <= 0 {
		n, span = 1, 1
	}
	wins := make([][]float64, n)
	for i, v := range vals {
		w := int((due[i] - lo) * int64(n) / span)
		w = min(max(w, 0), n-1)
		wins[w] = append(wins[w], v)
	}
	var p50s []float64
	for _, w := range wins {
		if len(w) > 0 {
			p50s = append(p50s, median(w))
		}
	}
	return median(p50s), len(p50s)
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// promSample is one sample line of a Prometheus text exposition.
type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// promScrape is a parsed exposition: sample values keyed by series
// (metric name plus sorted labels).
type promScrape map[string]promSample

// seriesKey renders a metric name and label set canonically.
func seriesKey(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	for _, k := range keys {
		fmt.Fprintf(&b, ",%s=%s", k, labels[k])
	}
	return b.String()
}

// parseProm parses the text exposition format the server writes:
// comment lines, then `name{k="v",...} value` or `name value` samples.
func parseProm(r io.Reader) (promScrape, error) {
	out := promScrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		s, err := parsePromLine(text)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[seriesKey(s.Name, s.Labels)] = s
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	return out, nil
}

func parsePromLine(text string) (promSample, error) {
	s := promSample{Labels: map[string]string{}}
	rest := text
	if i := strings.IndexByte(text, '{'); i >= 0 {
		j := strings.LastIndexByte(text, '}')
		if j < i {
			return s, fmt.Errorf("unbalanced labels in %q", text)
		}
		s.Name = text[:i]
		if err := parsePromLabels(text[i+1:j], s.Labels); err != nil {
			return s, fmt.Errorf("%q: %w", text, err)
		}
		rest = strings.TrimSpace(text[j+1:])
	} else {
		name, val, ok := strings.Cut(text, " ")
		if !ok {
			return s, fmt.Errorf("no value in %q", text)
		}
		s.Name, rest = name, strings.TrimSpace(val)
	}
	// A timestamp may follow the value; the server writes none.
	if f := strings.Fields(rest); len(f) > 0 {
		rest = f[0]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("value of %q: %w", text, err)
	}
	s.Value = v
	return s, nil
}

func parsePromLabels(body string, into map[string]string) error {
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			return fmt.Errorf("malformed label list %q", body)
		}
		key := strings.TrimSpace(body[:eq])
		var val strings.Builder
		i := eq + 2
		for ; i < len(body) && body[i] != '"'; i++ {
			if body[i] == '\\' && i+1 < len(body) {
				i++
				switch body[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(body[i])
				}
				continue
			}
			val.WriteByte(body[i])
		}
		if i >= len(body) {
			return fmt.Errorf("unterminated label value in %q", body)
		}
		into[key] = val.String()
		body = strings.TrimPrefix(strings.TrimSpace(body[i+1:]), ",")
	}
	return nil
}

// sum adds every sample of the named metric whose labels include all of
// match.
func (p promScrape) sum(name string, match map[string]string) float64 {
	total := 0.0
	for _, s := range p {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.Value
		}
	}
	return total
}

// delta is the change of a counter-like sum between two scrapes.
func delta(before, after promScrape, name string, match map[string]string) float64 {
	return after.sum(name, match) - before.sum(name, match)
}

// histDelta is the observation count and sum a histogram family gained
// between two scrapes, over every series matching match.
type histDelta struct {
	Count, Sum float64
}

func histogramDelta(before, after promScrape, family string, match map[string]string) histDelta {
	return histDelta{
		Count: delta(before, after, family+"_count", match),
		Sum:   delta(before, after, family+"_sum", match),
	}
}

// Mean returns the mean observation, 0 when nothing was observed.
func (h histDelta) Mean() float64 { return ratio(h.Sum, h.Count) }

// edgeMicros is the per-request time outside the service layer: the
// client's mean latency minus the server's mean service time for the
// same operation, both in seconds, reported in microseconds. It covers
// the HTTP edge — connection, parsing, JSON, routing — plus any time the
// request queued for a CPU.
func edgeMicros(clientMeanSecs float64, server histDelta) float64 {
	return (clientMeanSecs - server.Mean()) * 1e6
}
