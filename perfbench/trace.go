package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/knn"
	"repro/internal/persist"
	"repro/internal/service"
	"repro/internal/shardedbypass"
	"repro/internal/simplextree"
)

// span is one timed call across a layer boundary of the traced replay.
// Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Req    int    `json:"req"`    // request the span belongs to; -1 outside requests
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory. The replay drives the service from
// one goroutine, so the open-span stack gives every span its parent;
// the mutex only guards against persistence calls from other goroutines
// while recording is off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	req   int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), req: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// setRequest tags the spans that follow with a request id.
func (t *tracer) setRequest(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.req = id
	t.mu.Unlock()
}

func (t *tracer) enable(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin opens a span and returns its id, or -1 when not recording.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, recording bytes moved by it.
func (t *tracer) end(id int, bytes int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
	t.spans[id].Bytes = bytes
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of its interval covered
// by its direct children (overlapping children count once; parts of a
// child outside the span do not count).
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// checkSpans verifies the structure of a replay's spans, whose ids are
// their positions: every span closed, every child inside its parent's
// interval and request, exactly one retrieval under each service open
// and at most one under each feedback (none when no result was scored
// relevant), so the searcher decorator saw every retrieval the service
// made. It returns the first violation.
func checkSpans(spans []span) error {
	retrievals := map[int]int{}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) never closed", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End || s.Req != p.Req {
			return fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		if s.Name == "engine.retrieve" {
			root := p
			for root.Parent >= 0 {
				root = spans[root.Parent]
			}
			retrievals[root.ID]++
		}
	}
	for _, s := range spans {
		n := retrievals[s.ID]
		if s.Parent < 0 && ((s.Name == "service.open" && n != 1) || (s.Name == "service.feedback" && n > 1)) {
			return fmt.Errorf("%s span %d holds %d retrievals", s.Name, s.ID, n)
		}
	}
	return nil
}

// childrenOf indexes spans by parent id.
func childrenOf(spans []span) map[int][]span {
	out := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// tracedSearcher times every retrieval through the engine's
// knn.BatchSearcher seam. Every sampleEvery-th single query is kept so
// recall can be measured against the exact scan after the replay,
// outside every span.
type tracedSearcher struct {
	inner       knn.BatchSearcher
	tr          *tracer
	sampleEvery int
	calls       int
	samples     []searchSample
}

// searchSample is one retrieval kept for the recall check.
type searchSample struct {
	q   []float64
	k   int
	m   distance.Metric
	got []knn.Result
}

func (s *tracedSearcher) Search(q []float64, k int, m distance.Metric) ([]knn.Result, error) {
	id := s.tr.begin("engine.retrieve")
	res, err := s.inner.Search(q, k, m)
	s.tr.end(id, 0)
	s.calls++
	if err == nil && s.sampleEvery > 0 && s.calls%s.sampleEvery == 0 {
		s.samples = append(s.samples, searchSample{
			q: append([]float64(nil), q...), k: k, m: m, got: append([]knn.Result(nil), res...),
		})
	}
	return res, err
}

// recall is the mean overlap of the kept retrievals with the exact scan.
func (s *tracedSearcher) recall(exact *knn.Scan) (float64, error) {
	sum := 0.0
	for _, smp := range s.samples {
		want, err := exact.Search(smp.q, smp.k, smp.m)
		if err != nil {
			return 0, err
		}
		sum += overlap(smp.got, want)
	}
	return ratio(sum, float64(len(s.samples))), nil
}

func (s *tracedSearcher) SearchBatchMulti(qs [][]float64, k int, ms []distance.Metric) ([][]knn.Result, error) {
	id := s.tr.begin("engine.retrieve")
	res, err := s.inner.SearchBatchMulti(qs, k, ms)
	s.tr.end(id, 0)
	return res, err
}

func (s *tracedSearcher) Len() int         { return s.inner.Len() }
func (s *tracedSearcher) Describe() string { return s.inner.Describe() }

// overlap is |got ∩ want| / |want| by item index.
func overlap(got, want []knn.Result) float64 {
	if len(want) == 0 {
		return 1
	}
	in := make(map[int]bool, len(want))
	for _, r := range want {
		in[r.Index] = true
	}
	hit := 0
	for _, r := range got {
		if in[r.Index] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// tracedBypass times Predict and Insert of a service.Bypass.
type tracedBypass struct {
	inner service.Bypass
	tr    *tracer
}

func (b *tracedBypass) D() int                   { return b.inner.D() }
func (b *tracedBypass) P() int                   { return b.inner.P() }
func (b *tracedBypass) Stats() simplextree.Stats { return b.inner.Stats() }

func (b *tracedBypass) Predict(q []float64) (core.OQP, error) {
	id := b.tr.begin("core.predict")
	oqp, err := b.inner.Predict(q)
	b.tr.end(id, 0)
	return oqp, err
}

func (b *tracedBypass) Insert(q []float64, oqp core.OQP) (bool, error) {
	id := b.tr.begin("core.insert")
	ok, err := b.inner.Insert(q, oqp)
	b.tr.end(id, 0)
	return ok, err
}

// tracedCompactable forwards the lifecycle surface of an unsharded
// bypass (core.Bypass).
type tracedCompactable struct {
	tracedBypass
	comp service.CompactableBypass
}

func (b *tracedCompactable) CompactAged() ([]core.CompactionStats, error) {
	return b.comp.CompactAged()
}

// tracedSharded forwards every optional surface of a sharded bypass
// (shardedbypass.Sharded), so the service keeps per-shard cache
// generations and health exactly as it does without the wrapper.
type tracedSharded struct {
	tracedCompactable
	parts service.PartitionedBypass
	deg   service.DegradableBypass
}

func (b *tracedSharded) NumShards() int                        { return b.parts.NumShards() }
func (b *tracedSharded) ShardOf(q []float64) int               { return b.parts.ShardOf(q) }
func (b *tracedSharded) ShardInfos() []shardedbypass.ShardInfo { return b.parts.ShardInfos() }
func (b *tracedSharded) Degraded() error                       { return b.deg.Degraded() }

// wrapBypass wraps inner in the tracing decorator that exposes the same
// optional surfaces inner has. Combinations no bypass of the repository
// has are refused rather than silently narrowed.
func wrapBypass(inner service.Bypass, tr *tracer) (service.Bypass, error) {
	base := tracedBypass{inner: inner, tr: tr}
	parts, isParts := inner.(service.PartitionedBypass)
	deg, isDeg := inner.(service.DegradableBypass)
	comp, isComp := inner.(service.CompactableBypass)
	switch {
	case isParts && isDeg && isComp:
		return &tracedSharded{tracedCompactable: tracedCompactable{base, comp}, parts: parts, deg: deg}, nil
	case !isParts && !isDeg && isComp:
		return &tracedCompactable{base, comp}, nil
	case !isParts && !isDeg && !isComp:
		return &base, nil
	default:
		return nil, fmt.Errorf("tracing: no wrapper for %T (partitioned=%v degradable=%v compactable=%v)",
			inner, isParts, isDeg, isComp)
	}
}

// tracedFS times and counts the persistence layer's filesystem calls.
type tracedFS struct {
	inner persist.FS
	tr    *tracer
}

func (f *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, tr: f.tr}, nil
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	id := f.tr.begin("persist.rename")
	err := f.inner.Rename(oldpath, newpath)
	f.tr.end(id, 0)
	return err
}

func (f *tracedFS) Remove(name string) error                     { return f.inner.Remove(name) }
func (f *tracedFS) MkdirAll(path string, perm os.FileMode) error { return f.inner.MkdirAll(path, perm) }
func (f *tracedFS) Stat(name string) (os.FileInfo, error)        { return f.inner.Stat(name) }
func (f *tracedFS) ReadFile(name string) ([]byte, error)         { return f.inner.ReadFile(name) }

func (f *tracedFS) SyncDir(dir string) error {
	id := f.tr.begin("persist.fsync")
	err := f.inner.SyncDir(dir)
	f.tr.end(id, 0)
	return err
}

type tracedFile struct {
	persist.File
	tr *tracer
}

func (f *tracedFile) Write(p []byte) (int, error) {
	id := f.tr.begin("persist.write")
	n, err := f.File.Write(p)
	f.tr.end(id, int64(n))
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	id := f.tr.begin("persist.write")
	n, err := f.File.WriteAt(p, off)
	f.tr.end(id, int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	id := f.tr.begin("persist.fsync")
	err := f.File.Sync()
	f.tr.end(id, 0)
	return err
}
