package main

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/shardedbypass"
)

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	parent := span{ID: 0, Parent: -1, Start: 0, End: 100}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 50, End: 80}}, 60},
		{"overlapping count once", []span{{Start: 10, End: 30}, {Start: 20, End: 40}}, 70},
		{"nested", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"clipped to parent", []span{{Start: -5, End: 10}, {Start: 90, End: 120}}, 80},
		{"outside parent", []span{{Start: 150, End: 160}}, 100},
		{"unsorted", []span{{Start: 70, End: 90}, {Start: 0, End: 10}}, 70},
		{"covers all", []span{{Start: 0, End: 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerParentsAndChildren(t *testing.T) {
	tr := newTracer()
	if id := tr.begin("off"); id != -1 {
		t.Fatalf("a disabled tracer recorded span %d", id)
	}
	tr.enable(true)
	tr.setRequest(3)
	root := tr.begin("service.open")
	a := tr.begin("core.predict")
	tr.end(a, 0)
	b := tr.begin("engine.retrieve")
	c := tr.begin("persist.write")
	tr.end(c, 42)
	tr.end(b, 0)
	tr.end(root, 0)
	spans := tr.snapshot()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	wantParent := map[string]int{"service.open": -1, "core.predict": root, "engine.retrieve": root, "persist.write": b}
	for _, s := range spans {
		if s.Parent != wantParent[s.Name] || s.Req != 3 || s.End < s.Start {
			t.Errorf("span %+v: want parent %d, request 3", s, wantParent[s.Name])
		}
	}
	kids := childrenOf(spans)
	if len(kids[root]) != 2 || len(kids[b]) != 1 || kids[b][0].Bytes != 42 {
		t.Errorf("children: root %v, retrieve %v", kids[root], kids[b])
	}
	// Self time plus direct children account for the root span.
	var child int64
	for _, k := range kids[root] {
		child += k.dur()
	}
	if got := selfTime(spans[root], kids[root]) + child; got != spans[root].dur() {
		t.Errorf("self + children = %d, span = %d", got, spans[root].dur())
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x"), 0) // must not panic
}

// The wrapper must expose exactly the optional surfaces of the bypass it
// wraps, so the service takes the same branches with and without it.
func TestWrapBypassKeepsOptionalSurfaces(t *testing.T) {
	codec, err := core.NewHistogramCodec(32)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := core.New(codec.D(), codec.P(), treeConfig(codec))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shardedbypass.Open(filepath.Join(t.TempDir(), "m"), codec.D(), codec.P(), treeConfig(codec),
		shardedbypass.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for _, inner := range []service.Bypass{mem, sh} {
		w, err := wrapBypass(inner, nil)
		if err != nil {
			t.Fatal(err)
		}
		surfaces := func(b service.Bypass) [3]bool {
			_, p := b.(service.PartitionedBypass)
			_, d := b.(service.DegradableBypass)
			_, c := b.(service.CompactableBypass)
			return [3]bool{p, d, c}
		}
		if got, want := surfaces(w), surfaces(inner); got != want {
			t.Errorf("%T wrapped exposes %v, unwrapped %v", inner, got, want)
		}
	}
}

func TestCheckSpansCatchesBrokenStructure(t *testing.T) {
	good := func() []span {
		return []span{
			{ID: 0, Parent: -1, Req: 1, Name: "service.open", Start: 0, End: 100},
			{ID: 1, Parent: 0, Req: 1, Name: "core.predict", Start: 5, End: 20},
			{ID: 2, Parent: 0, Req: 1, Name: "engine.retrieve", Start: 25, End: 90},
			{ID: 3, Parent: -1, Req: 2, Name: "service.close", Start: 110, End: 150},
			{ID: 4, Parent: 3, Req: 2, Name: "core.insert", Start: 115, End: 140},
			{ID: 5, Parent: 4, Req: 2, Name: "persist.write", Start: 120, End: 130, Bytes: 64},
			{ID: 6, Parent: -1, Req: 3, Name: "service.feedback", Start: 160, End: 170},
			{ID: 7, Parent: 6, Req: 3, Name: "engine.retrieve", Start: 163, End: 168},
		}
	}
	if err := checkSpans(good()); err != nil {
		t.Fatalf("well-formed spans rejected: %v", err)
	}
	if err := checkSpans(good()[:7]); err != nil {
		t.Fatalf("feedback without retrieval rejected: %v", err)
	}
	breaks := map[string]func(s []span){
		"unclosed":            func(s []span) { s[5].End = 0 },
		"child ends late":     func(s []span) { s[2].End = 101 },
		"child starts early":  func(s []span) { s[5].Start = 114 },
		"other request":       func(s []span) { s[4].Req = 1 },
		"retrieval missing":   func(s []span) { s[2].Name = "core.other" },
		"retrieval repeated":  func(s []span) { s[1].Name = "engine.retrieve" },
		"retrieval elsewhere": func(s []span) { s[2].Parent, s[2].Req, s[2].Start, s[2].End = 3, 2, 111, 112 },
		"two in a feedback": func(s []span) {
			s[1] = span{ID: 1, Parent: 6, Req: 3, Name: "engine.retrieve", Start: 161, End: 162}
		},
	}
	for name, mutate := range breaks {
		s := good()
		mutate(s)
		if err := checkSpans(s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
