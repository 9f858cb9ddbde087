package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/knn"
	"repro/internal/obsv"
	"repro/internal/persist"
	"repro/internal/service"
	"repro/internal/shardedbypass"
	"repro/internal/store"
)

// collection is a workload's collection opened in-process the way
// fbserve opens it: the synthetic collection in the heap, the large one
// mmap'd from its FBMX file, with the IVF sidecar when the workload
// retrieves through it.
type collection struct {
	ds       *dataset.Dataset
	labels   []string          // item → category, the oracle's ground truth
	searcher knn.BatchSearcher // the serving retrieval tier
	exact    *knn.Scan
	mm       *store.MmapMatrix
	idx      *ann.Index
}

func openCollection(in *inputs, w workloadConfig, c config) (*collection, error) {
	col := &collection{}
	if w.Collection == "small" {
		ds, err := dataset.Build(imagegen.IMSILike(c.CollectionSeed, c.SmallScale), histogram.DefaultExtractor)
		if err != nil {
			return nil, err
		}
		col.ds = ds
		for _, it := range ds.Items {
			col.labels = append(col.labels, it.Category)
		}
	} else {
		labels, err := readLabels(in.path(largeLabels))
		if err != nil {
			return nil, err
		}
		mm, err := store.OpenMmap(w.collectionPath(in))
		if err != nil {
			return nil, err
		}
		col.mm = mm
		items := make([]dataset.Item, len(labels))
		for i, cat := range labels {
			items[i] = dataset.Item{ID: i, Category: cat}
		}
		if col.ds, err = dataset.FromBackend(mm, items, nil); err != nil {
			col.close()
			return nil, err
		}
		col.labels = labels
	}
	exact, err := knn.NewScanBackend(col.ds.Matrix())
	if err != nil {
		col.close()
		return nil, err
	}
	col.exact, col.searcher = exact, exact
	if w.Retrieval == "ivf" {
		idx, err := ann.OpenFBIX(in.path(largeIVFFBIX))
		if err != nil {
			col.close()
			return nil, err
		}
		col.idx = idx
		if err := idx.Bind(col.ds.Matrix()); err != nil {
			col.close()
			return nil, err
		}
		col.searcher = idx
	}
	return col, nil
}

func (col *collection) close() {
	if col.idx != nil {
		_ = col.idx.Close()
	}
	if col.mm != nil {
		_ = col.mm.Close()
	}
}

// coldQuery is the query point and weights an untrained bypass predicts
// for item: the item's own feature under uniform weights.
func coldQuery(col *collection, item int) (q, w []float64, err error) {
	codec, err := core.NewHistogramCodec(col.ds.Dim)
	if err != nil {
		return nil, nil, err
	}
	zero := core.OQP{Delta: make([]float64, codec.D()), Weights: codec.DefaultWeights()}
	return codec.DecodeOQP(col.ds.Items[item].Feature, zero)
}

// oracleScores scores a result page for a query of the given category:
// 1 for an item of the same category, 0 otherwise.
func oracleScores(labels []string, cat string, idx []int) []float64 {
	scores := make([]float64, len(idx))
	for i, j := range idx {
		if labels[j] == cat {
			scores[i] = 1
		}
	}
	return scores
}

func resultIndices(rs []knn.Result) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Index
	}
	return out
}

// playSession plays one session in-process with the category oracle:
// open, feedback until converged, close. It returns the feedback rounds
// played. With a tracer, each service call is a root span tagged with
// request id reqBase+n.
func playSession(ctx context.Context, svc *service.Service, col *collection, item, k int, tr *tracer, reqBase int) (int, error) {
	cat := col.labels[item]
	tr.setRequest(reqBase)
	id := tr.begin("service.open")
	st, err := svc.Open(ctx, col.ds.Items[item].Feature, k)
	tr.end(id, 0)
	if err != nil {
		return 0, fmt.Errorf("open item %d: %w", item, err)
	}
	rounds := 0
	for !st.Converged {
		rounds++
		tr.setRequest(reqBase + rounds)
		id := tr.begin("service.feedback")
		st, err = svc.Feedback(ctx, st.ID, oracleScores(col.labels, cat, resultIndices(st.Results)))
		tr.end(id, 0)
		if err != nil {
			return rounds, fmt.Errorf("feedback item %d: %w", item, err)
		}
	}
	tr.setRequest(reqBase + rounds + 1)
	id = tr.begin("service.close")
	_, err = svc.Close(ctx, st.ID)
	tr.end(id, 0)
	if err != nil {
		return rounds, fmt.Errorf("close item %d: %w", item, err)
	}
	return rounds, nil
}

// traceResult is what the traced replay measured.
type traceResult struct {
	Spans      []span
	Sessions   int
	Inserts    int
	RecallAtK  float64
	RecallN    int
	WriteBytes int64
}

// runTrace rebuilds the workload's serving composition in-process with
// timing decorators on the engine's searcher, the service's bypass and
// the durable module's filesystem. It first plays the warm sessions
// untraced, as the HTTP run's first saturation half does before its
// measured phase, so the replay starts from the bypass state the server
// was measured in. Then it replays the session script in order (no
// think time) until it ends or maxDur passes.
func runTrace(c config, w workloadConfig, in *inputs, warm []int, plan []plannedSession, maxDur time.Duration, workDir string) (traceResult, error) {
	var res traceResult
	col, err := openCollection(in, w, c)
	if err != nil {
		return res, err
	}
	defer col.close()
	tr := newTracer()
	reg := obsv.NewRegistry()
	labels := []obsv.Label{obsv.L("collection", "default")}
	if col.idx != nil {
		col.idx.Observe(reg, labels...)
	}
	searcher := &tracedSearcher{inner: col.searcher, tr: tr, sampleEvery: 8}
	eng, err := engine.New(col.ds, engine.Options{Searcher: searcher})
	if err != nil {
		return res, err
	}
	codec, err := core.NewHistogramCodec(col.ds.Dim)
	if err != nil {
		return res, err
	}
	var inner service.Bypass
	switch w.Bypass {
	case "memory":
		if inner, err = core.New(codec.D(), codec.P(), treeConfig(codec)); err != nil {
			return res, err
		}
	case "durable":
		dir := filepath.Join(workDir, "trace-module")
		if err := copyTree(in.path(durableTmpl), dir); err != nil {
			return res, err
		}
		sh, err := shardedbypass.Open(dir, codec.D(), codec.P(), treeConfig(codec), shardedbypass.Options{
			Shards: w.Shards,
			Durable: core.DurableOptions{
				CompactEvery: w.CompactEvery, Sync: w.Sync,
				FS: &tracedFS{inner: persist.OSFS, tr: tr},
			},
			Obs: reg, ObsLabels: labels,
		})
		if err != nil {
			return res, err
		}
		defer sh.Close()
		inner = sh
	default:
		return res, fmt.Errorf("unknown bypass %q", w.Bypass)
	}
	byp, err := wrapBypass(inner, tr)
	if err != nil {
		return res, err
	}
	svc, err := service.New(eng, byp, service.Options{DefaultK: c.K, Obs: reg, ObsLabels: labels})
	if err != nil {
		return res, err
	}

	for _, item := range warm {
		if _, err := playSession(context.Background(), svc, col, item, c.K, nil, 0); err != nil {
			return res, fmt.Errorf("warm-up: %w", err)
		}
	}
	searcher.calls, searcher.samples = 0, nil

	tr.enable(true)
	deadline := time.Now().Add(maxDur)
	req := 0
	for _, p := range plan {
		if time.Now().After(deadline) {
			break
		}
		rounds, err := playSession(context.Background(), svc, col, p.Item, c.K, tr, req)
		if err != nil {
			return res, err
		}
		req += rounds + 2
		res.Sessions++
	}
	tr.enable(false)
	res.Spans = tr.snapshot()
	for _, s := range res.Spans {
		switch s.Name {
		case "core.insert":
			res.Inserts++
		case "persist.write":
			res.WriteBytes += s.Bytes
		}
	}
	res.RecallN = len(searcher.samples)
	if res.RecallAtK, err = searcher.recall(col.exact); err != nil {
		return res, err
	}
	return res, nil
}

// weighted is the engine's retrieval metric for weights w.
func weighted(w []float64) (distance.Metric, error) {
	m, err := distance.NewWeightedEuclidean(w)
	if err != nil {
		return nil, fmt.Errorf("weighted metric: %w", err)
	}
	return m, nil
}

// samePage reports whether a served page equals an in-process result
// list, index for index and distance for distance.
func samePage(got []wireResult, want []knn.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Index != want[i].Index || got[i].Distance != want[i].Distance {
			return false
		}
	}
	return true
}
