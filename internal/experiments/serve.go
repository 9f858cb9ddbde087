package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/service"
)

// ServeConfig drives the closed-loop serving benchmark: oracle-driven
// sessions (the session-replay protocol of §5, §ProcessQuery, re-cast as
// concurrent clients) against one shared service.
type ServeConfig struct {
	// Seed makes the collection and query streams deterministic.
	Seed int64
	// Scale multiplies the paper's collection cardinality.
	Scale float64
	// K is the result-list size per session.
	K int
	// Epsilon is the Simplex Tree insert threshold ε.
	Epsilon float64
	// SessionsPerLevel is the number of complete sessions each
	// concurrency level runs.
	SessionsPerLevel int
	// Levels are the closed-loop client counts to measure (default
	// 1, 4, 8, 16).
	Levels []int
	// IterationBudget bounds feedback rounds per session.
	IterationBudget int
	// CacheSize is the service's LRU prediction cache capacity.
	CacheSize int
}

// DefaultServeConfig is the operating point of the committed benchmark
// artifact.
func DefaultServeConfig() ServeConfig {
	return ServeConfig{
		Seed:             1,
		Scale:            0.3,
		K:                10,
		Epsilon:          0.05,
		SessionsPerLevel: 128,
		Levels:           []int{1, 4, 8, 16},
	}
}

// ServePhaseResult measures one phase of a concurrency level: a set of
// complete sessions with their throughput, per-operation latency
// distribution, and bypass effectiveness.
type ServePhaseResult struct {
	Sessions int `json:"sessions"`
	// Ops counts service calls (Open + Feedback + Close).
	Ops int `json:"ops"`
	// Feedbacks counts feedback rounds across the phase's sessions.
	Feedbacks int     `json:"feedbacks"`
	WallSecs  float64 `json:"wall_secs"`
	// SessionsPerSec is completed sessions per wall-clock second.
	SessionsPerSec float64 `json:"sessions_per_sec"`
	// Open, Feedback and Close are the per-op-kind latency
	// distributions.
	Open     OpLatency `json:"open"`
	Feedback OpLatency `json:"feedback"`
	Close    OpLatency `json:"close"`
	// CacheHitRate is LRU hits / predictions; WarmRate the fraction of
	// sessions whose prediction was non-default (the tree had learned the
	// region); Inserted the closes that changed the tree.
	CacheHitRate float64 `json:"cache_hit_rate"`
	WarmRate     float64 `json:"warm_rate"`
	Inserted     int64   `json:"inserted"`
}

// ServeLevelResult is one row of the serving benchmark. Each level runs
// two phases at the same client count: Train — interactive sessions
// driving the oracle feedback loop to convergence and inserting outcomes
// (inserts invalidate the prediction cache, so its hit rate is naturally
// near zero here) — and Bypass, the paper's payoff workload: the same
// query stream re-issued without feedback, answered straight from the
// trained tree through the LRU cache.
type ServeLevelResult struct {
	Clients int              `json:"clients"`
	Train   ServePhaseResult `json:"train"`
	Bypass  ServePhaseResult `json:"bypass"`
}

// ServeResult is the full benchmark output.
type ServeResult struct {
	Collection int                `json:"collection"`
	Dim        int                `json:"dim"`
	K          int                `json:"k"`
	Levels     []ServeLevelResult `json:"levels"`
	// FinalStats snapshots the service after every level ran (the tree
	// keeps warming across levels — levels are a time series over one
	// service, not independent trials).
	FinalStats service.Stats `json:"final_stats"`
}

// RunServe builds a collection, a shared engine + Bypass + service, and
// measures closed-loop oracle-driven sessions at each concurrency level.
// The service is shared across levels, so later levels run against a
// warmer tree — exactly a production service's trajectory.
func RunServe(cfg ServeConfig) (ServeResult, error) {
	if cfg.Scale <= 0 {
		return ServeResult{}, fmt.Errorf("experiments: scale must be positive, got %v", cfg.Scale)
	}
	if cfg.SessionsPerLevel <= 0 {
		return ServeResult{}, fmt.Errorf("experiments: need at least one session per level, got %d", cfg.SessionsPerLevel)
	}
	if cfg.K <= 0 {
		return ServeResult{}, fmt.Errorf("experiments: k must be positive, got %d", cfg.K)
	}
	if len(cfg.Levels) == 0 {
		cfg.Levels = []int{1, 4, 8, 16}
	}
	ds, err := dataset.Build(imagegen.IMSILike(cfg.Seed, cfg.Scale), histogram.DefaultExtractor)
	if err != nil {
		return ServeResult{}, err
	}
	eng, err := engine.New(ds, engine.Options{})
	if err != nil {
		return ServeResult{}, err
	}
	codec, err := core.NewHistogramCodec(ds.Dim)
	if err != nil {
		return ServeResult{}, err
	}
	byp, err := core.New(codec.D(), codec.P(), core.Config{
		Epsilon:        cfg.Epsilon,
		DefaultWeights: codec.DefaultWeights(),
	})
	if err != nil {
		return ServeResult{}, err
	}
	svc, err := service.New(eng, byp, service.Options{
		MaxSessions:     1 << 16, // closed loop: admission never binds
		IterationBudget: cfg.IterationBudget,
		CacheSize:       cfg.CacheSize,
		DefaultK:        cfg.K,
	})
	if err != nil {
		return ServeResult{}, err
	}
	out := ServeResult{Collection: ds.Len(), Dim: ds.Dim, K: cfg.K}
	for _, clients := range cfg.Levels {
		if clients <= 0 {
			return ServeResult{}, fmt.Errorf("experiments: non-positive client count %d", clients)
		}
		level, err := runServeLevel(svc, ds, cfg, clients)
		if err != nil {
			return ServeResult{}, err
		}
		out.Levels = append(out.Levels, level)
	}
	out.FinalStats = svc.Stats()
	return out, nil
}

// runServeLevel measures one concurrency level: a train phase (feedback
// loops to convergence, outcomes inserted) followed by a bypass phase
// (the same query stream re-issued without feedback) at the same client
// count.
func runServeLevel(svc *service.Service, ds *dataset.Dataset, cfg ServeConfig, clients int) (ServeLevelResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(clients)*1009))
	items, err := ds.SampleQueries(rng, cfg.SessionsPerLevel)
	if err != nil {
		return ServeLevelResult{}, err
	}
	train, err := runServePhase(svc, ds, cfg.K, clients, items, true)
	if err != nil {
		return ServeLevelResult{}, err
	}
	// The bypass phase re-issues the stream twice: every query in the
	// first pass misses the (insert-invalidated) cache and fills it; the
	// second pass models the repeat traffic an interactive service
	// actually sees and is answered from the LRU.
	twice := make([]int, 0, 2*len(items))
	twice = append(twice, items...)
	twice = append(twice, items...)
	bypass, err := runServePhase(svc, ds, cfg.K, clients, twice, false)
	if err != nil {
		return ServeLevelResult{}, err
	}
	return ServeLevelResult{Clients: clients, Train: train, Bypass: bypass}, nil
}

// runServePhase drives `clients` goroutines through complete sessions
// over the shared query stream. With feedback, sessions run the oracle
// loop to convergence; without, they are pure bypass reads (Open + Close).
func runServePhase(svc *service.Service, ds *dataset.Dataset, k, clients int, items []int, withFeedback bool) (ServePhaseResult, error) {
	before := svc.Stats()

	type clientOut struct {
		lat opLatencies
		err error
	}
	outs := make([]clientOut, clients)
	next := make(chan int)
	done := make(chan struct{})
	go func() {
		defer close(next)
		for i := range items {
			select {
			case next <- i:
			case <-done:
				return
			}
		}
	}()
	start := time.Now()
	wgDone := make(chan struct{}, clients)
	for c := 0; c < clients; c++ {
		go func(o *clientOut) {
			defer func() { wgDone <- struct{}{} }()
			p := sessionPlayer{svc: svc, ds: ds, k: k}
			for idx := range next {
				if _, o.err = p.play(ds.Items[items[idx]], withFeedback, &o.lat, nil); o.err != nil {
					return
				}
			}
		}(&outs[c])
	}
	for c := 0; c < clients; c++ {
		<-wgDone
	}
	close(done)
	wall := time.Since(start)

	var all opLatencies
	for c := range outs {
		if outs[c].err != nil {
			return ServePhaseResult{}, outs[c].err
		}
		for op := range all {
			all[op] = append(all[op], outs[c].lat[op]...)
		}
	}
	after := svc.Stats()

	res := ServePhaseResult{
		Sessions:       len(items),
		Ops:            all.count(),
		Feedbacks:      len(all[opFeedback]),
		WallSecs:       wall.Seconds(),
		SessionsPerSec: float64(len(items)) / wall.Seconds(),
		Open:           summarize(all[opOpen]),
		Feedback:       summarize(all[opFeedback]),
		Close:          summarize(all[opClose]),
		Inserted:       after.InsertsStored - before.InsertsStored,
	}
	if dp := after.Predictions - before.Predictions; dp > 0 {
		res.CacheHitRate = float64(after.CacheHits-before.CacheHits) / float64(dp)
	}
	if do := after.Opened - before.Opened; do > 0 {
		res.WarmRate = float64(after.WarmStarts-before.WarmStarts) / float64(do)
	}
	return res, nil
}

// sessionPlayer drives oracle-scored sessions against one service: the
// session-replay protocol of §5, with the category oracle standing in
// for the user.
type sessionPlayer struct {
	svc *service.Service
	ds  *dataset.Dataset
	k   int
}

// play runs one session for item: Open, then — with feedback — rounds
// scored by the item's category until the session converges, then
// Close. beforeClose, if non-nil, runs just before Close. When lat is
// non-nil each call's latency is appended to it by op kind.
func (p sessionPlayer) play(item dataset.Item, feedback bool, lat *opLatencies, beforeClose func()) (service.CloseResult, error) {
	ctx := context.Background()
	t0 := time.Now()
	st, err := p.svc.Open(ctx, item.Feature, p.k)
	lat.since(opOpen, t0)
	if err != nil {
		return service.CloseResult{}, err
	}
	for feedback && !st.Converged {
		scores := make([]float64, len(st.Results))
		for i, r := range st.Results {
			if p.ds.IsGood(r.Index, item.Category) {
				scores[i] = 1
			}
		}
		t0 = time.Now()
		st, err = p.svc.Feedback(ctx, st.ID, scores)
		lat.since(opFeedback, t0)
		if err != nil {
			return service.CloseResult{}, err
		}
	}
	if beforeClose != nil {
		beforeClose()
	}
	t0 = time.Now()
	res, err := p.svc.Close(ctx, st.ID)
	lat.since(opClose, t0)
	return res, err
}
