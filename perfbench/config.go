package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// configJSON holds the fixed settings of every workload: arrival rates,
// collection sizes, the recall floor and the layer-to-end-to-end
// prediction table. BENCHMARK.json carries only the metric contract.
//
//go:embed config.json
var configJSON []byte

type annConfig struct {
	NList  int   `json:"nlist"`
	NProbe int   `json:"nprobe"`
	Seed   int64 `json:"seed"`
}

type workloadConfig struct {
	Rate         float64 `json:"rate_sessions_per_s"`
	ZipfS        float64 `json:"zipf_s"`
	Collection   string  `json:"collection"` // "small" (synthetic, heap) or "large" (FBMX, mmap)
	Retrieval    string  `json:"retrieval"`  // "scan" or "ivf"
	Bypass       string  `json:"bypass"`     // "memory" or "durable"
	Shards       int     `json:"shards"`
	Sync         bool    `json:"sync"`
	CompactEvery int     `json:"compact_every"`
	SatSessions  int     `json:"sat_sessions"` // closed-loop sessions in each half of the saturation phase
	Note         string  `json:"note"`
}

type prediction struct {
	LayerMetrics []string `json:"layer_metrics"`
	Source       string   `json:"source"`
	Moves        []string `json:"moves"`
	Workloads    string   `json:"workloads"`
}

type config struct {
	K                 int                       `json:"k"`
	CollectionSeed    int64                     `json:"collection_seed"`
	SmallScale        float64                   `json:"small_scale"`
	LargeScale        float64                   `json:"large_scale"`
	ANN               annConfig                 `json:"ann"`
	TemplateSessions  int                       `json:"template_sessions"`
	TemplateSeed      uint64                    `json:"template_seed"`
	SetupTrials       int                       `json:"setup_trials"`
	Assumptions       map[string]string         `json:"assumptions"` // traffic-shape settings no source fixes, with what they set
	ThinkMillis       float64                   `json:"think_ms"`
	DrainSeconds      float64                   `json:"drain_seconds"`
	MaxLateP99Millis  float64                   `json:"max_late_p99_ms"`
	RecallFloor       float64                   `json:"recall_floor"`
	CheckSample       int                       `json:"check_sample"`
	P50Windows        int                       `json:"p50_windows"`
	TraceMaxSeconds   float64                   `json:"trace_max_seconds"`
	TraceServiceRatio [2]float64                `json:"trace_service_ratio"`
	Workloads         map[string]workloadConfig `json:"workloads"`
	Predictions       []prediction              `json:"predictions"`
}

func loadConfig() (config, error) {
	var c config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return c, fmt.Errorf("parsing config.json: %w", err)
	}
	return c, nil
}

func (c config) workloadNames() []string {
	names := make([]string, 0, len(c.Workloads))
	for n := range c.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (c config) think() time.Duration {
	return time.Duration(c.ThinkMillis * float64(time.Millisecond))
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// collectionPath is the FBMX file a large-collection workload's server
// and checks read. The IVF workload reads a second link of the same file
// whose directory also holds the FBIX sidecar, which fbserve loads
// automatically.
func (w workloadConfig) collectionPath(in *inputs) string {
	if w.Retrieval == "ivf" {
		return in.path(largeIVFFBMX)
	}
	return in.path(largeFBMX)
}

// serverArgs are the fbserve flags of a workload; dir is the fresh copy
// of the durable template for durable workloads, "" otherwise.
func (w workloadConfig) serverArgs(c config, in *inputs, addr, dir string) []string {
	args := []string{"-addr", addr, "-k", strconv.Itoa(c.K)}
	if w.Collection == "small" {
		args = append(args, "-collection",
			fmt.Sprintf("default=synth:scale=%g,seed=%d", c.SmallScale, c.CollectionSeed))
	} else {
		args = append(args, "-collection", "default="+w.collectionPath(in))
	}
	if w.Bypass == "durable" {
		args = append(args, "-dir", dir, "-shards", strconv.Itoa(w.Shards),
			"-compact-every", strconv.Itoa(w.CompactEvery))
		if w.Sync {
			args = append(args, "-sync")
		}
	}
	return args
}

// relBuild names a path under the checkout's build directory.
func relBuild(root string, parts ...string) string {
	return filepath.Join(append([]string{root, ".bench_build"}, parts...)...)
}
