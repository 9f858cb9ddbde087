// Command perfbench is the session benchmark of fbserve: it starts the
// real server binary on one of three workloads, drives it with
// open-loop Poisson sessions played by a category oracle over HTTP,
// checks every answer, and prints end-to-end metrics (--trace 0) or
// per-layer metrics (--trace 1) as one JSON object on the last line of
// standard output.
//
// Run it through run.sh from the repository root, which builds both
// binaries first:
//
//	bash perfbench/run.sh --workload scan-large --seed 3 --seconds 20 --trace 0
//	bash perfbench/run.sh --list    # every metric with its unit, and the workloads
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// errInvalid marks a run whose generator fell behind its schedule: its
// figures would describe the generator, not the server.
var errInvalid = errors.New("invalid run")

func main() {
	var (
		root     = flag.String("root", ".", "repository checkout the benchmark runs in")
		fbserve  = flag.String("fbserve", "", "fbserve binary")
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Uint64("seed", 1, "workload seed: query stream, arrivals and think times")
		secs     = flag.Float64("seconds", 20, "length of the measured open-loop phase")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from a scraped HTTP run and a traced in-process replay")
		list     = flag.Bool("list", false, "print every metric with its unit, the workloads and the layer predictions, then exit")
		thinkMs  = flag.Float64("think-ms", -1, "override config.json's mean think time, to see how the metrics depend on it")
		zipfS    = flag.Float64("zipf-s", -1, "override the workload's Zipf exponent of query items (0: uniform)")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	cfg, err := loadConfig()
	if err != nil {
		log.Fatal(err)
	}
	if *list {
		if err := printList(*root, cfg); err != nil {
			log.Fatal(err)
		}
		return
	}
	w, ok := cfg.Workloads[*workload]
	if !ok {
		log.Fatalf("unknown workload %q (have %v)", *workload, cfg.workloadNames())
	}
	if *thinkMs >= 0 {
		cfg.ThinkMillis = *thinkMs
	}
	if *zipfS >= 0 {
		w.ZipfS = *zipfS
	}
	if *fbserve == "" {
		log.Fatal("-fbserve is required")
	}
	if *trace != 0 && *trace != 1 {
		log.Fatalf("--trace must be 0 or 1, got %d", *trace)
	}
	r := &run{
		cfg: cfg, w: w, name: *workload, seed: *seed, window: seconds(*secs),
		trace: *trace == 1, root: *root, bin: *fbserve,
	}
	res, err := r.execute()
	if errors.Is(err, errInvalid) {
		log.Printf("%v", err)
		os.Exit(3)
	}
	if err != nil {
		log.Fatal(err)
	}
	detail, err := json.Marshal(map[string]any{"detail": r.detail})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(detail))
	out, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark run of one workload.
type run struct {
	cfg    config
	w      workloadConfig
	name   string
	seed   uint64
	window time.Duration
	trace  bool
	root   string
	bin    string

	in      *inputs
	workDir string
	labels  []string
	detail  map[string]any
	metrics map[string]metric
	errs    []string
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.errs = append(r.errs, msg)
	log.Printf("check failed: %s", msg)
}

func (r *run) execute() (result, error) {
	r.detail = map[string]any{"workload": r.name, "seed": r.seed, "think_ms": r.cfg.ThinkMillis, "zipf_s": r.w.ZipfS}
	r.metrics = map[string]metric{}
	var err error
	if r.in, err = prepareInputs(r.root, r.cfg); err != nil {
		return result{}, fmt.Errorf("preparing inputs: %w", err)
	}
	r.detail["inputs_sha256"] = r.in.hash
	labelFile := largeLabels
	if r.w.Collection == "small" {
		labelFile = smallLabels
	}
	if r.labels, err = readLabels(r.in.path(labelFile)); err != nil {
		return result{}, err
	}
	r.workDir = relBuild(r.root, "runs", fmt.Sprintf("%s-seed%d-trace%v", r.name, r.seed, r.trace))
	if err := os.RemoveAll(r.workDir); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(r.workDir, 0o755); err != nil {
		return result{}, err
	}

	srv, err := r.setup()
	if err != nil {
		return result{}, err
	}
	defer srv.stop()
	ol, sat, err := r.drive(srv)
	if err != nil {
		return result{}, err
	}
	srv.stop()
	r.checkOutputs(append(ol.rec.cold, sat.cold...))
	if r.trace {
		if err := r.traced(); err != nil {
			return result{}, err
		}
	}
	// The durable copies are throwaway state; keep only logs and traces.
	for i := 0; i < r.cfg.SetupTrials; i++ {
		_ = os.RemoveAll(filepath.Join(r.workDir, fmt.Sprintf("module-%d", i)))
	}
	_ = os.RemoveAll(filepath.Join(r.workDir, "trace-module"))

	attempted := ol.rec.attempted + sat.attempted
	failed := ol.rec.failed + sat.failed
	r.detail["problems"] = r.errs
	return result{
		Correct:   len(r.errs) == 0 && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   r.metrics,
	}, nil
}

// setup starts the server SetupTrials times, each from a fresh process
// (and, for durable workloads, a fresh copy of the template module), and
// keeps the last one running. setup_s is the median time from exec to
// the first healthy /healthz.
func (r *run) setup() (*server, error) {
	var times []float64
	var srv *server
	for i := 0; i < r.cfg.SetupTrials; i++ {
		dir := ""
		if r.w.Bypass == "durable" {
			dir = filepath.Join(r.workDir, fmt.Sprintf("module-%d", i))
			if err := copyTree(r.in.path(durableTmpl), dir); err != nil {
				return nil, err
			}
		}
		s, d, err := startServer(r.bin, func(addr string) []string {
			return r.w.serverArgs(r.cfg, r.in, addr, dir)
		}, filepath.Join(r.workDir, fmt.Sprintf("fbserve-%d.log", i)), 60*time.Second)
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
		if i < r.cfg.SetupTrials-1 {
			s.stop()
			continue
		}
		srv = s
	}
	r.detail["setup_trials_s"] = times
	if !r.trace {
		r.set("setup_s", median(times), "s")
	}
	return srv, nil
}

// items draws the workload's query items from the given stream.
func (r *run) items(stream uint64) *itemSampler {
	return newItemSampler(r.seed, stream, len(r.labels), r.w.ZipfS, uint64(r.cfg.CollectionSeed))
}

// cpuSeconds is the generator's own user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// drive runs the open-loop phase between two scrapes, then the
// closed-loop saturation phase, and records the metrics both yield.
func (r *run) drive(srv *server) (openLoopResult, recorder, error) {
	conns := runtime.GOMAXPROCS(0)
	var clients []*client
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()
	for i := 0; i < conns; i++ {
		c, err := newClient(srv.addr, r.labels, r.cfg.K, r.cfg.CheckSample)
		if err != nil {
			return openLoopResult{}, recorder{}, err
		}
		clients = append(clients, c)
	}
	items := r.items(streamItems)
	plan := schedule(r.seed, r.w.Rate, r.window, items)
	r.detail["connections"] = conns
	r.detail["rate_sessions_per_s"] = r.w.Rate
	r.detail["sessions_scheduled"] = len(plan)

	// The saturation phase runs in two halves, before and after the
	// open-loop phase: the first half also warms the server (page cache,
	// learned tree, the first compactions of a durable module), and two
	// samples far apart in time steady the rate on a host whose speed
	// drifts.
	satItems := r.items(streamSatItems)
	satTime, sat := runClosedLoop(clients, satItems, r.labels, r.w.SatSessions)

	before, err := srv.scrape()
	if err != nil {
		return openLoopResult{}, recorder{}, err
	}
	cpu0 := cpuSeconds()
	steal0, ticks0 := cpuTicks()
	ol, err := runOpenLoop(clients, plan, r.labels, r.seed, r.cfg.think(), seconds(r.cfg.DrainSeconds))
	cpu := cpuSeconds() - cpu0
	steal1, ticks1 := cpuTicks()
	r.detail["host_steal_frac"] = ratio(float64(steal1-steal0), float64(ticks1-ticks0))
	if err != nil {
		return ol, recorder{}, err
	}
	after, err := srv.scrape()
	if err != nil {
		return ol, recorder{}, err
	}

	late := percentileOf(sortedCopy(ol.late), 99)
	r.detail["driver_late"] = late
	if lateMs := late.Value * 1e3; lateMs > r.cfg.MaxLateP99Millis {
		return ol, recorder{}, fmt.Errorf("%w: generator dispatched p%g %.2f ms late (bound %.1f ms)",
			errInvalid, late.P, lateMs, r.cfg.MaxLateP99Millis)
	}

	d, rec := runClosedLoop(clients, satItems, r.labels, r.w.SatSessions)
	satTime += d
	sat.merge(&rec)
	final, err := srv.scrape()
	if err != nil {
		return ol, sat, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return ol, sat, err
	}
	r.checkCounts(final.stats, &ol.rec, &sat)

	if r.trace {
		r.layerScrape(before, after, &ol.rec)
		r.set("driver.late_p99_ms", late.Value*1e3, "ms")
		r.set("driver.cpu_s", cpu, "s")
		return ol, sat, nil
	}
	// The bounded end-to-end medians are the median of the p50s of
	// P50Windows equal sub-windows of the phase, so a host slow period
	// that spans a few sub-windows does not move them; whole-phase p50s
	// go to the detail line. Tails (the highest percentile leaving ten
	// samples beyond it) go there too, with their percentile and sample
	// count: on a shared 2-vCPU host they are set by a handful of host
	// stalls per run and vary too much between runs to gate on.
	lo, span := ol.start.UnixNano(), r.window.Nanoseconds()
	tails := map[string]quantile{}
	whole := map[string]float64{}
	windows := map[string]int{}
	windowed := func(name string, vals []float64, due []int64) {
		p50, n := windowedP50(vals, due, lo, span, r.cfg.P50Windows)
		r.set(name+"_p50_ms", p50*1e3, "ms")
		windows[name+"_p50_ms"] = n
		whole[name+"_p50_ms"] = median(vals) * 1e3
		tails[name+"_tail_ms"] = inMillis(tailOf(sortedCopy(vals)))
	}
	for op := 0; op < numOps; op++ {
		windowed(opNames[op], ol.rec.lat[op], ol.rec.due[op])
	}
	windowed("session_wait", ol.rec.wait, ol.rec.waitDue)
	r.detail["tails"] = tails
	r.detail["whole_phase"] = whole
	r.detail["p50_windows_used"] = windows
	if err := writeSamples(filepath.Join(r.workDir, "samples.json"), &ol.rec); err != nil {
		return ol, sat, err
	}
	r.set("sat_sessions_per_s", float64(2*r.w.SatSessions)/satTime.Seconds(), "1/s")
	r.set("rounds_per_session", mean(ol.rec.rounds), "count")
	r.set("precision_first", mean(ol.rec.precision), "ratio")
	r.set("peak_rss_mb", rss, "MB")
	r.detail["sessions_completed"] = len(ol.rec.wait)
	r.detail["sat_seconds"] = satTime.Seconds()
	r.detail["driver_cpu_s"] = cpu
	return ol, sat, nil
}

// layerScrape derives the scraped per-layer metrics from the change of
// /metrics and /stats over the open-loop phase.
func (r *run) layerScrape(before, after scrape, rec *recorder) {
	const fam = "fb_service_request_seconds"
	var all histDelta
	for op := 0; op < numOps; op++ {
		h := histogramDelta(before.prom, after.prom, fam, map[string]string{"op": opNames[op]})
		all.Count += h.Count
		all.Sum += h.Sum
		r.set("service."+opNames[op]+"_us", h.Mean()*1e6, "us")
		r.set("fbserve.edge_"+opNames[op]+"_us", edgeMicros(mean(rec.sendLat[op]), h), "us")
	}
	r.detail["service_mean_s"] = all.Mean()
	r.set("fbserve.gc_cycles", delta(before.prom, after.prom, "fb_process_gc_cycles_total", nil), "count")
	r.set("fbserve.heap_alloc_mb", after.prom.sum("fb_process_heap_alloc_bytes", nil)/(1<<20), "MB")

	b, a := before.stats.Collections["default"], after.stats.Collections["default"]
	r.set("service.cache_hit_ratio", ratio(float64(a.CacheHits-b.CacheHits), float64(a.Predictions-b.Predictions)), "ratio")
	r.set("service.warm_ratio", ratio(float64(a.WarmStarts-b.WarmStarts), float64(a.Opened-b.Opened)), "ratio")
	r.set("service.stored_ratio", ratio(float64(a.InsertsStored-b.InsertsStored), float64(a.Closed-b.Closed)), "ratio")
	r.set("core.tree_points", float64(a.Tree.Points), "count")
	r.detail["retrieval"] = a.Retrieval

	hist := func(family string) histDelta { return histogramDelta(before.prom, after.prom, family, nil) }
	r.set("ann.rerank_us", hist("fb_ann_rerank_seconds").Mean()*1e6, "us")
	r.set("ann.shortlist_mean", hist("fb_ann_shortlist_size").Mean(), "count")
	r.set("persist.wal_append_us", hist("fb_wal_append_seconds").Mean()*1e6, "us")
	fsync := hist("fb_wal_fsync_seconds")
	r.set("persist.wal_fsync_us", fsync.Mean()*1e6, "us")
	r.set("persist.fsyncs", fsync.Count, "count")
	snap := hist("fb_snapshot_seconds")
	r.set("persist.snapshots", snap.Count, "count")
	r.set("persist.snapshot_ms", snap.Mean()*1e3, "ms")
	r.set("shardedbypass.insert_us", hist("fb_shard_insert_seconds").Mean()*1e6, "us")
}

// checkCounts compares the server's session counters with the
// generator's own counts over both phases.
func (r *run) checkCounts(st serverStats, ol, sat *recorder) {
	d := st.Collections["default"]
	want := [numOps]int64{}
	for op := 0; op < numOps; op++ {
		want[op] = int64(ol.ops[op] + sat.ops[op])
	}
	got := [numOps]int64{d.Opened, d.Feedbacks, d.Closed}
	for op := 0; op < numOps; op++ {
		if got[op] != want[op] {
			r.fail("/stats counts %d %s requests, the generator completed %d", got[op], opNames[op], want[op])
		}
	}
	for _, p := range append(ol.problems, sat.problems...) {
		r.fail("%s", p)
	}
}

// checkOutputs compares sampled cold first pages with an in-process
// retrieval over the same inputs, and on the IVF workload checks the
// index's recall@k on the script's first items against the exact scan.
func (r *run) checkOutputs(pages []coldPage) {
	col, err := openCollection(r.in, r.w, r.cfg)
	if err != nil {
		r.fail("opening collection in-process: %v", err)
		return
	}
	defer col.close()
	cold := sortedCold(pages, r.cfg.CheckSample)
	r.detail["cold_pages_checked"] = len(cold)
	if r.w.Retrieval == "scan" && len(cold) == 0 {
		r.fail("no cold session to check against the exact scan")
	}
	k := r.cfg.K
	for _, p := range cold {
		q, wts, err := coldQuery(col, p.Item)
		if err != nil {
			r.fail("cold query for item %d: %v", p.Item, err)
			return
		}
		m, err := weighted(wts)
		if err != nil {
			r.fail("%v", err)
			return
		}
		want, err := col.searcher.Search(q, k, m)
		if err != nil {
			r.fail("in-process search for item %d: %v", p.Item, err)
			return
		}
		if !samePage(p.Results, want) {
			r.fail("cold first page of item %d differs from the in-process %s", p.Item, col.searcher.Describe())
		}
	}
	if col.idx == nil {
		return
	}
	items := r.items(streamItems)
	sum, n := 0.0, r.cfg.CheckSample
	for i := 0; i < n; i++ {
		q, wts, err := coldQuery(col, items.next())
		if err != nil {
			r.fail("recall query: %v", err)
			return
		}
		m, err := weighted(wts)
		if err != nil {
			r.fail("%v", err)
			return
		}
		approx, err := col.idx.Search(q, k, m)
		if err != nil {
			r.fail("index search: %v", err)
			return
		}
		exact, err := col.exact.Search(q, k, m)
		if err != nil {
			r.fail("exact search: %v", err)
			return
		}
		sum += overlap(approx, exact)
	}
	recall := sum / float64(n)
	r.detail["checked_recall_at_k"] = recall
	if recall < r.cfg.RecallFloor {
		r.fail("index recall@%d %.4f below the floor %.2f", k, recall, r.cfg.RecallFloor)
	}
}

// traced replays the script in-process with timing decorators and
// records the per-layer metrics the spans yield.
func (r *run) traced() error {
	items := r.items(streamItems)
	plan := schedule(r.seed, r.w.Rate, r.window, items)
	satItems := r.items(streamSatItems)
	warm := make([]int, r.w.SatSessions)
	for i := range warm {
		warm[i] = satItems.next()
	}
	tr, err := runTrace(r.cfg, r.w, r.in, warm, plan, seconds(r.cfg.TraceMaxSeconds), r.workDir)
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	if err := writeSpans(filepath.Join(r.workDir, "spans.jsonl"), tr.Spans); err != nil {
		return err
	}
	r.detail["trace_sessions"] = tr.Sessions
	r.detail["trace_spans"] = len(tr.Spans)

	byName := map[string][]float64{}
	kids := childrenOf(tr.Spans)
	selfByOp := map[string][]float64{}
	if err := checkSpans(tr.Spans); err != nil {
		r.fail("traced replay: %v", err)
	}
	var serviceTotal float64
	for _, s := range tr.Spans {
		byName[s.Name] = append(byName[s.Name], float64(s.dur()))
		if s.Parent >= 0 {
			continue
		}
		selfByOp[s.Name] = append(selfByOp[s.Name], float64(selfTime(s, kids[s.ID])))
		serviceTotal += float64(s.dur())
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	for op := 0; op < numOps; op++ {
		r.set("service.self_"+opNames[op]+"_us", us(mean(selfByOp["service."+opNames[op]])), "us")
	}
	predict := sortedCopy(byName["core.predict"])
	r.set("core.predict_us", us(mean(predict)), "us")
	r.set("core.predict_p99_us", us(tailOf(predict).Value), "us")
	r.set("core.insert_us", us(mean(byName["core.insert"])), "us")
	retrieve := sortedCopy(byName["engine.retrieve"])
	r.set("engine.retrieve_us", us(mean(retrieve)), "us")
	r.set("engine.retrieve_p99_us", us(tailOf(retrieve).Value), "us")
	r.set("engine.retrieve_calls", float64(len(retrieve)), "count")
	retrieveTotal := 0.0
	for _, d := range retrieve {
		retrieveTotal += d
	}
	r.set("engine.retrieve_share", ratio(retrieveTotal, serviceTotal), "ratio")
	r.set("ann.recall_at_k", tr.RecallAtK, "ratio")
	r.set("persist.write_bytes_per_insert", ratio(float64(tr.WriteBytes), float64(tr.Inserts)), "B")
	var serviceSpans int
	for op := 0; op < numOps; op++ {
		serviceSpans += len(selfByOp["service."+opNames[op]])
	}
	tMean := ratio(serviceTotal, float64(serviceSpans)) / 1e9
	sMean, _ := r.detail["service_mean_s"].(float64)
	// T replays without concurrency or the HTTP server's load, so its
	// service calls may run faster than S measured them; a ratio outside
	// the band means the replay no longer reproduces the served work.
	rt := ratio(tMean, sMean)
	r.set("trace.overhead_frac", rt-1, "ratio")
	if band := r.cfg.TraceServiceRatio; rt < band[0] || rt > band[1] {
		r.fail("traced service mean %.1f us is %.2f of the scraped %.1f us, outside [%g, %g]",
			tMean*1e6, rt, sMean*1e6, band[0], band[1])
	}
	r.detail["recall_samples"] = tr.RecallN
	r.detail["trace_tails_ms"] = map[string]quantile{
		"core.predict":    inMillis(scaled(tailOf(predict), 1e-9)),
		"engine.retrieve": inMillis(scaled(tailOf(retrieve), 1e-9)),
	}
	return nil
}

// printList prints the metric contract of BENCHMARK.json and the
// workload settings and predictions of config.json.
func printList(root string, cfg config) error {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		return fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	fmt.Println("end-to-end metrics (--trace 0):")
	for _, m := range bench.EndToEnd {
		fmt.Printf("  %-24s %-6s %-6s bound %.2f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Println("tails, in the detail line of --trace 0 with their percentile and sample count (ms, lower is better):")
	fmt.Println("  open_tail_ms feedback_tail_ms close_tail_ms session_wait_tail_ms")
	fmt.Println("per-layer metrics (--trace 1):")
	for _, m := range bench.PerLayer {
		fmt.Printf("  %-32s %-6s %s\n", m.Name, m.Unit, m.Better)
	}
	fmt.Println("workloads:")
	why := map[string]string{}
	for _, wl := range bench.Workloads {
		why[wl.Name] = wl.Why
	}
	for _, name := range cfg.workloadNames() {
		w := cfg.Workloads[name]
		fmt.Printf("  %-14s %g sessions/s, zipf %g, %s collection, %s retrieval, %s bypass\n",
			name, w.Rate, w.ZipfS, w.Collection, w.Retrieval, w.Bypass)
		if reason, ok := why[name]; ok {
			fmt.Printf("      %s\n", reason)
		} else {
			fmt.Printf("      runnable by name, not in BENCHMARK.json: %s\n", w.Note)
		}
	}
	fmt.Println("traffic shape:")
	var keys []string
	for k := range cfg.Assumptions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s: %s\n", k, cfg.Assumptions[k])
	}
	fmt.Println("layer metric -> end-to-end metric it should move, on which workload:")
	for _, p := range cfg.Predictions {
		sort.Strings(p.LayerMetrics)
		fmt.Printf("  %v\n      moves %v on %s (%s)\n", p.LayerMetrics, p.Moves, p.Workloads, p.Source)
	}
	return nil
}

// writeSamples writes the open-loop phase's raw latencies, due times and
// session waits, so any summary can be recomputed from a run.
func writeSamples(path string, rec *recorder) error {
	out := map[string]any{"session_wait_s": rec.wait, "session_due_unix_ns": rec.waitDue}
	for op := 0; op < numOps; op++ {
		out[opNames[op]+"_latency_s"] = rec.lat[op]
		out[opNames[op]+"_due_unix_ns"] = rec.due[op]
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// scaled multiplies a quantile's value by f.
func scaled(q quantile, f float64) quantile {
	q.Value *= f
	return q
}

// inMillis converts a quantile of seconds to milliseconds.
func inMillis(q quantile) quantile { return scaled(q, 1e3) }
