package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/vec"
)

// ChaosConfig drives the fault-injection benchmark: a crash-schedule
// sweep over every mutating filesystem operation of a durable insert
// workload (single-tree and sharded layouts), a degraded-mode phase (the
// disk under the journal goes bad mid-flight), and a quota-exhaustion
// phase — each reporting availability, error taxonomy and recovery time.
type ChaosConfig struct {
	// Seed makes the workloads deterministic.
	Seed int64
	// D and P are the module's simplex and weight dimensionalities.
	D, P int
	// Inserts is the workload length of each crash schedule.
	Inserts int
	// CompactEvery triggers compaction inside the workload so crash
	// points cover snapshot rename and journal truncation, not just
	// appends.
	CompactEvery int
	// Shards is the sharded layout's partition count.
	Shards int
	// DegradedInserts is the number of insert attempts against the
	// read-only degraded module.
	DegradedInserts int
	// QuotaHeadroom is the vertex quota above the D+1 domain corners in
	// the quota phase.
	QuotaHeadroom int
}

// DefaultChaosConfig is the operating point of the committed artifact:
// small enough that the full crash sweep (one fresh module + recovery
// per mutating op, two layouts) stays in CI budget, large enough that
// every crash-point class — header write, append, append fsync, snapshot
// write/rename, directory fsync, journal truncation — is enumerated.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Seed:            1,
		D:               3,
		P:               2,
		Inserts:         12,
		CompactEvery:    4,
		Shards:          3,
		DegradedInserts: 48,
		QuotaHeadroom:   4,
	}
}

// ChaosDegraded is the degraded-mode phase: a healthy module's journal
// disk goes bad, and the module must keep serving reads (parity-pinned
// against a healthy twin) while rejecting writes with the typed sentinel.
type ChaosDegraded struct {
	AckedBefore int `json:"acked_before"`
	// Insert attempts after the disk failure, by classification.
	TypedRejections int `json:"typed_rejections"`
	UntypedErrors   int `json:"untyped_errors"`
	// Reads against the degraded module at every acknowledged point.
	ReadsAttempted int  `json:"reads_attempted"`
	ReadsOK        int  `json:"reads_ok"`
	ParityOK       bool `json:"parity_ok"` // bitwise vs the healthy twin
	// ReadAvailability is ReadsOK/ReadsAttempted — 1.0 means the read
	// plane never noticed the disk failure.
	ReadAvailability float64 `json:"read_availability"`
	// RecoveryMicros is the reopen time against a healthy disk: the
	// journal holds every acknowledged insert, so nothing is lost.
	RecoveryMicros float64 `json:"recovery_us"`
	RecoveredOK    bool    `json:"recovered_ok"`
}

// ChaosQuota is the quota-exhaustion phase: a module with a vertex quota
// accepts exactly its headroom, rejects the rest typed, and keeps the
// read plane live at full occupancy.
type ChaosQuota struct {
	MaxVertices      int     `json:"max_vertices"`
	Accepted         int     `json:"accepted"`
	TypedRejections  int     `json:"typed_rejections"`
	UntypedErrors    int     `json:"untyped_errors"`
	ReadsAttempted   int     `json:"reads_attempted"`
	ReadsOK          int     `json:"reads_ok"`
	ParityOK         bool    `json:"parity_ok"`
	ReadAvailability float64 `json:"read_availability"`
}

// ChaosResult aggregates the whole figure.
type ChaosResult struct {
	D          int           `json:"d"`
	P          int           `json:"p"`
	SingleTree CrashSweep    `json:"single_tree"`
	Sharded    CrashSweep    `json:"sharded"`
	Degraded   ChaosDegraded `json:"degraded"`
	Quota      ChaosQuota    `json:"quota"`
}

// chaosPoint draws a strictly interior simplex point: every coordinate
// positive, sum < 1, away from faces so interpolation stays well
// conditioned.
func chaosPoint(rng *rand.Rand, d int) []float64 {
	for {
		q := make([]float64, d)
		sum := 0.0
		for i := range q {
			q[i] = rng.Float64()
			sum += q[i]
		}
		if sum <= 0 {
			continue
		}
		scale := (0.2 + 0.6*rng.Float64()) / sum
		ok := true
		for i := range q {
			q[i] *= scale
			if q[i] < 1e-3 {
				ok = false
			}
		}
		if ok {
			return q
		}
	}
}

func chaosOQP(rng *rand.Rand, d, p int) core.OQP {
	oqp := core.OQP{Delta: make([]float64, d), Weights: make([]float64, p)}
	for i := range oqp.Delta {
		oqp.Delta[i] = rng.NormFloat64() * 0.05
	}
	for i := range oqp.Weights {
		oqp.Weights[i] = rng.NormFloat64() * 0.3
	}
	return oqp
}

// chaosOps is the crash sweep's insert-only workload.
func chaosOps(cfg ChaosConfig) []crashOp {
	rng := rand.New(rand.NewSource(cfg.Seed + 41))
	ops := make([]crashOp, cfg.Inserts)
	for i := range ops {
		ops[i] = crashOp{q: chaosPoint(rng, cfg.D), oqp: chaosOQP(rng, cfg.D, cfg.P)}
	}
	return ops
}

// runDegraded exercises read-only degraded serving: journal disk goes
// bad, writes reject typed, reads stay bitwise-correct, and reopening on
// a healthy disk recovers every acknowledged insert.
func runDegraded(root string, cfg ChaosConfig) (ChaosDegraded, error) {
	out := ChaosDegraded{ParityOK: true}
	rng := rand.New(rand.NewSource(cfg.Seed + 43))
	dir := filepath.Join(root, "degraded")
	fs := faultfs.New(nil)
	db, err := core.OpenDurable(dir, cfg.D, cfg.P, core.Config{Epsilon: 0},
		core.DurableOptions{CompactEvery: cfg.CompactEvery, Sync: true, FS: fs})
	if err != nil {
		return out, err
	}
	twin, err := core.New(cfg.D, cfg.P, core.Config{Epsilon: 0})
	if err != nil {
		return out, err
	}

	var acked [][]float64
	for i := 0; i < cfg.Inserts; i++ {
		q := chaosPoint(rng, cfg.D)
		oqp := chaosOQP(rng, cfg.D, cfg.P)
		if _, err := db.Insert(q, oqp); err != nil {
			return out, fmt.Errorf("healthy insert %d: %w", i, err)
		}
		if _, err := twin.Insert(q, oqp); err != nil {
			return out, err
		}
		acked = append(acked, q)
	}
	out.AckedBefore = len(acked)

	// The disk goes bad: every further journal write fails.
	fs.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Path: core.JournalFile, Nth: 0, Kind: faultfs.Fail})
	for i := 0; i < cfg.DegradedInserts; i++ {
		_, err := db.Insert(chaosPoint(rng, cfg.D), chaosOQP(rng, cfg.D, cfg.P))
		switch {
		case errors.Is(err, core.ErrDegraded):
			out.TypedRejections++
		case err != nil:
			out.UntypedErrors++
		default:
			// An accepted insert after the disk failure would be a
			// durability lie.
			out.UntypedErrors++
		}
	}

	// The read plane at every acknowledged point, parity-pinned.
	for _, q := range acked {
		out.ReadsAttempted++
		got, err := db.Predict(q)
		if err != nil {
			continue
		}
		out.ReadsOK++
		want, err := twin.Predict(q)
		if err != nil {
			return out, err
		}
		if !vec.Equal(got.Delta, want.Delta) || !vec.Equal(got.Weights, want.Weights) {
			out.ParityOK = false
		}
	}
	if out.ReadsAttempted > 0 {
		out.ReadAvailability = float64(out.ReadsOK) / float64(out.ReadsAttempted)
	}
	_ = db.Close()

	// Recovery on a healthy disk: the journal holds every acknowledged
	// insert, so reopening restores exactly the pre-failure state.
	t0 := time.Now()
	rdb, err := core.OpenDurable(dir, cfg.D, cfg.P, core.Config{Epsilon: 0}, core.DurableOptions{})
	out.RecoveryMicros = float64(time.Since(t0).Microseconds())
	if err != nil {
		return out, nil // recovered_ok stays false
	}
	defer rdb.Close()
	out.RecoveredOK = true
	for _, q := range acked {
		got, err := rdb.Predict(q)
		if err != nil {
			out.RecoveredOK = false
			break
		}
		want, _ := twin.Predict(q)
		if !vec.Equal(got.Delta, want.Delta) || !vec.Equal(got.Weights, want.Weights) {
			out.RecoveredOK = false
			break
		}
	}
	return out, nil
}

// runQuota exercises quota governance: exactly the headroom is accepted,
// the rest reject typed, and reads stay live and parity-pinned at full
// occupancy.
func runQuota(root string, cfg ChaosConfig) (ChaosQuota, error) {
	max := cfg.D + 1 + cfg.QuotaHeadroom
	out := ChaosQuota{MaxVertices: max, ParityOK: true}
	rng := rand.New(rand.NewSource(cfg.Seed + 47))
	db, err := core.OpenDurable(filepath.Join(root, "quota"), cfg.D, cfg.P,
		core.Config{Epsilon: 0, MaxVertices: max}, core.DurableOptions{Sync: true})
	if err != nil {
		return out, err
	}
	defer db.Close()
	twin, err := core.New(cfg.D, cfg.P, core.Config{Epsilon: 0})
	if err != nil {
		return out, err
	}

	var kept [][]float64
	for i := 0; i < 4*max; i++ {
		q := chaosPoint(rng, cfg.D)
		oqp := chaosOQP(rng, cfg.D, cfg.P)
		_, err := db.Insert(q, oqp)
		switch {
		case err == nil:
			out.Accepted++
			kept = append(kept, q)
			if _, err := twin.Insert(q, oqp); err != nil {
				return out, err
			}
		case errors.Is(err, core.ErrQuotaExceeded):
			out.TypedRejections++
		default:
			out.UntypedErrors++
		}
	}
	for _, q := range kept {
		out.ReadsAttempted++
		got, err := db.Predict(q)
		if err != nil {
			continue
		}
		out.ReadsOK++
		want, err := twin.Predict(q)
		if err != nil {
			return out, err
		}
		if !vec.Equal(got.Delta, want.Delta) || !vec.Equal(got.Weights, want.Weights) {
			out.ParityOK = false
		}
	}
	if out.ReadsAttempted > 0 {
		out.ReadAvailability = float64(out.ReadsOK) / float64(out.ReadsAttempted)
	}
	return out, nil
}

// RunChaos runs the full fault-injection figure in a temporary directory.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	if cfg.D <= 0 || cfg.P < 0 || cfg.Inserts <= 0 || cfg.Shards < 1 {
		return ChaosResult{}, fmt.Errorf("experiments: invalid chaos config %+v", cfg)
	}
	root, err := os.MkdirTemp("", "fb-chaos-*")
	if err != nil {
		return ChaosResult{}, err
	}
	defer os.RemoveAll(root)

	res := ChaosResult{D: cfg.D, P: cfg.P}
	layouts := crashLayouts(cfg.D, cfg.P, cfg.Shards, core.Config{Epsilon: 0}, cfg.CompactEvery)
	ops := chaosOps(cfg)
	if res.SingleTree, err = runCrashSweep(filepath.Join(root, "single"), layouts[0], ops); err != nil {
		return res, fmt.Errorf("single-tree crash sweep: %w", err)
	}
	if res.Sharded, err = runCrashSweep(filepath.Join(root, "sharded"), layouts[1], ops); err != nil {
		return res, fmt.Errorf("sharded crash sweep: %w", err)
	}
	if res.Degraded, err = runDegraded(root, cfg); err != nil {
		return res, fmt.Errorf("degraded phase: %w", err)
	}
	if res.Quota, err = runQuota(root, cfg); err != nil {
		return res, fmt.Errorf("quota phase: %w", err)
	}
	return res, nil
}
