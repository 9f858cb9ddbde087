package experiments

import (
	"maps"
	"testing"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/simplextree"
)

// TestRunLifecycleBounded is the CI-sized soak regression gate for the
// lifecycle plane: with aging on, the tree's vertex count stays bounded
// (compactions reclaim the drifted-past regions) while the hit rate
// over the recent window stays perfect; with aging off, the same
// drifting workload grows the tree without bound (ε=0: one vertex per
// insert). The embedded crash sweeps must report zero acked-insert
// loss, zero recovery failures and zero hybrid states on both layouts.
func TestRunLifecycleBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("lifecycle soak skipped in -short mode")
	}
	cfg := DefaultLifecycleConfig()
	cfg.Inserts = 400
	cfg.AgeHorizon = 100
	cfg.CompactEvery = 50
	res, err := RunLifecycle(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Control: ε=0 on a drifting workload means strictly linear growth.
	if res.Control.FinalPoints < cfg.Inserts {
		t.Fatalf("control grew %d points for %d inserts; expected one per insert", res.Control.FinalPoints, cfg.Inserts)
	}
	if res.Control.Compactions != 0 || res.Control.Reclaimed != 0 {
		t.Fatalf("control mode compacted: %d compactions, %d reclaimed", res.Control.Compactions, res.Control.Reclaimed)
	}

	// Aging: bounded growth at the same hit rate.
	if res.Aging.FinalPoints >= res.Control.FinalPoints {
		t.Fatalf("aging did not bound growth: %d final points vs control %d", res.Aging.FinalPoints, res.Control.FinalPoints)
	}
	if res.Aging.Compactions == 0 || res.Aging.Reclaimed == 0 {
		t.Fatalf("aging mode never reclaimed: %d compactions, %d reclaimed", res.Aging.Compactions, res.Aging.Reclaimed)
	}
	for _, series := range []LifecycleSeries{res.Aging, res.Control} {
		if len(series.Samples) == 0 {
			t.Fatalf("%s mode produced no samples", series.Mode)
		}
		for _, s := range series.Samples {
			if s.HitRate < 1.0 {
				t.Fatalf("%s mode hit rate dropped to %.3f at %d inserts: aging reclaimed live regions", series.Mode, s.HitRate, s.Inserts)
			}
		}
	}

	// Crash sweeps: compaction swap safety on both durable layouts.
	for _, sweep := range []CrashSweep{res.SingleTree, res.Sharded} {
		if sweep.CrashPoints == 0 {
			t.Fatalf("%s sweep enumerated no crash points", sweep.Layout)
		}
		if sweep.RecoveryFailures != 0 || sweep.AckedLost != 0 || sweep.HybridStates != 0 {
			t.Fatalf("%s sweep: %d recovery failures, %d acked vertices lost, %d hybrid states (want all zero)",
				sweep.Layout, sweep.RecoveryFailures, sweep.AckedLost, sweep.HybridStates)
		}
	}
}

// reopenHook wraps a layout so that every open of a directory after the
// first — the sweep's recovery — passes its module through fn; first
// opens (the healthy, counting and crashed runs) pass through first.
func reopenHook(lay crashLayout, first, fn func(crashModule) crashModule) crashLayout {
	opened := map[string]bool{}
	return crashLayout{name: lay.name, open: func(dir string, fs *faultfs.FS) (crashModule, error) {
		m, err := lay.open(dir, fs)
		reopen := opened[dir]
		opened[dir] = true
		if err != nil {
			return m, err
		}
		if reopen {
			return fn(m), nil
		}
		return first(m), nil
	}}
}

// TestCrashSweepCatchesBrokenRecovery proves the sweep's checks can
// fail: a recovery that drops an acknowledged vertex must show up as
// acked loss, and one that brings back a compacted vertex as a hybrid
// state.
func TestCrashSweepCatchesBrokenRecovery(t *testing.T) {
	cfg := DefaultLifecycleConfig()
	lay := crashLayouts(cfg.D, cfg.P, cfg.Shards,
		core.Config{Epsilon: 0, AgeHorizon: cfg.CrashAgeHorizon}, 1<<30)[0]
	ops := lifecycleOps(cfg)
	same := func(m crashModule) crashModule { return m }

	// Recovery forgets the first inserted vertex it walks.
	drops := reopenHook(lay, same, func(m crashModule) crashModule {
		walk := m.walk
		m.walk = func(fn func(v *simplextree.Vertex)) error {
			dropped := false
			return walk(func(v *simplextree.Vertex) {
				if !dropped && v.Stamp() > 0 {
					dropped = true
					return
				}
				fn(v)
			})
		}
		return m
	})
	res, err := runCrashSweep(t.TempDir(), drops, ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.AckedLost == 0 {
		t.Errorf("recovery that drops a vertex reported no acked loss: %+v", res)
	}

	// Every vertex a healthy compaction reclaimed comes back on recovery.
	ghosts := map[string]*simplextree.Vertex{}
	remember := func(m crashModule) crashModule {
		compact := m.compact
		m.compact = func() ([]core.CompactionStats, error) {
			before := map[string]*simplextree.Vertex{}
			_ = m.walk(func(v *simplextree.Vertex) { before[vertexKey(v)] = v })
			st, err := compact()
			if err == nil {
				_ = m.walk(func(v *simplextree.Vertex) { delete(before, vertexKey(v)) })
				maps.Copy(ghosts, before)
			}
			return st, err
		}
		return m
	}
	resurrects := reopenHook(lay, remember, func(m crashModule) crashModule {
		walk := m.walk
		m.walk = func(fn func(v *simplextree.Vertex)) error {
			for _, v := range ghosts {
				fn(v)
			}
			return walk(fn)
		}
		return m
	})
	res, err = runCrashSweep(t.TempDir(), resurrects, ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(ghosts) == 0 {
		t.Fatal("workload's compactions reclaimed nothing")
	}
	if res.HybridStates == 0 {
		t.Errorf("recovery that resurrects compacted vertices reported no hybrid state: %+v", res)
	}
}
