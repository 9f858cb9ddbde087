package experiments

import "testing"

func TestRunServeSmallScale(t *testing.T) {
	cfg := ServeConfig{
		Seed:             3,
		Scale:            0.03,
		K:                6,
		Epsilon:          0.05,
		SessionsPerLevel: 12,
		Levels:           []int{1, 4},
	}
	res, err := RunServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 2 {
		t.Fatalf("got %d levels", len(res.Levels))
	}
	for _, lvl := range res.Levels {
		if lvl.Train.Sessions != cfg.SessionsPerLevel {
			t.Errorf("level %d train: completed %d sessions", lvl.Clients, lvl.Train.Sessions)
		}
		if lvl.Bypass.Sessions != 2*cfg.SessionsPerLevel {
			t.Errorf("level %d bypass: completed %d sessions, want two passes", lvl.Clients, lvl.Bypass.Sessions)
		}
		for name, ph := range map[string]ServePhaseResult{"train": lvl.Train, "bypass": lvl.Bypass} {
			// Every session is at least Open + Close.
			if ph.Ops < 2*ph.Sessions {
				t.Errorf("level %d %s: only %d ops", lvl.Clients, name, ph.Ops)
			}
			// Every session opens and closes once; feedback rounds are
			// timed one sample each.
			if ph.Open.Count != ph.Sessions || ph.Close.Count != ph.Sessions || ph.Feedback.Count != ph.Feedbacks {
				t.Errorf("level %d %s: op samples open/feedback/close = %d/%d/%d for %d sessions, %d feedbacks",
					lvl.Clients, name, ph.Open.Count, ph.Feedback.Count, ph.Close.Count, ph.Sessions, ph.Feedbacks)
			}
			for op, l := range map[string]OpLatency{"open": ph.Open, "feedback": ph.Feedback, "close": ph.Close} {
				if l.P50Micros < 0 || l.P99Micros < l.P50Micros {
					t.Errorf("level %d %s %s: implausible latencies %+v", lvl.Clients, name, op, l)
				}
			}
			if ph.CacheHitRate < 0 || ph.CacheHitRate > 1 || ph.WarmRate < 0 || ph.WarmRate > 1 {
				t.Errorf("level %d %s: rates out of range: %+v", lvl.Clients, name, ph)
			}
		}
		// The bypass phase gives no feedback, so it can never insert and
		// never runs a refinement round.
		if lvl.Bypass.Feedbacks != 0 || lvl.Bypass.Inserted != 0 {
			t.Errorf("level %d bypass phase trained: %+v", lvl.Clients, lvl.Bypass)
		}
	}
	// The bypass phase re-issues the train phase's stream with no
	// intervening inserts, so by the last level the LRU must be serving.
	last := res.Levels[len(res.Levels)-1]
	if last.Bypass.CacheHitRate == 0 {
		t.Error("bypass phase never hit the prediction cache")
	}
	if res.FinalStats.ActiveSessions != 0 {
		t.Error("benchmark leaked sessions")
	}
	if want := int64(2 * 3 * cfg.SessionsPerLevel); res.FinalStats.Opened != want { // 2 levels × (1 train + 2 bypass passes)
		t.Errorf("opened %d sessions, want %d", res.FinalStats.Opened, want)
	}
	if res.FinalStats.Inserts == 0 {
		t.Error("no session ever inserted")
	}
	bad := []ServeConfig{
		{Scale: 0, SessionsPerLevel: 1, K: 1},
		{Scale: 1, SessionsPerLevel: 0, K: 1},
		{Scale: 1, SessionsPerLevel: 1, K: 0},
		{Scale: 0.02, SessionsPerLevel: 1, K: 1, Levels: []int{0}},
	}
	for i, cfg := range bad {
		if _, err := RunServe(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
