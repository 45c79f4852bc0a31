package experiment

import (
	"fmt"
	"testing"
	"time"

	"otherworld/internal/core"
)

// TestScheduleModelsAgree pins that the three ways of asking "when is the
// last process back" read one schedule model: the span plane's critical
// path, the outcome's InterruptionAt and the microreboot plus the latest
// modeled resume time must be equal at every width, for streamed and batch
// passes in both install modes. The live pass runs four workers wide, and
// for an eager pass (blocked span = full install) the clock it advanced
// must be the model at that width too.
func TestScheduleModelsAgree(t *testing.T) {
	type scenario struct {
		name string
		fo   *core.FailureOutcome
		m    *core.Machine
		seed int64
		lazy bool
	}
	var runs []scenario
	for _, stream := range []bool{true, false} {
		for _, lazy := range []bool{false, true} {
			cfg := DefaultFleet(48, 7)
			cfg.Stream, cfg.Lazy, cfg.Workers = stream, lazy, 4
			res, err := FleetRecovery(cfg)
			if err != nil {
				t.Fatalf("fleet stream=%v lazy=%v: %v", stream, lazy, err)
			}
			runs = append(runs, scenario{fmt.Sprintf("fleet stream=%v lazy=%v", stream, lazy),
				res.Outcome, res.Machine, cfg.Seed, lazy})
		}
	}
	const seed = 20100413
	for _, lazy := range []bool{false, true} {
		fo, m, err := MultiMySQLRecovery(seed, 4, lazy)
		if err != nil {
			t.Fatalf("mysql-x8 lazy=%v: %v", lazy, err)
		}
		runs = append(runs, scenario{fmt.Sprintf("mysql-x8 lazy=%v", lazy), fo, m, seed, lazy})
	}
	for _, r := range runs {
		rep := r.fo.Report
		outside := r.fo.SerialInterruption - rep.Duration
		if live := rep.Parallel; !r.lazy && live.Duration != rep.ScheduleAt(live.Workers) {
			t.Errorf("%s: live pass advanced the clock %v at %d workers, model says %v",
				r.name, live.Duration, live.Workers, rep.ScheduleAt(live.Workers))
		}
		for w := 1; w <= 8; w++ {
			tree, err := SpanTreeFor(r.m, r.fo, "agree", r.seed, r.lazy, w)
			if err != nil {
				t.Fatalf("%s w=%d: %v", r.name, w, err)
			}
			var last time.Duration
			for _, d := range rep.ResumeTimesAt(w) {
				last = max(last, d)
			}
			crit, at, resumed := tree.Critical.Interruption, r.fo.InterruptionAt(w), outside+last
			if crit != at || at != resumed {
				t.Errorf("%s w=%d: critical path %v, InterruptionAt %v, microreboot + last resume %v",
					r.name, w, crit, at, resumed)
			}
		}
	}
}
