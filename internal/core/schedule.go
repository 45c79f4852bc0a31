package core

import (
	"time"

	"otherworld/internal/sched"
)

// PoolSchedule models the campaign worker pool's wall clock: experiment
// spans arrive in commit order and each runs on the earliest-free of
// `workers` workers (ties to the lowest index) — sched.Plan's List policy.
// The result is the makespan, when the last worker drains. It is a pure
// function of (spans, workers), so campaign timing quotes replay from the
// seed regardless of the host's real parallelism, through the same model
// as resurrect's Report.ScheduleAt.
func PoolSchedule(spans []time.Duration, workers int) time.Duration {
	return sched.Makespan(sched.Plan(sched.List, spans, nil, workers))
}

// PoolOccupancy is the fraction of the pool's worker-time the schedule
// keeps busy: sum(spans) / (workers * makespan), with the pool clamped to
// the span count. 1.0 means perfectly packed; the campaign metrics plane
// publishes this as a gauge.
func PoolOccupancy(spans []time.Duration, workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	if workers > len(spans) && len(spans) > 0 {
		workers = len(spans)
	}
	makespan := PoolSchedule(spans, workers)
	if makespan <= 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range spans {
		sum += s
	}
	return float64(sum) / (float64(workers) * float64(makespan))
}
