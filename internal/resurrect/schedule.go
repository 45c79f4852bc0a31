package resurrect

import (
	"runtime"
	"time"

	"otherworld/internal/sched"
)

// CanonicalWorkers is the worker count every *rendered* parallel number is
// derived at (Table 6's parallel column, the campaign's mean-interruption
// column, owbench snapshots). The live engine may fan out over any number
// of goroutines — NumCPU by default — but reported schedules are always
// re-evaluated at this fixed width through Report.ScheduleAt, so output is
// identical on a 2-core CI runner and a 64-core workstation.
const CanonicalWorkers = 4

// effectiveWorkers resolves the configured worker count: 0 (or negative)
// means NumCPU, and the pool is never wider than the candidate set (extra
// workers would only sit idle and inflate bookkeeping).
func (c Config) effectiveWorkers(candidates int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if candidates > 0 && w > candidates {
		w = candidates
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ParallelStats describes the live parallel schedule one Run executed: how
// wide the pool was and what the modeled wall-clock of that schedule is.
// Everything here depends on Config.Workers, which is why the determinism
// fingerprint (Report.Fingerprint) excludes this block — the rest of the
// Report must be byte-identical at Workers=1 and Workers=N.
type ParallelStats struct {
	// Workers is the resolved pool width this pass ran with.
	Workers int
	// Duration is the virtual time the whole pass consumed at this width:
	// serial prologue + the makespan of the full installs. This is what
	// the machine clock advanced during Run.
	Duration time.Duration
}

func sumSpans(spans []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range spans {
		s += d
	}
	return s
}

// Slots is the report's modeled schedule at the given worker width, in
// candidate order, with times relative to the end of the prologue. It is
// the only place a report is fed to sched.Plan: a streamed pass is
// modeled under the commit cursor, a batch pass round-robin. Each slot is
// the candidate's scan followed by its blocked install, so a slot ends
// when its process resumes; a lazy candidate's post-resume work overlaps
// normal operation and stays off the schedule. A report without the
// scan/install split schedules PerCandidate as plain jobs.
func (r *Report) Slots(workers int) []sched.Slot {
	if !r.hasSplit() {
		return sched.Plan(sched.RoundRobin, r.PerCandidate, nil, workers)
	}
	policy := sched.RoundRobin
	if r.Streamed {
		policy = sched.Cursor
	}
	return sched.Plan(policy, r.PerScan, r.blockedSpans(), workers)
}

// ScheduleAt evaluates the schedule model at an arbitrary worker count
// without re-running anything: serial prologue plus the makespan of
// Slots(workers). It is a pure function of worker-count-independent
// inputs, so tables can render a parallel column at CanonicalWorkers no
// matter how wide the live pool was.
func (r *Report) ScheduleAt(workers int) time.Duration {
	return r.Prologue + sched.Makespan(r.Slots(workers))
}

// SpeedupAt returns the modeled interruption speedup of the resurrection
// pass at the given width versus the serial schedule (Report.Duration).
func (r *Report) SpeedupAt(workers int) float64 {
	par := r.ScheduleAt(workers)
	if par <= 0 {
		return 1
	}
	return float64(r.Duration) / float64(par)
}
