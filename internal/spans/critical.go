package spans

import (
	"slices"
	"time"

	"otherworld/internal/resurrect"
)

// Share is one bucket of the critical-path attribution: how much of the
// modeled interruption at the analysis width one phase (or one serial
// stage) is responsible for.
type Share struct {
	// Name is "microreboot", "prologue", a resurrection phase name
	// ("parse", "page-copy", ...), or "other" for blocked time the
	// per-phase timelines did not itemize.
	Name string
	Dur  time.Duration
}

// CriticalPath attributes the modeled interruption at a given worker width
// to the chain of spans that bounds it. The chain is read off the report's
// schedule (resurrect.Report.Slots, the same model ScheduleAt and
// ResumeTimesAt use): it ends at the slot that resumes last and walks back
// through whatever that slot waited for — the commit-cursor predecessor
// when its commit waited, otherwise the previous slot on its worker.
type CriticalPath struct {
	// Workers is the analysis width.
	Workers int
	// Interruption is the modeled outage at that width: the serial
	// microreboot overhead, the resurrection prologue, and the chain's
	// summed segments. It equals core.FailureOutcome.InterruptionAt(Workers)
	// and microreboot + the last ResumeTimesAt(Workers) by construction.
	Interruption time.Duration
	// Worker is the worker of the slot that resumes last (lowest index
	// wins ties).
	Worker int
	// Candidates are the candidate indices on the chain, in stable
	// candidate order.
	Candidates []int
	// Shares partitions Interruption without remainder: the sum of every
	// Share.Dur is exactly Interruption, so rendered percentages always
	// total 100%.
	Shares []Share
}

// Permille returns s's share of the interruption in tenths of a percent,
// rounded half-up — integer math, so rendering is bit-identical everywhere.
func (cp *CriticalPath) Permille(s Share) int64 {
	if cp.Interruption <= 0 {
		return 0
	}
	return (int64(s.Dur)*1000 + int64(cp.Interruption)/2) / int64(cp.Interruption)
}

// criticalPath extracts the attribution from worker-count-independent
// report fields. Every nanosecond of the modeled interruption lands in
// exactly one bucket: the serial stages in theirs, each chain segment split
// across its candidate's timeline phases in execution order, and any
// remainder the timeline did not itemize in "other". A full segment (the
// candidate's scan and blocked install) reads the timeline from its start;
// a commit-only segment (the candidate's scan overlapped the predecessor's
// commit) first skips the scan's share of it. Timeline tail beyond the
// blocked span is deferred (post-resume) work and never reached. Negative
// durations can only come from a corrupted report; they are clamped to
// zero on every path so the shares-sum invariant survives arbitrary input
// (FuzzSpanBuild).
func criticalPath(rep *resurrect.Report, outside time.Duration, workers int) CriticalPath {
	pos := func(d time.Duration) time.Duration {
		if d < 0 {
			return 0
		}
		return d
	}
	cp := CriticalPath{Workers: workers}
	prologue := pos(rep.Prologue)
	cp.Interruption = outside + prologue

	// Phase buckets are indexed by resurrect.Phase so the output order is
	// the pipeline's execution order, never a map walk.
	const maxPhase = int(resurrect.PhasePolicy) + 1
	var phases [maxPhase]time.Duration
	var other time.Duration
	attribute := func(i int, skip, seg time.Duration) {
		cp.Interruption += seg
		if i < len(rep.Procs) {
			for _, st := range rep.Procs[i].Timeline {
				if seg <= 0 {
					break
				}
				take := pos(st.Duration)
				cut := min(skip, take)
				skip -= cut
				take = min(take-cut, seg)
				if p := int(st.Phase); p >= 0 && p < maxPhase {
					phases[p] += take
				} else {
					other += take
				}
				seg -= take
			}
		}
		other += seg
	}

	slots := rep.Slots(workers)
	last := -1
	for i, s := range slots {
		if last < 0 || s.CommitEnd > slots[last].CommitEnd ||
			(s.CommitEnd == slots[last].CommitEnd && s.Worker <= slots[last].Worker) {
			last = i
		}
	}
	if last >= 0 {
		cp.Worker = slots[last].Worker
	}
	for i := last; i >= 0; {
		s := slots[i]
		cp.Candidates = append(cp.Candidates, i)
		if i > 0 && s.CommitStart > s.ScanEnd {
			// The commit waited for the cursor: the predecessor's commit
			// ended exactly when this one started.
			attribute(i, pos(s.ScanEnd-s.ScanStart), pos(s.CommitEnd-s.CommitStart))
			i--
			continue
		}
		// Otherwise the slot started when the previous one on its worker
		// ended (or at zero, the worker's first slot).
		attribute(i, 0, pos(s.CommitEnd-s.ScanStart))
		for i--; i >= 0 && slots[i].Worker != s.Worker; {
			i--
		}
	}
	slices.Reverse(cp.Candidates)

	cp.Shares = append(cp.Shares, Share{Name: "microreboot", Dur: outside})
	cp.Shares = append(cp.Shares, Share{Name: "prologue", Dur: prologue})
	for p := 0; p < maxPhase; p++ {
		if phases[p] > 0 {
			cp.Shares = append(cp.Shares, Share{Name: resurrect.Phase(p).String(), Dur: phases[p]})
		}
	}
	if other > 0 {
		cp.Shares = append(cp.Shares, Share{Name: "other", Dur: other})
	}
	return cp
}
