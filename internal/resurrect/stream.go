package resurrect

// Streaming resurrection: index-assisted candidate discovery, SLO-tier
// admission, and the report's schedule queries.
//
// Without an index, discovery is a serial walk of the whole process list,
// so the prologue grows with the population; and the batch pass takes
// candidates in list order, so a critical process listed late waits
// behind everything before it. The features below attack each. Both
// passes run on one runtime (Engine.runPass); Config.Stream picks only
// the order candidates go through it and the schedule that models it:
//
//   - Discovery seeds scanners from the dead kernel's candidate index
//     (internal/layout): a compact CRC-framed array the main kernel
//     maintained next to the trace ring, parsed here in whole-frame
//     batches instead of per-record list hops. A missing or corrupt index
//     degrades to the full walk with "index-salvage: …" attribution.
//   - Admission orders candidates by SLO tier (tier-0 critical first),
//     then PID, through the deterministic priority queue in internal/sched;
//     the batch pass keeps list order.
//   - The modeled schedule of a streamed pass is sched.Plan's Cursor
//     policy: workers scan in admission order and each commit waits for its
//     predecessor's, so tier-0 resumes first. The batch pass is modeled
//     round-robin. The report itself is identical at any worker width
//     either way — only the modeled schedule changes.
//
// The price of the cursor is that commits serialize: tier-0 resumes
// sooner, but the last process can resume later than under the batch
// pass's round-robin once the population is large.

import (
	"sort"
	"time"

	"otherworld/internal/layout"
	"otherworld/internal/phys"
	"otherworld/internal/sched"
)

// discoverCandidates lists the dead kernel's resurrection candidates:
// from the salvaged candidate index when one is present and intact, else
// by the full process-list walk. Index accounting and skip counts land on
// the report; the fallback attribution records why an existing index was
// rejected.
func (e *Engine) discoverCandidates(rep *Report) ([]Candidate, error) {
	if e.IndexRegion.Frames == 0 {
		return e.ListCandidates()
	}
	cands, used, skipped, reason := e.listViaIndex()
	if reason != "" {
		rep.IndexFallback = "index-salvage: " + reason
		return e.ListCandidates()
	}
	rep.IndexUsed = used
	rep.IndexSkipped = skipped
	return cands, nil
}

// listViaIndex salvages the candidate index out of the dead kernel's
// reservation. All bytes flow through the counting reader under CatIndex,
// and parse overhead is charged per index frame — the whole point: the
// index is read in O(population/16) frame-sized batches where the full
// walk pays a record-parse round trip per process. A non-empty reason
// means the index was unusable and the caller must walk.
func (e *Engine) listViaIndex() (cands []Candidate, used, skipped int, reason string) {
	base := phys.FrameAddr(e.IndexRegion.Start)
	size := e.IndexRegion.Frames * phys.PageSize
	sal, err := layout.ParseIndex(e.rd.at(CatIndex), base, size, e.VerifyCRC)
	if err != nil {
		return nil, 0, 0, err.Error()
	}
	for i := 0; i < e.IndexRegion.Frames; i++ {
		e.parseTime()
	}
	entries := append([]layout.IndexEntry(nil), sal.Entries...)
	// Newest first, exactly like the head-linked process list the full
	// walk traverses, so selection and reporting order match the walk's.
	sort.Slice(entries, func(i, j int) bool { return entries[i].PID > entries[j].PID })
	for _, en := range entries {
		cands = append(cands, Candidate{
			PID:       en.PID,
			Name:      en.Name,
			Program:   en.Program,
			Addr:      en.Addr,
			CrashProc: en.CrashProc,
		})
	}
	return cands, len(entries), sal.Skipped, ""
}

// admissionOrder runs the selected candidates through the priority queue
// and returns them in admitted order with their tiers. Within a tier,
// candidates are pushed in PID (creation) order, so admission is
// tier-then-PID — the commit cursor's ordering contract.
func admissionOrder(cfg Config, selected []Candidate) ([]Candidate, []int) {
	byPID := make([]int, len(selected))
	for i := range selected {
		byPID[i] = i
	}
	sort.Slice(byPID, func(a, b int) bool {
		return selected[byPID[a]].PID < selected[byPID[b]].PID
	})
	q := sched.NewQueue(sched.DefaultAging)
	for _, idx := range byPID {
		c := selected[idx]
		q.Push(sched.Item{Tier: cfg.TierOf(c.Program), Key: c.PID, Seq: idx})
	}
	adm := make([]Candidate, 0, len(selected))
	tiers := make([]int, 0, len(selected))
	for {
		it, ok := q.Pop()
		if !ok {
			break
		}
		adm = append(adm, selected[it.Seq])
		tiers = append(tiers, it.Tier)
	}
	return adm, tiers
}

// blockedSpans is each candidate's install time until its process was
// runnable (the full install for eager candidates, the pre-resume slice
// for lazy ones): PerCandidate minus the scan.
func (r *Report) blockedSpans() []time.Duration {
	out := make([]time.Duration, len(r.PerCandidate))
	for i := range r.PerCandidate {
		out[i] = r.PerCandidate[i]
		if i < len(r.PerScan) {
			out[i] -= r.PerScan[i]
		}
	}
	return out
}

// hasSplit reports whether the report carries the scan/install split
// Slots needs (older or degenerate reports may not).
func (r *Report) hasSplit() bool {
	return len(r.PerScan) == len(r.PerCandidate) &&
		len(r.PerInstall) == len(r.PerCandidate) && len(r.PerCandidate) > 0
}

// ResumeTimesAt models, at the given worker width, each candidate's
// time from pass start to its process resuming, in Procs order: the
// prologue plus the end of the candidate's slot in Slots(workers). Its
// maximum is therefore ScheduleAt(workers). A pure function of
// width-independent report fields.
func (r *Report) ResumeTimesAt(workers int) []time.Duration {
	slots := r.Slots(workers)
	out := make([]time.Duration, len(slots))
	for i, s := range slots {
		out[i] = r.Prologue + s.CommitEnd
	}
	return out
}

// FirstResumeAt returns the earliest modeled resume time among candidates
// selected by want (an index predicate over Procs order), at the given
// width.
func (r *Report) FirstResumeAt(workers int, want func(i int) bool) (time.Duration, bool) {
	times := r.ResumeTimesAt(workers)
	var best time.Duration
	found := false
	for i, t := range times {
		if want != nil && !want(i) {
			continue
		}
		if !found || t < best {
			best = t
			found = true
		}
	}
	return best, found
}

// TierFirstResumeAt is FirstResumeAt restricted to one admission tier of
// a streamed pass (false when the pass was not streamed or the tier is
// empty) — the per-tier time-to-first-resume the fleet tables report.
func (r *Report) TierFirstResumeAt(workers, tier int) (time.Duration, bool) {
	if !r.Streamed || len(r.Tiers) != len(r.PerCandidate) {
		return 0, false
	}
	return r.FirstResumeAt(workers, func(i int) bool { return r.Tiers[i] == tier })
}
