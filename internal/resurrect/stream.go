package resurrect

// Streaming resurrection: index-assisted candidate discovery, SLO-tier
// admission and the pipelined install commit.
//
// The classic pass (engine.go Run) is a batch: a serial full-heap walk
// lists candidates, which are then sharded round-robin over the workers in
// list order (sched.Plan's RoundRobin policy), so a critical process
// listed late waits behind everything its worker was handed first, and
// the discovery prologue grows with the whole population. The streaming
// pass keeps every observable deterministic while attacking both:
//
//   - Discovery seeds scanners from the dead kernel's candidate index
//     (internal/layout): a compact CRC-framed array the main kernel
//     maintained next to the trace ring, parsed here in whole-frame
//     batches instead of per-record list hops. A missing or corrupt index
//     degrades to the full walk with "index-salvage: …" attribution.
//   - Admission orders candidates by SLO tier (tier-0 critical first)
//     through the deterministic priority queue in internal/sched.
//   - The install commit is per-candidate and pipelined behind a
//     tier-then-PID-order cursor: a worker scans its candidate, waits for
//     the cursor, then classifies + installs while other workers keep
//     scanning. Commits execute in strict admission order with shared
//     classification state, so the report is bit-identical at any width
//     — only the modeled schedule (sched.Plan's Cursor policy) changes.
//
// The price of the cursor is that commits serialize: tier-0 resumes
// sooner, but the last process can resume later than under the batch
// pass's round-robin once the population is large.

import (
	"sort"
	"sync"
	"time"

	"otherworld/internal/disk"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
	"otherworld/internal/sched"
	"otherworld/internal/sim"
	"otherworld/internal/trace"
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

// runStream is the streaming pass body: admission ordering, the scan pool
// with the pipelined per-candidate commit, and the stream schedule model.
// It fills rep in place (Run already completed discovery and selection).
func (e *Engine) runStream(cfg Config, rep *Report, selected []Candidate, mainSwap *disk.BlockDevice, start time.Duration) {
	adm, tiers := admissionOrder(cfg, selected)
	n := len(adm)
	workers := cfg.effectiveWorkers(n)
	rep.Prologue = e.K.M.Clock.Since(start)

	// The lazy install registers its speculation table before any commit:
	// crash procedures run inside pipelined commits and may touch
	// speculated pages.
	if e.LazyInstall {
		e.lazy = newLazyState(e)
		e.lazy.installing = true
		e.lazy.report = rep
		e.K.Spec = e.lazy
	}
	liveClock := e.K.M.Clock
	scratch := sim.NewClock()
	e.K.M.Clock = scratch

	// Workers claim admission slots in order through the cursor, scan
	// concurrently (read-only, per-candidate accounting shard and event
	// ledger), then commit — classify + install — in strict admission
	// order under the commit cursor. Scans overlap earlier commits; the
	// commit itself is the only serialized section, and it is serialized
	// *in a fixed order*, so every mutation of the new kernel and every
	// shared classification decision is a pure function of the admission
	// sequence.
	plans := make([]*plan, n)
	accts := make([]*Accounting, n)
	evs := make([][]trace.Event, n)
	procs := make([]ProcReport, n)
	perScan := make([]time.Duration, n)
	perInstall := make([]time.Duration, n)
	perCand := make([]time.Duration, n)
	ctx := e.newClassifyCtx()
	var (
		mu     sync.Mutex
		cond   = sync.NewCond(&mu)
		cursor int
		commit int
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := cursor
				if i >= n {
					mu.Unlock()
					return
				}
				cursor++
				mu.Unlock()

				sh := &Accounting{ByCategory: make(map[string]int64)}
				sc := e.newScanner(sh, mainSwap)
				pl := sc.scanOne(adm[i])

				mu.Lock()
				for commit != i {
					cond.Wait()
				}
				plans[i] = pl
				accts[i] = sh
				ev := e.classifyPlan(pl, ctx)
				m0 := scratch.Now()
				pl.resumeClock = -1
				procs[i] = e.installOne(pl)
				inst := scratch.Since(m0)
				perScan[i] = pl.scanDur
				perInstall[i] = inst
				perCand[i] = pl.scanDur + inst
				if pl.resumeClock >= 0 {
					// Lazy candidate: blocked only until context install.
					perCand[i] = pl.scanDur + (pl.resumeClock - m0)
				}
				events := sc.events
				if ev != nil {
					events = append(events, *ev)
				}
				evs[i] = events
				commit++
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	e.K.M.Clock = liveClock
	if e.lazy != nil {
		e.lazy.installing = false
	}

	// Deterministic reduction in admission order: per-candidate shards
	// fold with saturating adds, per-candidate event ledgers merge by
	// candidate-local logical time.
	for _, sh := range accts {
		e.acct.absorb(sh)
	}
	rep.ScanTrace = trace.Merge(evs...)
	rep.Procs = append(rep.Procs, procs...)
	rep.Acct = e.acct
	rep.PerCandidate = perCand
	rep.PerScan = perScan
	rep.PerInstall = perInstall
	rep.Streamed = true
	rep.Tiers = tiers
	rep.Duration = rep.Prologue + sumSpans(perCand)
	// The machine clock advances by the commit-cursor makespan over the
	// *full* installs — lazy or not, the install work all happened — while
	// Duration keeps the serial blocked sum, same as the batch pass.
	e.K.M.Clock.Advance(sched.Makespan(sched.Plan(sched.Cursor, perScan, perInstall, workers)))
	rep.Parallel = ParallelStats{Workers: workers, Duration: e.K.M.Clock.Since(start)}
	e.publish(rep)
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
