package sched

import "time"

// The three schedule models Plan replaced, kept verbatim (renamed only) as
// differential oracles: resurrect's round-robin shards, core's
// least-loaded campaign-pool list schedule, and the pipelined-commit
// cursor schedule.

// oracleSlot is the old pipeline's per-candidate placement.
type oracleSlot struct {
	Worker      int
	ScanStart   time.Duration
	ScanEnd     time.Duration
	CommitStart time.Duration
	CommitEnd   time.Duration
}

// oracleShardSpans distributes per-candidate durations over workers with the
// deterministic round-robin rule (candidate i goes to worker i mod w, in
// stable candidate order) and returns each worker's total.
func oracleShardSpans(perCandidate []time.Duration, workers int) []time.Duration {
	if workers < 1 {
		workers = 1
	}
	spans := make([]time.Duration, workers)
	for i, d := range perCandidate {
		spans[i%workers] += d
	}
	return spans
}

func oracleMaxSpan(spans []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range spans {
		if d > m {
			m = d
		}
	}
	return m
}

// oraclePoolSchedule models the campaign worker pool's wall clock: experiment
// spans arrive in commit order and each is assigned to the least-loaded of
// `workers` workers (ties broken by lowest worker index), the classic
// deterministic list schedule. The result is the makespan.
func oraclePoolSchedule(spans []time.Duration, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	if workers > len(spans) && len(spans) > 0 {
		workers = len(spans)
	}
	load := make([]time.Duration, workers)
	for _, s := range spans {
		min := 0
		for w := 1; w < workers; w++ {
			if load[w] < load[min] {
				min = w
			}
		}
		load[min] += s
	}
	var makespan time.Duration
	for _, l := range load {
		if l > makespan {
			makespan = l
		}
	}
	return makespan
}

// oraclePipeline evaluates the pipelined-commit schedule for candidates in
// admission order: candidate i's scan is dispatched to the earliest-free
// worker (ties to the lowest worker index), and its commit starts once both
// its own scan and candidate i-1's commit have finished — the commit
// cursor. The worker stays occupied through the commit it performs.
func oraclePipeline(scans, commits []time.Duration, workers int) ([]oracleSlot, time.Duration, []time.Duration) {
	if workers < 1 {
		workers = 1
	}
	free := make([]time.Duration, workers)
	busy := make([]time.Duration, workers)
	slots := make([]oracleSlot, len(scans))
	var prevCommitEnd time.Duration
	for i := range scans {
		w := 0
		for j := 1; j < workers; j++ {
			if free[j] < free[w] {
				w = j
			}
		}
		s := oracleSlot{Worker: w, ScanStart: free[w]}
		s.ScanEnd = s.ScanStart + scans[i]
		s.CommitStart = s.ScanEnd
		if prevCommitEnd > s.CommitStart {
			s.CommitStart = prevCommitEnd
		}
		s.CommitEnd = s.CommitStart + commits[i]
		prevCommitEnd = s.CommitEnd
		free[w] = s.CommitEnd
		busy[w] += scans[i] + commits[i]
		slots[i] = s
	}
	var makespan time.Duration
	for i := range slots {
		if slots[i].CommitEnd > makespan {
			makespan = slots[i].CommitEnd
		}
	}
	return slots, makespan, busy
}
