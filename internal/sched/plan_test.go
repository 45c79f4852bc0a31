package sched

import (
	"math/rand"
	"testing"
	"time"
)

func secs(v ...int) []time.Duration {
	out := make([]time.Duration, len(v))
	for i, s := range v {
		out[i] = time.Duration(s) * time.Second
	}
	return out
}

// TestPlanListOrder pins the campaign pool's list schedule.
func TestPlanListOrder(t *testing.T) {
	cases := []struct {
		name    string
		spans   []time.Duration
		workers int
		want    time.Duration
	}{
		{"empty", nil, 4, 0},
		{"serial-sums", secs(3, 2, 2, 1), 1, 8 * time.Second},
		// Earliest-free: w0=3, w1=2, then 2 goes to w1 (2<3), then
		// 1 goes to w0 — both workers finish at 4s.
		{"two-workers-packed", secs(3, 2, 2, 1), 2, 4 * time.Second},
		// More workers than spans: one span per worker, the rest idle.
		{"workers-clamped", secs(3, 2), 8, 3 * time.Second},
		{"zero-workers-serial", secs(1, 1), 0, 2 * time.Second},
		// Ties go to the lowest worker index: 2,2 land on w0,w1; the next
		// 2 returns to w0.
		{"tie-lowest-index", secs(2, 2, 2), 2, 4 * time.Second},
		// A straggler dominates regardless of width.
		{"straggler-bound", secs(10, 1, 1, 1), 4, 10 * time.Second},
	}
	for _, c := range cases {
		if got := Makespan(Plan(List, c.spans, nil, c.workers)); got != c.want {
			t.Errorf("%s: Plan(List, %v, %d) makespan = %v, want %v",
				c.name, c.spans, c.workers, got, c.want)
		}
	}
}

// TestPlanRoundRobinPlacement pins the batch placement: job i on worker
// i mod W, each worker's jobs back to back.
func TestPlanRoundRobinPlacement(t *testing.T) {
	slots := Plan(RoundRobin, secs(5, 1, 1, 1, 1), secs(1, 1, 1, 1, 1), 2)
	wantWorker := []int{0, 1, 0, 1, 0}
	wantEnd := secs(6, 2, 8, 4, 10)
	for i, s := range slots {
		if s.Worker != wantWorker[i] || s.CommitEnd != wantEnd[i] {
			t.Fatalf("slot %d = worker %d end %v, want worker %d end %v",
				i, s.Worker, s.CommitEnd, wantWorker[i], wantEnd[i])
		}
	}
}

// randomSpans draws n durations from a range picked per call: narrow
// ranges produce many ties and zeros, wide ones none.
func randomSpans(rng *rand.Rand, n int) []time.Duration {
	hi := []int{1, 3, 10, 1000, 1 << 30}[rng.Intn(5)]
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Intn(hi))
	}
	return out
}

// TestPlanMatchesReplacedModels is the differential check against the
// three schedule models Plan replaced (plan_oracle_test.go): over seeded
// random spans at widths 0-9, RoundRobin's makespan is the old max shard,
// List's the old least-loaded makespan, and Cursor's slots are the old
// pipeline's, slot for slot.
func TestPlanMatchesReplacedModels(t *testing.T) {
	rng := rand.New(rand.NewSource(20100413))
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(24)
		scans, commits := randomSpans(rng, n), randomSpans(rng, n)
		jobs := make([]time.Duration, n)
		for i := range jobs {
			jobs[i] = scans[i] + commits[i]
		}
		for w := 0; w <= 9; w++ {
			if got, want := Makespan(Plan(RoundRobin, scans, commits, w)),
				oracleMaxSpan(oracleShardSpans(jobs, w)); got != want {
				t.Fatalf("iter %d w=%d: RoundRobin makespan %v, old max shard %v (jobs %v)",
					iter, w, got, want, jobs)
			}
			want := oraclePoolSchedule(jobs, w)
			if got := Makespan(Plan(List, jobs, nil, w)); got != want {
				t.Fatalf("iter %d w=%d: List makespan %v, old pool schedule %v (jobs %v)",
					iter, w, got, want, jobs)
			}
			if got := Makespan(Plan(List, scans, commits, w)); got != want {
				t.Fatalf("iter %d w=%d: split List makespan %v, old pool schedule %v (jobs %v)",
					iter, w, got, want, jobs)
			}
			slots := Plan(Cursor, scans, commits, w)
			old, oldMakespan, _ := oraclePipeline(scans, commits, w)
			for i := range old {
				if slots[i] != Slot(old[i]) {
					t.Fatalf("iter %d w=%d: Cursor slot %d = %+v, old pipeline %+v",
						iter, w, i, slots[i], old[i])
				}
			}
			if len(slots) != len(old) || Makespan(slots) != oldMakespan {
				t.Fatalf("iter %d w=%d: Cursor %d slots makespan %v, old %d slots makespan %v",
					iter, w, len(slots), Makespan(slots), len(old), oldMakespan)
			}
		}
	}
}

// FuzzPlan checks Plan's schedule invariants over arbitrary non-negative
// spans: every slot is scan then commit; slots never overlap on a worker;
// RoundRobin places job i on worker i mod W; Cursor commits run in job
// order; and the makespan is the latest slot end.
func FuzzPlan(f *testing.F) {
	f.Add([]byte{5, 1, 1, 1, 1, 1, 1, 1}, uint8(2), uint8(Cursor))
	f.Add([]byte{3, 0, 2, 0, 2, 0, 1, 0}, uint8(2), uint8(List))
	f.Add([]byte{}, uint8(0), uint8(RoundRobin))
	f.Fuzz(func(t *testing.T, data []byte, width, policy uint8) {
		p := Policy(policy % 3)
		workers := int(width % 10)
		var scans, commits []time.Duration
		for i := 0; i+1 < len(data); i += 2 {
			scans = append(scans, time.Duration(data[i])*time.Millisecond)
			commits = append(commits, time.Duration(data[i+1])*time.Millisecond)
		}
		slots := Plan(p, scans, commits, workers)
		if len(slots) != len(scans) {
			t.Fatalf("%d slots for %d jobs", len(slots), len(scans))
		}
		w := max(workers, 1)
		free := make([]time.Duration, w)
		var latest time.Duration
		for i, s := range slots {
			if s.Worker < 0 || s.Worker >= w {
				t.Fatalf("slot %d on worker %d of %d", i, s.Worker, w)
			}
			if p == RoundRobin && s.Worker != i%w {
				t.Fatalf("round-robin slot %d on worker %d", i, s.Worker)
			}
			if s.ScanEnd-s.ScanStart != scans[i] || s.CommitEnd-s.CommitStart != commits[i] ||
				s.CommitStart < s.ScanEnd {
				t.Fatalf("slot %d = %+v, not scan %v then commit %v", i, s, scans[i], commits[i])
			}
			if s.ScanStart < free[s.Worker] {
				t.Fatalf("slot %d starts %v on worker %d, busy until %v", i, s.ScanStart, s.Worker, free[s.Worker])
			}
			free[s.Worker] = s.CommitEnd
			if p == Cursor && i > 0 && s.CommitStart < slots[i-1].CommitEnd {
				t.Fatalf("commit %d starts %v before commit %d ends %v", i, s.CommitStart, i-1, slots[i-1].CommitEnd)
			}
			latest = max(latest, s.CommitEnd)
		}
		if got := Makespan(slots); got != latest {
			t.Fatalf("makespan %v, latest slot end %v", got, latest)
		}
	})
}
