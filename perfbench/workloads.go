package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"otherworld/internal/experiment"
	"otherworld/internal/resurrect"
	"otherworld/internal/sched"
	"otherworld/internal/sim"
	"otherworld/internal/spans"
)

// job is one experiment of a workload's seeded stream.
type job struct {
	id  int
	app string // Table 5 / WAL application name, or "fleet"
	// Exactly one of run and fleet is set.
	run   *experiment.Config
	fleet *experiment.FleetConfig
}

// workloadDef defines one benchmark workload.
type workloadDef struct {
	name string
	// job returns experiment i of the stream the seed defines. The stream is
	// unbounded; its first `measured` experiments are run to completion in
	// every run and give the modeled metrics.
	job      func(seed int64, i int) job
	measured int
	// warmup is the untimed experiment each set-up repetition runs. It does
	// not depend on the seed, so set-up time does not either.
	warmup job
	// modeled adds the workload's modeled metrics over the measured set.
	modeled func(recs []rec, r *report)
}

// Sizes of the measured sets, chosen so one set takes roughly 5-30 s of
// wall time at a pool width of 2 on a 2-core x86 host.
const (
	table5Rounds = 4  // attempts per (application, pass)
	walRounds    = 10 // attempts per WAL variant
	fleetRuns    = 8  // fleet recoveries
	fleetPop     = 256
	setupReps    = 3
	// benchRefSeed is the seed BENCH_10.json's fleet entry was taken at.
	benchRefSeed = 20100413
)

var workloads = map[string]*workloadDef{
	"table5": {
		name:     "table5",
		job:      table5Job,
		measured: 10 * table5Rounds,
		warmup:   runJob(0, "vi", experiment.DefaultConfig("vi", benchRefSeed)),
		modeled:  table5Modeled,
	},
	"fleet": {
		name:     "fleet",
		job:      fleetJob,
		measured: fleetRuns,
		warmup:   fleetRun(0, fleetPop, benchRefSeed),
		modeled:  fleetModeled,
	},
	"wal-crash": {
		name:     "wal-crash",
		job:      walJob,
		measured: 2 * walRounds,
		warmup:   walJob(benchRefSeed, 0),
		modeled:  walModeled,
	},
}

func runJob(id int, app string, cfg experiment.Config) job {
	cfg.ResurrectWorkers = width()
	return job{id: id, app: app, run: &cfg}
}

// passSalt reproduces RunTable5Campaign's per-(application, pass) seed
// space, so experiment j of a pass is the campaign's j-th attempt there.
func passSalt(appIdx, pass int) int64 {
	const passCount = 2
	return (int64(appIdx)*passCount + int64(pass) + 1) << 44
}

// table5Job: rounds of the ten (application, pass) combinations, unprotected
// pass first, each application's j-th campaign attempt in round j.
func table5Job(seed int64, i int) job {
	round, k := i/10, i%10
	pass, appIdx := k/5, k%5
	app := experiment.AppNames[appIdx]
	cfg := experiment.DefaultConfig(app, seed+passSalt(appIdx, pass)+int64(round)*7919)
	cfg.Protection = pass == 1
	return runJob(i, app, cfg)
}

// walJob alternates the fixed and the buggy WAL variant under the block
// crash model, recovered by Otherworld with the lazy install.
func walJob(seed int64, i int) job {
	round, appIdx := i/2, i%2
	app := []string{"WAL", "WAL-bug"}[appIdx]
	cfg := experiment.DefaultConfig(app, seed+passSalt(appIdx, 0)+int64(round)*7919)
	cfg.DiskCrash = true
	cfg.LazyInstall = true
	return runJob(i, app, cfg)
}

// fleetJob: one streamed fleet recovery per consecutive seed. At a fixed
// population the fleet's modeled figures do not depend on the seed, so the
// seed also takes 0-15 processes off the 256.
func fleetJob(seed int64, i int) job {
	s := seed + int64(i)
	return fleetRun(i, fleetPop-sim.NewRNG(s).Intn(16), s)
}

func fleetRun(id, population int, seed int64) job {
	cfg := experiment.DefaultFleet(population, seed)
	cfg.Workers = width()
	return job{id: id, app: "fleet", fleet: &cfg}
}

// rec is one experiment's record: the modeled outputs (a pure function of
// the job) plus the host time it took.
type rec struct {
	job    job
	hostNS int64
	err    error

	outcome   string
	faulted   bool // a kernel failure manifested
	success   bool
	duration  time.Duration // machine clock at the end of the experiment
	serial    time.Duration // serial-model interruption
	canonical time.Duration // interruption at resurrect.CanonicalWorkers
	acked     int
	firstN    int
	firstSum  time.Duration
	audited   bool
	violated  bool
	disk      string

	// Fleet only.
	fingerprint  string
	candidates   int
	resumed      int
	downs        []time.Duration // per-process interruption at the canonical width
	tiers        []experiment.FleetTierStats
	critErr      time.Duration
	prologue     time.Duration
	passDuration time.Duration
	indexUsed    int
	indexSkipped int
}

// key renders every modeled field, for the determinism checks.
func (r *rec) key() string {
	if r.err != nil {
		return "error: " + r.err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s outcome=%s dur=%d serial=%d canon=%d acked=%d ft=%d/%d audit=%v/%v disk=%s",
		r.job.app, r.outcome, r.duration, r.serial, r.canonical, r.acked, r.firstN, r.firstSum,
		r.audited, r.violated, r.disk)
	if r.job.fleet != nil {
		fmt.Fprintf(&b, " fp=%s cand=%d resumed=%d tiers=%v crit=%d pro=%d pass=%d idx=%d/%d downs=%v",
			r.fingerprint, r.candidates, r.resumed, r.tiers, r.critErr,
			r.prologue, r.passDuration, r.indexUsed, r.indexSkipped, r.downs)
	}
	return b.String()
}

// execute runs one job through the untraced public entry points.
func execute(j job) rec {
	t := time.Now()
	var r rec
	if j.run != nil {
		r = fromResult(j, experiment.Run(*j.run))
	} else {
		r = executeFleet(j)
	}
	r.hostNS = time.Since(t).Nanoseconds()
	return r
}

func fromResult(j job, res experiment.Result) rec {
	r := rec{
		job:       j,
		outcome:   res.Outcome.String(),
		faulted:   res.Outcome != experiment.OutcomeNoKernelFault,
		success:   res.Outcome == experiment.OutcomeSuccess,
		duration:  res.Duration,
		serial:    res.Interruption,
		canonical: res.ParallelInterruption,
		acked:     res.AckedOps,
		firstN:    len(res.FirstTouch),
		audited:   res.DataChecked,
		violated:  res.DataErr != nil,
		disk:      res.DiskFingerprint,
	}
	for _, d := range res.FirstTouch {
		r.firstSum += d
	}
	return r
}

func executeFleet(j job) rec {
	res, err := experiment.FleetRecovery(*j.fleet)
	if err != nil {
		return rec{job: j, err: err}
	}
	tree, err := res.FleetSpanTree(j.fleet.Seed, j.fleet.Lazy, resurrect.CanonicalWorkers)
	if err != nil {
		return rec{job: j, err: err}
	}
	return fleetRec(j, res, tree)
}

// fleetRec extracts the modeled figures of one fleet recovery; the
// per-process interruptions are derived exactly as FleetRecovery derives
// its per-tier percentiles.
func fleetRec(j job, res *experiment.FleetResult, tree *spans.Tree) rec {
	fo := res.Outcome
	rep := fo.Report
	r := rec{
		job:          j,
		outcome:      fo.Result.String(),
		faulted:      true,
		success:      true,
		duration:     res.Machine.HW.Clock.Now(),
		serial:       fo.SerialInterruption,
		canonical:    fo.InterruptionAt(resurrect.CanonicalWorkers),
		firstN:       len(rep.FirstTouch),
		fingerprint:  rep.Fingerprint(),
		candidates:   len(rep.Procs),
		resumed:      rep.Succeeded(),
		prologue:     res.Prologue,
		passDuration: rep.Duration,
		indexUsed:    res.IndexUsed,
		indexSkipped: res.IndexSkipped,
		tiers:        res.Tiers,
	}
	outside := fo.SerialInterruption - rep.Duration
	if outside < 0 {
		outside = 0
	}
	resumes := rep.ResumeTimesAt(resurrect.CanonicalWorkers)
	for i := range rep.Procs {
		d := fo.SerialInterruption
		if i < len(resumes) {
			d = outside + resumes[i]
		}
		r.downs = append(r.downs, d)
	}
	if tree != nil {
		d := tree.Critical.Interruption - r.canonical
		if d < 0 {
			d = -d
		}
		r.critErr = d
	}
	return r
}

// setup runs the workload's untimed warm-up experiment setupReps times and
// returns the median time. The repeats must give identical modeled outputs,
// and the fleet's must equal the BENCH_10.json reference.
func setup(def *workloadDef, r *report) (float64, error) {
	var times []float64
	var keys []string
	for i := 0; i < setupReps; i++ {
		w := execute(def.warmup)
		times = append(times, float64(w.hostNS)/1e9)
		if w.err != nil {
			return 0, fmt.Errorf("warm-up experiment: %w", w.err)
		}
		keys = append(keys, w.key())
		if i == 0 && def.name == "fleet" {
			r.attempted++
			if diff := checkFleetReference(w); diff != "" {
				r.fail("fleet seed %d differs from BENCH_10.json fleet-stream/mixed-256: %s", benchRefSeed, diff)
			}
		}
	}
	for i := 1; i < len(keys); i++ {
		r.attempted++
		if keys[i] != keys[0] {
			r.fail("warm-up repeat %d of one seed gave different modeled outputs", i)
		}
	}
	return median(times), nil
}

// window runs the workload's closed loop: `w` workers each take the next
// job of the stream as soon as their previous one finishes. Workers stop
// taking jobs once the window has elapsed and the measured set has been
// handed out; in-flight jobs run to completion. It returns every record
// and the time from the start to the last completion.
func window(def *workloadDef, seed int64, w int, length time.Duration) ([]rec, time.Duration) {
	var (
		mu   sync.Mutex
		next int
		recs []rec
		last time.Duration
		wg   sync.WaitGroup
	)
	start := time.Now()
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= def.measured && time.Since(start) >= length {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				r := execute(def.job(seed, i))
				mu.Lock()
				recs = append(recs, r)
				last = time.Since(start)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(recs, func(a, b int) bool { return recs[a].job.id < recs[b].job.id })
	return recs, last
}

// runUntraced measures the end-to-end metrics.
func runUntraced(def *workloadDef, seed int64, length time.Duration, r *report) error {
	setupS, err := setup(def, r)
	if err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	recs, wall := window(def, seed, width(), length)
	runtime.ReadMemStats(&ms)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	n := len(recs)
	r.attempted += n
	for _, x := range recs {
		if x.err != nil {
			r.fail("%s experiment %d: %v", x.job.app, x.job.id, x.err)
		}
	}
	r.put("setup_s", setupS, "s", "lower", "host", fmt.Sprintf("median of %d set-ups", setupReps))
	// exp_per_s counts the faulted experiments only. A discarded run pumps
	// six more request rounds and costs about three faulted runs, so the
	// seed's count of them in a window would set the rate; the rate with
	// them counted is printed as exp_per_s_all.
	var counted []rec
	for _, x := range recs {
		if x.faulted {
			counted = append(counted, x)
		}
	}
	if len(counted) == 0 {
		return fmt.Errorf("no faulted experiment to compute exp_per_s over")
	}
	all, _ := perAppRate(recs, width())
	r.show("exp_per_s_all", all, "1/s", "higher", "host",
		fmt.Sprintf("as exp_per_s, discarded runs counted too (%d of %d); not gated", n-len(counted), n))
	rate, rates := perAppRate(counted, width())
	r.put("exp_per_s", rate, "1/s", "higher", "host",
		fmt.Sprintf("geometric mean over %d applications, %d faulted experiments at width %d", len(rates), len(counted), width()))
	for _, app := range sortedKeys(rates) {
		r.show("exp_per_s."+appMetricName(app), rates[app], "1/s", "higher", "host", "not gated")
	}
	r.show("exp_per_s_wall", float64(n)/wall.Seconds(), "1/s", "higher", "host",
		fmt.Sprintf("%d experiments in %.2fs wall; not gated", n, wall.Seconds()))
	r.put("alloc_mb_per_exp", float64(ms.TotalAlloc-alloc0)/float64(n)/(1<<20), "MB", "lower", "host", "")
	r.put("peak_rss_mb", rss, "MB", "lower", "host", "")
	measured := recs[:def.measured]
	checkMeasured(def, measured, r)
	def.modeled(measured, r)
	return nil
}

// perAppRate is the closed loop's throughput with every application
// weighing equally: per application, its experiments over the host seconds
// they took times the pool width (the rate a pool running only that
// application would reach), then the geometric mean over applications.
// Applications differ in host cost by more than 10x, so a plain count over
// wall time would track only the costliest one's seed-dependent share of
// discarded runs.
func perAppRate(recs []rec, w int) (float64, map[string]float64) {
	ns := map[string]int64{}
	n := map[string]int{}
	for _, x := range recs {
		ns[x.job.app] += x.hostNS
		n[x.job.app]++
	}
	rates := map[string]float64{}
	var logSum float64
	for app := range n {
		rates[app] = float64(n[app]) * float64(w) / (float64(ns[app]) / 1e9)
		logSum += math.Log(rates[app])
	}
	return math.Exp(logSum / float64(len(n))), rates
}

// checkMeasured checks that the measured set is complete and, on
// wal-crash, that the fixed WAL protocol survived every post-crash disk
// audit.
func checkMeasured(def *workloadDef, recs []rec, r *report) {
	for i, x := range recs {
		if x.job.id != i {
			r.fail("measured set incomplete: record %d is job %d", i, x.job.id)
			return
		}
	}
	if def.name != "wal-crash" {
		return
	}
	for _, x := range recs {
		if x.job.app == "WAL" && x.violated {
			r.fail("fixed WAL variant lost data (experiment %d, seed %d)", x.job.id, x.job.run.Seed)
		}
	}
}

// paperTable5 is the paper's Table 5 success column (EXPERIMENTS.md).
var paperTable5 = map[string]float64{
	"vi": 97.5, "JOE": 97.75, "MySQL": 97.25, "Apache/PHP": 97, "BLCR": 97,
}

func table5Modeled(recs []rec, r *report) {
	// Success over the faulted runs of both passes; interruptions over every
	// successful recovery, each application weighing equally (its Table 5
	// row), so one application's discard rate does not shift the pooled
	// percentiles between applications.
	var faulted, success, unprot int
	okByApp := map[string]int{}
	perApp := map[string][2]int{} // unprotected pass: faulted, successful
	for _, x := range recs {
		if !x.faulted {
			continue
		}
		faulted++
		if x.success {
			success++
			okByApp[x.job.app]++
		}
		if x.job.run.Protection {
			continue
		}
		unprot++
		c := perApp[x.job.app]
		c[0]++
		if x.success {
			c[1]++
		}
		perApp[x.job.app] = c
	}
	var ints []weighted
	for _, x := range recs {
		if x.success {
			ints = append(ints, weighted{x.canonical, 1 / float64(okByApp[x.job.app])})
		}
	}
	putSuccess(r, success, faulted, "faulted runs, both passes")
	putInterruptions(r, ints, "successful recoveries, both passes, apps weighted equally")
	var errSum float64
	apps := 0
	for _, app := range experiment.AppNames {
		c := perApp[app]
		if c[0] == 0 {
			continue
		}
		apps++
		errSum += math.Abs(100*float64(c[1])/float64(c[0]) - paperTable5[app])
	}
	if apps > 0 {
		r.show("paper_error_pp", errSum/float64(apps), "pp", "lower", "modeled",
			fmt.Sprintf("mean over %d apps, n=%d unprotected faulted; not gated", apps, unprot))
	}
}

func walModeled(recs []rec, r *report) {
	var faulted, success, audits, held int
	var ints []weighted
	for _, x := range recs {
		if x.audited {
			audits++
			if !x.violated {
				held++
			}
		}
		if !x.faulted {
			continue
		}
		faulted++
		if x.success {
			success++
			ints = append(ints, weighted{x.canonical, 1})
		}
	}
	putSuccess(r, success, faulted, "faulted runs, both WAL variants")
	putInterruptions(r, ints, "successful recoveries")
	if audits > 0 {
		r.show("data_survival_pct", 100*float64(held)/float64(audits), "%", "higher", "modeled",
			fmt.Sprintf("%d of %d audits held; not gated", held, audits))
	}
}

func fleetModeled(recs []rec, r *report) {
	var cands, resumed int
	var downs []weighted
	var first, lost, crit []float64
	for _, x := range recs {
		if x.err != nil {
			continue
		}
		cands += x.candidates
		resumed += x.resumed
		for _, d := range x.downs {
			downs = append(downs, weighted{d, 1})
		}
		var l int64
		for _, st := range x.tiers {
			l += st.RequestsLost
			if st.Tier == sched.TierCritical {
				first = append(first, st.FirstResume.Seconds())
			}
		}
		lost = append(lost, float64(l))
		crit = append(crit, x.critErr.Seconds())
	}
	if len(first) == 0 {
		r.fail("no fleet recovery completed")
		return
	}
	putSuccess(r, resumed, cands, fmt.Sprintf("candidates over %d recoveries", len(first)))
	putInterruptions(r, downs, "per-process resume times")
	r.show("tier0_first_resume_s", median(first), "s", "lower", "modeled",
		fmt.Sprintf("median over %d recoveries; not gated", len(first)))
	r.show("requests_lost", median(lost), "count", "lower", "modeled",
		fmt.Sprintf("median over %d recoveries; not gated", len(lost)))
	r.show("critical_path_error_s", median(crit), "s", "lower", "modeled",
		"|CriticalPath.Interruption - InterruptionAt(4)|, median; not gated (ROADMAP item 2)")
}

func putSuccess(r *report, ok, of int, what string) {
	if of == 0 {
		r.fail("no %s to compute success_pct over", what)
		return
	}
	r.put("success_pct", 100*float64(ok)/float64(of), "%", "higher", "modeled",
		fmt.Sprintf("%d of %d %s", ok, of, what))
}

// weighted is one interruption sample and its weight in the distribution.
type weighted struct {
	d time.Duration
	w float64
}

// percentile is the weighted nearest-rank percentile: the smallest sample
// whose cumulative weight reaches p% of the total. With unit weights it is
// spans.Percentile.
func percentile(s []weighted, p int) time.Duration {
	s = append([]weighted(nil), s...)
	sort.Slice(s, func(i, j int) bool { return s[i].d < s[j].d })
	var total float64
	for _, x := range s {
		total += x.w
	}
	want := total * float64(p) / 100
	var cum float64
	for _, x := range s {
		cum += x.w
		if cum >= want*(1-1e-12) {
			return x.d
		}
	}
	return s[len(s)-1].d
}

// putInterruptions reports the median and the tail: the highest whole
// percentile that leaves at least 10 samples above it.
func putInterruptions(r *report, ds []weighted, what string) {
	if len(ds) == 0 {
		r.fail("no %s to compute interruptions over", what)
		return
	}
	r.put("interruption_p50_s", percentile(ds, 50).Seconds(), "s", "lower", "modeled", fmt.Sprintf("n=%d %s", len(ds), what))
	p := tailPercentile(len(ds))
	r.put("interruption_tail_s", percentile(ds, p).Seconds(), "s", "lower", "modeled", fmt.Sprintf("p%d, n=%d", p, len(ds)))
}

// tailPercentile is the highest whole percentile p (at least 50) whose
// nearest-rank position leaves at least 10 of n samples above it; 50 when
// n is too small for any.
func tailPercentile(n int) int {
	for p := 99; p > 50; p-- {
		rank := (p*n + 99) / 100
		if n-rank >= 10 {
			return p
		}
	}
	return 50
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
