package main

// The traced pipeline. Each function here makes the same public calls, in
// the same order, as experiment.Run (runBody) and experiment.FleetRecovery
// do, with a span around each call; runTraced checks that every traced
// experiment reproduces the untraced one's modeled outputs, so a change to
// either entry point that this copy misses shows up as failed checks.

import (
	"fmt"
	"runtime"
	"time"

	"otherworld/internal/apps"
	"otherworld/internal/core"
	"otherworld/internal/disk"
	"otherworld/internal/experiment"
	"otherworld/internal/faultinject"
	"otherworld/internal/hw"
	"otherworld/internal/kernel"
	"otherworld/internal/phys"
	"otherworld/internal/resurrect"
	"otherworld/internal/sched"
	"otherworld/internal/sim"
	"otherworld/internal/spans"
	"otherworld/internal/trace"
	"otherworld/internal/workload"
)

// span is one traced call. Spans are kept in memory and written at exit.
type span struct {
	Name   string
	Exp    int // experiment id (the job's index in the stream)
	ID     int
	Parent int // -1 for an experiment's root span
	Start  time.Duration
	End    time.Duration
}

type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (t *recorder) begin(name string, exp, parent int) int {
	t.spans = append(t.spans, span{Name: name, Exp: exp, ID: len(t.spans), Parent: parent, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *recorder) end(id int) { t.spans[id].End = time.Since(t.t0) }

// expTrace is one traced experiment in progress: the recorder, the
// experiment's root span, and the layer counters it accumulates.
type expTrace struct {
	t    *recorder
	root int
	exp  int
	s    *sample
}

// call runs fn inside a child span of the experiment's root.
func (e *expTrace) call(name string, fn func()) {
	id := e.t.begin(name, e.exp, e.root)
	fn()
	e.t.end(id)
}

// sample holds one traced experiment's layer counters.
type sample struct {
	app        string
	rootNS     int64
	bootAlloc  uint64
	injected   bool
	faulted    bool
	steps      uint64
	syscalls   uint64
	memAcc     uint64
	tlbHits    uint64
	tlbMisses  uint64
	physRead   int64
	physWrite  int64
	dead       *kernel.Kernel // the kernel generation that crashed
	rep        *resurrect.Report
	widthGain  float64
	disk       *disk.CrashReport
	writeBlks  int64
	evWritten  int64
	evDropped  int64
	salvDamage int64
	flushErrs  int64
	treeSkip   int
	hasTree    bool
	tierFirst  [sched.NumTiers]time.Duration
}

// boot wraps core.NewMachine, recording the bytes it allocates. The traced
// pass is serial, so the heap counter's delta belongs to this call.
func (e *expTrace) boot(opts core.Options) (*core.Machine, error) {
	var m *core.Machine
	var err error
	e.call("core.boot", func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		m, err = core.NewMachine(opts)
		runtime.ReadMemStats(&ms)
		e.s.bootAlloc = ms.TotalAlloc - a0
	})
	return m, err
}

// traced runs one job through the traced pipeline.
func traced(j job, t *recorder) (rec, sample) {
	s := sample{app: j.app}
	e := &expTrace{t: t, exp: j.id, s: &s}
	e.root = t.begin("experiment", j.id, -1)
	var r rec
	var m *core.Machine
	if j.run != nil {
		var res experiment.Result
		res, m = tracedRun(e, *j.run)
		r = fromResult(j, res)
	} else {
		r, m = tracedFleet(e, j)
	}
	t.end(e.root)
	s.rootNS = int64(t.spans[e.root].End - t.spans[e.root].Start)
	if m != nil {
		collect(m, &s)
	}
	return r, s
}

// collect reads the machine's layer counters after the experiment, outside
// its root span. Kernel counters are per generation, so a recovered
// machine's total adds the dead generation's.
func collect(m *core.Machine, s *sample) {
	gens := []*kernel.Kernel{m.K}
	if s.dead != nil && s.dead != m.K {
		gens = append(gens, s.dead)
	}
	for _, k := range gens {
		s.steps += k.Perf.Steps
		s.syscalls += k.Perf.Syscalls
		s.memAcc += k.Perf.MemAccesses
	}
	s.tlbHits, s.tlbMisses = m.HW.TLB.Hits, m.HW.TLB.Misses
	st := m.HW.Mem.Stats()
	s.physRead, s.physWrite = st.ReadBytes, st.WriteBytes
	for _, name := range m.HW.Bus.Names() {
		if dev, err := m.HW.Bus.Open(name); err == nil {
			_, w := dev.Stats()
			s.writeBlks += w
		}
	}
	for _, pt := range m.MetricsSnapshot().Points {
		switch pt.Name {
		case "trace_events_written_total":
			s.evWritten += pt.Value
		case "trace_events_dropped_total":
			s.evDropped += pt.Value
		case "trace_salvaged_damaged_total":
			s.salvDamage += pt.Value
		case "metrics_flush_errors_total":
			s.flushErrs += pt.Value
		}
	}
}

// recovered notes the resurrection report of a completed HandleFailure.
func (e *expTrace) recovered(fo *core.FailureOutcome) {
	if fo == nil {
		return
	}
	e.s.disk = fo.DiskCrash
	rep := fo.Report
	if rep == nil {
		return
	}
	e.s.rep = rep
	if c := rep.ScheduleAt(resurrect.CanonicalWorkers); c > 0 {
		e.s.widthGain = float64(rep.ScheduleAt(1)) / float64(c)
	}
}

// tracedRun is experiment.Run with a span around every call it makes.
func tracedRun(e *expTrace, cfg experiment.Config) (experiment.Result, *core.Machine) {
	var m *core.Machine
	out := tracedRunBody(e, cfg, &m)
	if m != nil {
		out.Duration = m.HW.Clock.Now()
		if cfg.DiskCrash {
			e.call("fs.fingerprint", func() { out.DiskFingerprint = experiment.DiskFingerprint(m.FS) })
		}
	}
	return out, m
}

func tracedRunBody(e *expTrace, cfg experiment.Config, mp **core.Machine) experiment.Result {
	if cfg.FaultsPerRun <= 0 {
		cfg.FaultsPerRun = 30
	}
	if cfg.MemoryMB <= 0 {
		cfg.MemoryMB = 256
	}
	opts := core.DefaultOptions()
	opts.HW = hw.Config{
		MemoryBytes:     cfg.MemoryMB << 20,
		NumCPUs:         2,
		TLBEntries:      64,
		WatchdogEnabled: true,
	}
	opts.CrashRegionMB = 16
	opts.VerifyCRC = cfg.VerifyCRC
	opts.UserSpaceProtection = cfg.Protection
	opts.Hardening = cfg.Hardening
	opts.Seed = cfg.Seed
	opts.Resurrection.Workers = cfg.ResurrectWorkers
	opts.Resurrection.Stream = cfg.Stream
	opts.LazyInstall = cfg.LazyInstall
	opts.CandidateIndexSlots = cfg.IndexSlots
	opts.DiskCrash.Enabled = cfg.DiskCrash

	setupFail := func(err error) experiment.Result {
		return experiment.Result{Outcome: experiment.OutcomeResurrectFailure, ResurrectErr: err}
	}
	m, err := e.boot(opts)
	if err != nil {
		return setupFail(err)
	}
	*mp = m
	d, err := experiment.DriverFor(cfg.App, cfg.Seed+7777)
	if err != nil {
		return setupFail(err)
	}
	e.call("workload.start", func() { err = d.Start(m) })
	if err != nil {
		return setupFail(err)
	}
	warm := warmupOps(cfg.Seed)
	e.call("kernel.warmup", func() { workload.RunUntilIdle(m, d, warm, warm*40) })

	inj := faultinject.New(cfg.Seed ^ 0x5EEDFA17)
	if cfg.DiskCrash {
		e.call("kernel.midflight", func() {
			r := sim.NewRNG(cfg.Seed ^ 0x0B10CF7A)
			d.Pump(m, 24)
			m.Run(1 + r.Intn(120))
		})
	}
	e.call("faultinject.inject", func() { _, err = inj.InjectBurst(m.K, cfg.FaultsPerRun) })
	if err != nil {
		return setupFail(err)
	}
	e.s.injected = true
	if cfg.DiskCrash {
		e.call("faultinject.arm_disk", func() { inj.ArmDiskCrash(m.K, m.DiskModel()) })
	}

	var res kernel.RunResult
	e.call("kernel.manifest", func() {
		for round := 0; round < 6; round++ {
			res = workload.RunUntilIdle(m, d, 60, 2400)
			if res.Panic != nil {
				break
			}
		}
	})
	if res.Panic == nil {
		e.call("trace.parse", func() {
			if reg := m.TraceRegion(); reg.Frames > 0 {
				trace.Parse(m.HW.Mem, reg)
			}
		})
		return experiment.Result{Outcome: experiment.OutcomeNoKernelFault, AckedOps: d.Acked()}
	}
	e.s.faulted = true
	out := experiment.Result{Panic: res.Panic}
	audit := func() {
		e.call("workload.audit", func() {
			if ck, ok := d.(workload.DataInvariantChecker); ok {
				out.DataChecked = true
				out.DataErr = ck.CheckDataInvariants(m)
			}
		})
	}

	e.s.dead = m.K
	var fo *core.FailureOutcome
	e.call("core.recover", func() { fo, err = m.HandleFailure() })
	e.recovered(fo)
	if err != nil || fo.Result != core.ResultRecovered {
		out.Outcome = experiment.OutcomeBootFailure
		audit()
		return out
	}
	out.Interruption = fo.SerialInterruption
	out.ParallelInterruption = fo.InterruptionAt(resurrect.CanonicalWorkers)

	found := false
	for _, pr := range fo.Report.Procs {
		if pr.Candidate.Program != d.Program() {
			continue
		}
		found = true
		if pr.Outcome == resurrect.OutcomeContinued || pr.Outcome == resurrect.OutcomeRestarted {
			break
		}
		if pr.Outcome == resurrect.OutcomeGaveUp {
			out.Outcome = experiment.OutcomeDataCorruption
		} else {
			out.Outcome = experiment.OutcomeResurrectFailure
		}
		audit()
		return out
	}
	if !found {
		out.Outcome = experiment.OutcomeResurrectFailure
		audit()
		return out
	}

	e.call("workload.reattach", func() { err = d.Reattach(m) })
	if err != nil {
		out.Outcome = experiment.OutcomeResurrectFailure
		audit()
		return out
	}
	var post kernel.RunResult
	e.call("workload.post", func() { post = workload.RunUntilIdle(m, d, 60, 2400) })
	if post.Panic != nil {
		out.Outcome = experiment.OutcomeResurrectFailure
		audit()
		return out
	}
	out.AckedOps = d.Acked()
	e.call("workload.verify", func() { err = d.Verify(m) })
	if err != nil {
		out.Outcome = experiment.OutcomeDataCorruption
		audit()
		e.call("trace.span_marks", func() { spanMarks(m, fo, &out) })
		return out
	}
	audit()
	e.call("trace.span_marks", func() { spanMarks(m, fo, &out) })
	if out.DataErr != nil {
		out.Outcome = experiment.OutcomeDataCorruption
		return out
	}
	out.Outcome = experiment.OutcomeSuccess
	return out
}

// spanMarks is the part of experiment.Run's span-plane capture that runs
// when Config.BuildSpans is off: two trace marks and the first-touch
// samples.
func spanMarks(m *core.Machine, fo *core.FailureOutcome, out *experiment.Result) {
	if tr := m.Tracer(); tr != nil {
		tr.Record(trace.Event{Kind: trace.KindSpanMark, A: trace.SpanMarkResume,
			B: uint64(fo.Report.Succeeded())})
		if out.DataChecked {
			var b uint64
			if out.DataErr != nil {
				b = 1
			}
			tr.Record(trace.Event{Kind: trace.KindSpanMark, A: trace.SpanMarkAudit, B: b})
		}
	}
	out.FirstTouch = append([]time.Duration(nil), fo.Report.FirstTouch...)
}

// warmupOps is experiment.Run's seed-dependent warm-up length.
func warmupOps(seed int64) int {
	off := seed % 97
	if off < 0 {
		off += 97
	}
	return 40 + int(off)
}

// fleetMix is experiment.FleetRecovery's process mix.
func fleetMix(population int) (mysql, apache, volano, shell int) {
	if population < 4 {
		population = 4
	}
	mysql = max(population/8, 1)
	apache = max(population/8, 1)
	volano = max(population/4, 1)
	shell = max(population-mysql-apache-volano, 1)
	return mysql, apache, volano, shell
}

// tracedFleet is experiment.FleetRecovery followed by FleetSpanTree, with a
// span around every call.
func tracedFleet(e *expTrace, j job) (rec, *core.Machine) {
	cfg := *j.fleet
	fail := func(err error) rec { return rec{job: j, err: err} }
	nMySQL, nApache, nVolano, nShell := fleetMix(cfg.Population)
	population := nMySQL + nApache + nVolano + nShell

	opts := core.DefaultOptions()
	opts.HW = hw.Config{
		MemoryBytes:     256<<20 + population*(512<<10),
		NumCPUs:         2,
		TLBEntries:      64,
		WatchdogEnabled: true,
	}
	opts.CrashRegionMB = 16 + population/32
	opts.Seed = cfg.Seed
	tiers := cfg.Tiers
	if tiers == nil {
		tiers = experiment.DefaultFleetTiers()
	}
	opts.Resurrection.Workers = cfg.Workers
	opts.Resurrection.Stream = cfg.Stream
	opts.Resurrection.Tiers = tiers
	opts.LazyInstall = cfg.Lazy
	opts.CandidateIndexSlots = cfg.IndexSlots
	m, err := e.boot(opts)
	if err != nil {
		return fail(err), nil
	}

	start := func(prefix, prog string, n int) {
		e.call("workload.start", func() {
			for k := 0; k < n && err == nil; k++ {
				if _, serr := m.Start(fmt.Sprintf("%s-%d", prefix, k), prog); serr != nil {
					err = fmt.Errorf("start %s-%d: %w", prefix, k, serr)
				}
			}
		})
	}
	start("mysqld", apps.ProgMySQL, nMySQL)
	start("apache", apps.ProgApache, nApache)
	start("volano", apps.ProgVolano, nVolano)
	start("sh", apps.ProgShell, nShell)
	if err != nil {
		return fail(err), m
	}
	e.call("kernel.warmup", func() {
		for k := 0; k < nMySQL*4; k++ {
			m.Net.Deliver(apps.MySQLPort, []byte(fmt.Sprintf("I %d fleet-%04d", k+1, k)))
		}
		for k := 0; k < nApache*2; k++ {
			m.Net.Deliver(apps.ApachePort, []byte(fmt.Sprintf("GET /s%d", k)))
		}
		m.Run(population*6 + nMySQL*16)
	})
	e.call("faultinject.inject", func() {
		//owvet:allow errdrop: InjectOops always returns the injected panic; recovery is checked below
		_ = m.K.InjectOops("fleet crash")
		if cfg.CorruptIndex {
			if reg := m.IndexRegion(); reg.Frames > 0 {
				garbage := []byte{0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef}
				err = m.HW.Mem.WriteAt(phys.FrameAddr(reg.Start), garbage)
			}
		}
	})
	if err != nil {
		return fail(fmt.Errorf("corrupt index: %w", err)), m
	}
	e.s.injected, e.s.faulted = true, true
	e.s.dead = m.K
	var fo *core.FailureOutcome
	e.call("core.recover", func() { fo, err = m.HandleFailure() })
	if err != nil {
		return fail(err), m
	}
	if fo.Result != core.ResultRecovered {
		return fail(fmt.Errorf("transfer failed: %s", fo.Transfer.Reason)), m
	}
	if fo.Report == nil {
		return fail(fmt.Errorf("fleet recovery produced no resurrection report")), m
	}
	e.recovered(fo)
	rep := fo.Report
	res := &experiment.FleetResult{
		Outcome:       fo,
		Machine:       m,
		Population:    population,
		Prologue:      rep.Prologue,
		IndexUsed:     rep.IndexUsed,
		IndexSkipped:  rep.IndexSkipped,
		IndexFallback: rep.IndexFallback,
	}
	e.call("experiment.fleet_stats", func() { fleetStats(res, cfg, tiers) })

	var tree *spans.Tree
	e.call("spans.build", func() {
		tree, err = res.FleetSpanTree(cfg.Seed, cfg.Lazy, resurrect.CanonicalWorkers)
	})
	if err != nil {
		return fail(err), m
	}
	e.s.hasTree, e.s.treeSkip = true, tree.Skipped
	for _, st := range res.Tiers {
		e.s.tierFirst[st.Tier] = st.FirstResume
	}
	return fleetRec(j, res, tree), m
}

// fleetStats is FleetRecovery's per-tier derivation and metrics export.
func fleetStats(res *experiment.FleetResult, cfg experiment.FleetConfig, tiers map[string]int) {
	fo, m := res.Outcome, res.Machine
	rep := fo.Report
	outside := fo.SerialInterruption - rep.Duration
	if outside < 0 {
		outside = 0
	}
	resumes := rep.ResumeTimesAt(resurrect.CanonicalWorkers)
	tierOf := resurrect.Config{Tiers: tiers}.TierOf
	byTier := make([][]time.Duration, sched.NumTiers)
	for i := range rep.Procs {
		t := tierOf(rep.Procs[i].Candidate.Program)
		down := fo.SerialInterruption
		if i < len(resumes) {
			down = outside + resumes[i]
		}
		byTier[t] = append(byTier[t], down)
	}
	reg := m.Metrics()
	for t := 0; t < sched.NumTiers; t++ {
		st := experiment.FleetTierStats{Tier: t, Procs: len(byTier[t])}
		if len(byTier[t]) > 0 {
			first := byTier[t][0]
			var lost int64
			for _, d := range byTier[t] {
				first = min(first, d)
				lost += int64(cfg.Arrivals[t]) * int64(d) / int64(time.Second)
			}
			st.FirstResume = first
			st.RequestsLost = lost
			st.P50, _ = spans.Percentile(byTier[t], 50)
			st.P95, _ = spans.Percentile(byTier[t], 95)
			st.P99, _ = spans.Percentile(byTier[t], 99)
			st.HasPercentiles = true
		}
		res.Tiers = append(res.Tiers, st)
		if reg != nil {
			l := map[string]string{"tier": fmt.Sprint(t)}
			reg.Gauge("fleet_tier_procs",
				"resurrection candidates per SLO tier in the fleet scenario", l).
				Set(float64(st.Procs))
			if st.Procs > 0 {
				reg.Counter("fleet_requests_lost_total",
					"modeled open-loop requests lost to per-process outages, by tier", l).
					Add(st.RequestsLost)
				reg.Gauge("fleet_tier_first_resume_ns",
					"per-tier time-to-first-resume at the canonical width, failure to resume", l).
					Set(float64(st.FirstResume))
			}
		}
	}
	if reg != nil {
		reg.Gauge("fleet_population", "fleet scenario process count", nil).
			Set(float64(res.Population))
	}
}
