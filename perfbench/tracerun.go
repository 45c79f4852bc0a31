package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"otherworld/internal/core"
	"otherworld/internal/experiment"
	"otherworld/internal/sched"
)

// maxOtherPct bounds the share of a traced experiment's host time that no
// named span covers; above it the span set has lost track of a call.
const maxOtherPct = 5

// cpuPackages are the leaf packages whose CPU-profile share is reported.
var cpuPackages = []string{"kernel", "phys", "hw", "resurrect", "layout", "disk", "fs",
	"checkpoint", "sched", "trace", "metrics", "runtime"}

// overheadEvery picks the experiments the traced run also repeats
// untraced, back to back with the traced run, to measure tracing overhead.
const overheadEvery = 4

// runTraced is the per-layer run: the measured set once untraced at full
// width under the CPU profiler, then once more serially through the traced
// pipeline; every overheadEvery-th experiment also runs untraced right
// before its traced run.
func runTraced(def *workloadDef, seed int64, outDir string, r *report) error {
	if _, err := setup(def, r); err != nil {
		return err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	ref, wall := window(def, seed, width(), 0)
	pprof.StopCPUProfile()
	split, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return err
	}

	spanRec := newRecorder()
	var samples []sample
	var tracedNS, pairedUntraced, pairedTraced int64
	for i, want := range ref {
		j := def.job(seed, i)
		if i%overheadEvery == 0 {
			u := execute(j)
			pairedUntraced += u.hostNS
			r.attempted++
			if u.key() != want.key() {
				r.fail("%s experiment %d: serial untraced repeat differs from the first run:\n  %s\n  %s", j.app, j.id, u.key(), want.key())
			}
		}
		tr, s := traced(j, spanRec)
		tracedNS += s.rootNS
		if i%overheadEvery == 0 {
			pairedTraced += s.rootNS
		}
		samples = append(samples, s)
		r.attempted++
		switch {
		case want.err != nil:
			r.fail("%s experiment %d: %v", j.app, j.id, want.err)
		case tr.key() != want.key():
			r.fail("%s experiment %d: traced run differs from untraced:\n  %s\n  %s", j.app, j.id, tr.key(), want.key())
		}
	}
	checkMeasured(def, ref, r)

	lm := layerMetrics(ref, samples, spanRec, r)
	r.put("trace_overhead_pct", 100*(float64(pairedTraced)/float64(pairedUntraced)-1), "%", "lower", "host",
		fmt.Sprintf("traced vs untraced host time, every %dth experiment run both ways serially", overheadEvery))
	r.put("experiment.parallel_efficiency", float64(tracedNS)/(wall.Seconds()*1e9*float64(width())), "ratio", "higher", "host",
		fmt.Sprintf("traced serial sum %.2fs / (untraced wall %.2fs x width %d)", float64(tracedNS)/1e9, wall.Seconds(), width()))
	for _, p := range cpuPackages {
		r.put(p+".cpu_pct", split.byPkg[p], "%", "lower", "host", fmt.Sprintf("of %d CPU-profile samples (leaf package)", split.samples))
	}
	for i, f := range split.top {
		if i == 5 {
			break
		}
		r.show(fmt.Sprintf("top%d_leaf", i+1), f.Pct, "%", "", "host", f.Func)
	}
	return writeTrace(def, seed, outDir, spanRec, split, lm, prof.Bytes())
}

// layerMetrics reports the per-layer metrics of the traced experiments and
// returns each span name's self time in ms, for the trace file.
func layerMetrics(ref []rec, samples []sample, t *recorder, r *report) map[string]float64 {
	n := float64(len(samples))
	// Self time per span name: a span's duration minus its children's.
	self := map[string]int64{}
	calls := map[string]int{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += int64(s.End - s.Start)
		}
	}
	var rootNS int64
	for i, s := range t.spans {
		self[s.Name] += int64(s.End-s.Start) - child[i]
		calls[s.Name]++
		if s.Parent < 0 {
			rootNS += int64(s.End - s.Start)
		}
	}
	selfMS := map[string]float64{}
	for name, ns := range self {
		selfMS[name] = float64(ns) / 1e6
	}
	perExp := func(names ...string) float64 {
		var ns int64
		for _, nm := range names {
			ns += self[nm]
		}
		return float64(ns) / 1e6 / n
	}
	perCall := func(name string, scale float64) float64 {
		if calls[name] == 0 {
			return 0
		}
		return float64(self[name]) / scale / float64(calls[name])
	}
	otherPct := 100 * float64(self["experiment"]) / float64(rootNS)
	r.attempted++
	if otherPct > maxOtherPct {
		r.fail("named spans cover only %.1f%% of traced host time (at most %d%% may be other)", 100-otherPct, maxOtherPct)
	}
	note := fmt.Sprintf("self ms per experiment, n=%d", len(samples))

	var (
		bootAlloc                           uint64
		steps, syscalls, memAcc, hits, miss uint64
		physRW, physR, physW                int64
		injected, faulted                   int
		recovered                           int
		cands, copied, elided, deduped, spc int
		firstTouch, extents                 int
		scanB, ptB                          int64
		prologue, serial                    time.Duration
		idxUsed, idxSkip                    int
		widthGain                           float64
		tierFirst                           [sched.NumTiers]time.Duration
		tierN                               [sched.NumTiers]int
		rolled, torn, orphans               int
		writeBlks                           int64
		evW, evD, salv, flushErr            int64
		treeSkip, trees                     int
		appNS                               = map[string]int64{}
		appN                                = map[string]int{}
	)
	for _, s := range samples {
		bootAlloc += s.bootAlloc
		steps += s.steps
		syscalls += s.syscalls
		memAcc += s.memAcc
		hits += s.tlbHits
		miss += s.tlbMisses
		physR += s.physRead
		physW += s.physWrite
		if s.injected {
			injected++
		}
		if s.faulted {
			faulted++
		}
		if rep := s.rep; rep != nil {
			recovered++
			cands += len(rep.Candidates)
			for _, p := range rep.Procs {
				copied += p.PagesCopied
				elided += p.PagesElided
				deduped += p.PagesDeduped
				spc += p.PagesSpeculated
				extents += p.FlushExtents
			}
			firstTouch += len(rep.FirstTouch)
			scanB += rep.Acct.KernelDataBytes()
			ptB += rep.Acct.PageTableBytes()
			prologue += rep.Prologue
			serial += rep.Duration
			idxUsed += rep.IndexUsed
			idxSkip += rep.IndexSkipped
			widthGain += s.widthGain
		}
		for t, d := range s.tierFirst {
			if d > 0 {
				tierFirst[t] += d
				tierN[t]++
			}
		}
		if d := s.disk; d != nil {
			rolled += d.RolledBack
			orphans += d.OrphanFlushed
			if d.Torn {
				torn++
			}
		}
		writeBlks += s.writeBlks
		evW += s.evWritten
		evD += s.evDropped
		salv += s.salvDamage
		flushErr += s.flushErrs
		if s.hasTree {
			trees++
			treeSkip += s.treeSkip
		}
		appNS[s.app] += s.rootNS
		appN[s.app]++
	}
	physRW = physR + physW
	perRec := func(v float64) float64 {
		if recovered == 0 {
			return 0
		}
		return v / float64(recovered)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	mb := float64(1 << 20)

	r.put("core.boot_ms", perExp("core.boot"), "ms", "lower", "host", note)
	r.put("core.boot_alloc_mb", ratio(float64(bootAlloc)/mb, float64(calls["core.boot"])), "MB", "lower", "host", "per core.NewMachine call")
	r.put("workload.start_ms", perExp("workload.start"), "ms", "lower", "host", note)
	r.put("kernel.warmup_ms", perExp("kernel.warmup"), "ms", "lower", "host", note)
	r.put("kernel.manifest_ms", perExp("kernel.manifest"), "ms", "lower", "host", note)
	r.put("workload.post_ms", perExp("workload.post"), "ms", "lower", "host", note)
	r.put("kernel.steps", float64(steps)/n, "count", "lower", "modeled", "per experiment, all kernel generations")
	r.put("kernel.syscalls", float64(syscalls)/n, "count", "lower", "modeled", "per experiment")
	r.put("kernel.mem_accesses", float64(memAcc)/n, "count", "lower", "modeled", "per experiment")
	interpNS := self["kernel.warmup"] + self["kernel.midflight"] + self["kernel.manifest"] + self["workload.post"]
	r.put("kernel.host_ns_per_step", ratio(float64(interpNS), float64(steps)), "ns", "lower", "host",
		fmt.Sprintf("interpreter-span ns over %d steps", steps))
	r.put("hw.tlb_hits", float64(hits)/n, "count", "higher", "modeled", "per experiment")
	r.put("hw.tlb_misses", float64(miss)/n, "count", "lower", "modeled", "per experiment")
	r.put("hw.tlb_miss_pct", 100*ratio(float64(miss), float64(hits+miss)), "%", "lower", "modeled", "")
	r.put("phys.read_mb", float64(physR)/mb/n, "MB", "lower", "modeled", "per experiment")
	r.put("phys.write_mb", float64(physW)/mb/n, "MB", "lower", "modeled", "per experiment")
	r.put("phys.host_ns_per_mb", ratio(float64(rootNS), float64(physRW)/mb), "ns", "lower", "host",
		fmt.Sprintf("experiment ns over %.1f MB of physical traffic", float64(physRW)/mb))
	r.put("faultinject.inject_us", perCall("faultinject.inject", 1e3), "us", "lower", "host", "per InjectBurst/InjectOops call")
	r.put("faultinject.manifest_pct", 100*ratio(float64(faulted), float64(injected)), "%", "higher", "modeled",
		fmt.Sprintf("%d of %d injections manifested", faulted, injected))
	r.put("core.recover_ms", perCall("core.recover", 1e6), "ms", "lower", "host", "per HandleFailure call")
	r.put("resurrect.candidates", perRec(float64(cands)), "count", "higher", "modeled", fmt.Sprintf("per recovery, %d recoveries", recovered))
	r.put("resurrect.scan_kb", perRec(float64(scanB)/1024), "KB", "lower", "modeled", "Table 4 kernel bytes read per recovery")
	r.put("resurrect.pagetable_pct", 100*ratio(float64(ptB), float64(scanB)), "%", "lower", "modeled", "")
	r.put("resurrect.pages_copied", perRec(float64(copied)), "count", "lower", "modeled", "per recovery")
	r.put("resurrect.pages_elided", perRec(float64(elided)), "count", "higher", "modeled", "per recovery")
	r.put("resurrect.pages_deduped", perRec(float64(deduped)), "count", "higher", "modeled", "per recovery")
	r.put("resurrect.pages_speculated", perRec(float64(spc)), "count", "higher", "modeled", "per recovery")
	r.put("resurrect.first_touch_n", perRec(float64(firstTouch)), "count", "lower", "modeled", "per recovery")
	r.put("resurrect.prologue_s", perRec(prologue.Seconds()), "s", "lower", "modeled", "per recovery")
	r.put("resurrect.serial_s", perRec(serial.Seconds()), "s", "lower", "modeled", "per recovery")
	r.put("resurrect.host_ns_per_scan_kb", ratio(float64(self["core.recover"]), float64(scanB)/1024), "ns", "lower", "host",
		fmt.Sprintf("HandleFailure ns over %.0f KB scanned", float64(scanB)/1024))
	r.put("layout.index_used", perRec(float64(idxUsed)), "count", "higher", "modeled", "per recovery")
	r.put("layout.index_skipped", perRec(float64(idxSkip)), "count", "lower", "modeled", "per recovery")
	for t := 0; t < sched.NumTiers; t++ {
		r.put(fmt.Sprintf("sched.tier%d_first_resume_s", t), ratio(tierFirst[t].Seconds(), float64(tierN[t])), "s", "lower", "modeled",
			fmt.Sprintf("mean over %d streamed recoveries", tierN[t]))
	}
	r.put("sched.width_gain_x", perRec(widthGain), "x", "higher", "modeled", "ScheduleAt(1)/ScheduleAt(4)")
	r.put("disk.rolled_back", float64(rolled)/n, "count", "lower", "modeled", "per experiment")
	r.put("disk.torn", float64(torn)/n, "count", "lower", "modeled", "per experiment")
	r.put("disk.orphans_flushed", float64(orphans)/n, "count", "lower", "modeled", "per experiment")
	r.put("disk.write_blocks", float64(writeBlks)/n, "count", "lower", "modeled", "per experiment")
	r.put("resurrect.flush_extents", perRec(float64(extents)), "count", "lower", "modeled", "per recovery")
	r.put("workload.verify_ms", perExp("workload.verify", "workload.audit"), "ms", "lower", "host", "Verify plus the data audit, "+note)
	r.put("trace.events_written", float64(evW)/n, "count", "higher", "modeled", "per experiment")
	r.put("trace.events_dropped", float64(evD)/n, "count", "lower", "modeled", "per experiment")
	r.put("trace.salvaged_damaged", float64(salv)/n, "count", "lower", "modeled", "per experiment")
	r.put("metrics.flush_errors", float64(flushErr)/n, "count", "lower", "modeled", "per experiment")
	r.put("spans.build_ms", perExp("spans.build"), "ms", "lower", "host", note)
	r.put("spans.skipped", ratio(float64(treeSkip), float64(trees)), "count", "lower", "modeled", fmt.Sprintf("per span tree, %d trees", trees))

	var durs []time.Duration
	for _, x := range ref {
		durs = append(durs, x.duration)
	}
	r.put("experiment.occupancy", core.PoolOccupancy(durs, experiment.CanonicalCampaignWorkers), "ratio", "higher", "modeled",
		fmt.Sprintf("pool schedule at %d workers", experiment.CanonicalCampaignWorkers))
	r.put("experiment.other_pct", otherPct, "%", "lower", "host", "traced host time outside every named span")
	for _, app := range experiment.AppNames {
		v := 0.0
		if appN[app] > 0 {
			v = float64(appNS[app]) / 1e6 / float64(appN[app])
		}
		r.put("apps."+appMetricName(app)+".host_ms_per_exp", v, "ms", "lower", "host", fmt.Sprintf("n=%d", appN[app]))
	}
	names := make([]string, 0, len(self))
	for nm := range self {
		names = append(names, nm)
	}
	sort.Strings(names)
	for _, nm := range names {
		r.show("self."+nm, selfMS[nm], "ms", "", "host", fmt.Sprintf("total self time over %d calls", calls[nm]))
	}
	return selfMS
}

// appMetricName normalises an application name to [a-z0-9-].
func appMetricName(app string) string {
	var b strings.Builder
	for _, c := range strings.ToLower(app) {
		if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') {
			b.WriteRune(c)
		} else {
			b.WriteByte('-')
		}
	}
	return b.String()
}

// writeTrace writes the spans as Chrome trace-event JSON (loadable in
// Perfetto), with the CPU-profile split alongside, and the raw profile.
func writeTrace(def *workloadDef, seed int64, dir string, t *recorder, split cpuSplit, selfMS map[string]float64, prof []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", def.name, seed))
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		parent := ""
		if s.Parent >= 0 {
			parent = t.spans[s.Parent].Name
		}
		events = append(events, event{
			Name: s.Name, Cat: def.name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"experiment": s.Exp, "id": s.ID, "parent_id": s.Parent, "parent": parent},
		})
	}
	top := split.top
	if len(top) > 5 {
		top = top[:5]
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"perfbench": map[string]any{
			"workload":    def.name,
			"seed":        seed,
			"width":       width(),
			"self_ms":     selfMS,
			"cpu_samples": split.samples,
			"cpu_pct":     split.byPkg,
			"top5_leaf":   top,
		},
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(base+".trace.json", b, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(base+".cpu.pprof", prof, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}
