// Command owsim runs a narrated end-to-end Otherworld demonstration: it
// boots the machine, runs an application workload, injects a burst of
// synthetic kernel faults, lets the failure manifest, microreboots into the
// crash kernel, resurrects the application, and verifies its state against
// the remote log — printing each stage as it happens.
//
// Usage:
//
//	owsim [-app name] [-seed n] [-faults n] [-protect] [-noharden]
//	      [-metrics] [-metrics-json file]
//	owsim -fleet N [-tiers "prog=tier,..."] [-fleet-batch] [-seed n]
//
// The second form runs the fleet-recovery demo: N mixed server processes
// crashed at once and recovered through the streaming resurrection pass
// (index-assisted discovery, SLO-tier admission, pipelined install commit),
// summarized per tier. -fleet-batch runs the classic batch engine instead,
// for comparison.
//
// -metrics prints the machine's final metrics snapshot (the same registry
// the crash-surviving segment persists); -metrics-json writes it in the
// otherworld-metrics/1 format that owstat render/diff consume.
package main

import (
	"flag"
	"fmt"
	"os"

	"otherworld/internal/core"
	"otherworld/internal/experiment"
	"otherworld/internal/faultinject"
	"otherworld/internal/hw"
	"otherworld/internal/kernel"
	"otherworld/internal/sched"
	"otherworld/internal/workload"

	_ "otherworld/internal/apps" // register the paper's applications
)

func main() {
	app := flag.String("app", "MySQL", "application: vi, JOE, MySQL, Apache/PHP, BLCR, shell")
	seed := flag.Int64("seed", 2010, "experiment seed (replayable)")
	faults := flag.Int("faults", 30, "faults per injection burst")
	protect := flag.Bool("protect", false, "enable user-space protection (Section 4)")
	noharden := flag.Bool("noharden", false, "disable the Section 6 hardening fixes")
	resWorkers := flag.Int("resurrect-workers", 0, "resurrection pipeline workers (0 = NumCPU); changes only the modeled interruption time")
	lazyInstall := flag.Bool("lazy-install", false, "demand-paged resurrection: resume at context install, CRC-validated copy-on-access pages, background sweeper")
	fleet := flag.Int("fleet", 0, "run the fleet-recovery demo at this population instead of the single-app demo (streaming resurrection with index-assisted discovery)")
	tierSpec := flag.String("tiers", "", "fleet tier overrides merged onto the defaults: program=tier pairs, e.g. sh=1 (default mysqld=0, apache-php=1, volano=1, sh=2)")
	fleetBatch := flag.Bool("fleet-batch", false, "fleet demo only: classic batch resurrection without the candidate index, for comparison against the streaming pass")
	showMetrics := flag.Bool("metrics", false, "print the final metrics snapshot")
	metricsJSON := flag.String("metrics-json", "", "write the final metrics snapshot as JSON to this file")
	flag.Parse()

	var err error
	if *fleet > 0 {
		err = runFleet(*fleet, *seed, *tierSpec, *resWorkers, *lazyInstall, *fleetBatch, *showMetrics, *metricsJSON)
	} else if *tierSpec != "" || *fleetBatch {
		err = fmt.Errorf("-tiers and -fleet-batch only apply to the fleet demo (-fleet N)")
	} else {
		err = run(*app, *seed, *faults, *protect, *noharden, *resWorkers, *lazyInstall, *showMetrics, *metricsJSON)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "owsim:", err)
		os.Exit(1)
	}
}

// runFleet narrates the fleet-recovery scenario: hundreds of mixed servers
// crashed at once, recovered through either the streaming pass or (with
// -fleet-batch) the classic batch engine, and summarized per SLO tier.
func runFleet(population int, seed int64, tierSpec string, resWorkers int, lazy, batch, showMetrics bool, metricsJSON string) error {
	cfg := experiment.DefaultFleet(population, seed)
	cfg.Workers = resWorkers
	cfg.Lazy = lazy
	if batch {
		cfg.Stream = false
		cfg.IndexSlots = 0
	}
	if tierSpec != "" {
		overrides, err := sched.ParseTierSpec(tierSpec)
		if err != nil {
			return err
		}
		tiers := experiment.DefaultFleetTiers()
		for prog, t := range overrides {
			tiers[prog] = t
		}
		cfg.Tiers = tiers
	}
	mode := "streaming"
	if batch {
		mode = "batch"
	}
	fmt.Printf("== Otherworld fleet demo: %d processes, %s resurrection (seed %d)\n\n",
		population, mode, seed)
	res, err := experiment.FleetRecovery(cfg)
	if err != nil {
		return err
	}
	m := res.Machine
	fmt.Printf("[%s] fleet crashed and recovered: %d candidates, interruption %.0fs (serial model)\n",
		m.HW.Clock, res.Population, res.Outcome.SerialInterruption.Seconds())
	fmt.Print(res.RenderFleetTable())
	return emitMetrics(m, showMetrics, metricsJSON)
}

// emitMetrics handles -metrics/-metrics-json at every exit path that has a
// live machine: the snapshot is collected once and shared by both sinks.
func emitMetrics(m *core.Machine, show bool, jsonFile string) error {
	if !show && jsonFile == "" {
		return nil
	}
	snap := m.MetricsSnapshot()
	if show {
		fmt.Printf("\nfinal metrics snapshot (%d series):\n", len(snap.Points))
		if err := snap.RenderTable(os.Stdout); err != nil {
			return err
		}
	}
	if jsonFile != "" {
		data, err := snap.EncodeJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonFile, data, 0o644); err != nil {
			return err
		}
		fmt.Println("metrics snapshot written to", jsonFile)
	}
	return nil
}

func run(app string, seed int64, faults int, protect, noharden bool, resWorkers int, lazyInstall, showMetrics bool, metricsJSON string) error {
	opts := core.DefaultOptions()
	opts.HW = hw.Config{MemoryBytes: 256 << 20, NumCPUs: 2, TLBEntries: 64, WatchdogEnabled: true}
	opts.CrashRegionMB = 16
	opts.UserSpaceProtection = protect
	opts.Seed = seed
	opts.Resurrection.Workers = resWorkers
	opts.LazyInstall = lazyInstall
	if noharden {
		opts.Hardening = kernel.NoHardening()
	}
	fmt.Printf("== Otherworld demo: %s (seed %d, protection %v, hardening %v)\n\n",
		app, seed, protect, !noharden)

	m, err := core.NewMachine(opts)
	if err != nil {
		return err
	}
	fmt.Printf("[%s] machine booted: %s\n", m.HW.Clock, m.HW)
	fmt.Printf("[%s] crash kernel image resident and protected\n", m.HW.Clock)

	d, err := experiment.DriverFor(app, seed+1)
	if err != nil {
		return err
	}
	if err := d.Start(m); err != nil {
		return err
	}
	fmt.Printf("[%s] %s started (pid %d)\n", m.HW.Clock, d.Name(), m.K.Procs()[0].PID)

	workload.RunUntilIdle(m, d, 120, 5000)
	fmt.Printf("[%s] workload warm: %d operations acknowledged\n", m.HW.Clock, d.Acked())

	inj := faultinject.New(seed ^ 0xFA17)
	fs, err := inj.InjectBurst(m.K, faults)
	if err != nil {
		return err
	}
	byClass := map[string]int{}
	for _, f := range fs {
		byClass[f.Class.String()]++
	}
	fmt.Printf("[%s] injected %d faults: %v\n", m.HW.Clock, len(fs), byClass)

	var res kernel.RunResult
	for round := 0; round < 8 && res.Panic == nil; round++ {
		res = workload.RunUntilIdle(m, d, 60, 2400)
	}
	if res.Panic == nil {
		fmt.Printf("[%s] no injected fault manifested (the paper discards these runs)\n", m.HW.Clock)
		return emitMetrics(m, showMetrics, metricsJSON)
	}
	fmt.Printf("[%s] KERNEL FAILURE: %v\n", m.HW.Clock, res.Panic)

	out, err := m.HandleFailure()
	if err != nil {
		return err
	}
	if out.Result != core.ResultRecovered {
		fmt.Printf("[%s] transfer of control FAILED: %s\n", m.HW.Clock, out.Transfer.Reason)
		fmt.Printf("[%s] falling back to a full reboot (all volatile state lost)\n", m.HW.Clock)
		if err := m.ColdReboot(); err != nil {
			return err
		}
		return emitMetrics(m, showMetrics, metricsJSON)
	}
	fmt.Printf("[%s] crash kernel booted; %d resurrection candidates found\n",
		m.HW.Clock, len(out.Report.Candidates))
	for _, pr := range out.Report.Procs {
		fmt.Printf("[%s]   pid %d (%s): %s", m.HW.Clock, pr.Candidate.PID, pr.Candidate.Name, pr.Outcome)
		if pr.CrashProcCalled {
			fmt.Printf(" (crash procedure ran, missing: %s)", pr.Missing)
		}
		if pr.Err != nil {
			fmt.Printf(" — %v", pr.Err)
		}
		fmt.Printf("; %d pages copied, %d re-staged, %d dirty pages flushed",
			pr.PagesCopied, pr.PagesRestaged, pr.DirtyFlushed)
		if pr.PagesSpeculated > 0 {
			fmt.Printf(", %d speculated", pr.PagesSpeculated)
		}
		if pr.SpecFallback != "" {
			fmt.Printf(" (speculation fell back: %s)", pr.SpecFallback)
		}
		fmt.Println()
	}
	acct := out.Report.Acct
	fmt.Printf("[%s] crash kernel read %d KB of main-kernel data (%.0f%% page tables)\n",
		m.HW.Clock, acct.KernelDataBytes()/1024, 100*acct.PageTableFraction())
	fmt.Printf("[%s] morphed into main kernel; service interruption %.0fs (%d resurrection workers; serial model %.0fs)\n",
		m.HW.Clock, out.Interruption.Seconds(),
		out.Report.Parallel.Workers, out.SerialInterruption.Seconds())

	if err := d.Reattach(m); err != nil {
		return err
	}
	before := d.Acked()
	workload.RunUntilIdle(m, d, 120, 5000)
	fmt.Printf("[%s] workload resumed: %d -> %d operations\n", m.HW.Clock, before, d.Acked())

	if err := d.Verify(m); err != nil {
		fmt.Printf("[%s] VERIFICATION FAILED: %v\n", m.HW.Clock, err)
		return emitMetrics(m, showMetrics, metricsJSON)
	}
	fmt.Printf("[%s] application state verified against the remote log: no data lost\n", m.HW.Clock)
	return emitMetrics(m, showMetrics, metricsJSON)
}
