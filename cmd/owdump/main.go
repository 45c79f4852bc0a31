// Command owdump demonstrates the KDump-baseline workflow end to end: it
// runs a workload, crashes the kernel, captures a sparse physical-memory
// dump with the capture kernel (no resurrection — the stock KDump
// behaviour the paper departs from), and then analyzes the dump offline,
// printing a crash(8)-style inventory of the dead kernel's processes and
// resources.
//
//	owdump [-app name] [-seed n] [-out file] [-index-slots n]
//
// -out copies the raw sparse dump to a host file, the input format of
// `owstat recover` (which digs the dead kernel's metrics segment out of
// the image). -index-slots sizes the main kernel's candidate index; the
// command then salvages the index back out of the raw dump, demonstrating
// that the discovery accelerator survives into a KDump image too.
package main

import (
	"flag"
	"fmt"
	"os"

	"otherworld/internal/core"
	"otherworld/internal/dump"
	"otherworld/internal/experiment"
	"otherworld/internal/hw"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
	"otherworld/internal/workload"

	_ "otherworld/internal/apps" // register the paper's applications
)

func main() {
	app := flag.String("app", "MySQL", "application to run before the crash")
	seed := flag.Int64("seed", 2005, "seed (2005: the year of the KDump paper)")
	out := flag.String("out", "", "also write the raw sparse dump to this host file (for owstat recover)")
	indexSlots := flag.Int("index-slots", 0, "size the main kernel's candidate index and salvage it back out of the raw dump (0 = index off)")
	flag.Parse()
	if err := run(*app, *seed, *out, *indexSlots); err != nil {
		fmt.Fprintln(os.Stderr, "owdump:", err)
		os.Exit(1)
	}
}

func run(app string, seed int64, outFile string, indexSlots int) error {
	opts := core.DefaultOptions()
	opts.HW = hw.Config{MemoryBytes: 256 << 20, NumCPUs: 2, TLBEntries: 64, WatchdogEnabled: true}
	opts.CrashRegionMB = 16
	opts.Seed = seed
	opts.CandidateIndexSlots = indexSlots
	m, err := core.NewMachine(opts)
	if err != nil {
		return err
	}
	d, err := experiment.DriverFor(app, seed+1)
	if err != nil {
		return err
	}
	if err := d.Start(m); err != nil {
		return err
	}
	workload.RunUntilIdle(m, d, 100, 5000)
	fmt.Printf("%s served %d operations; crashing the kernel...\n", d.Name(), d.Acked())

	_ = m.K.InjectOops("owdump demonstration crash")
	out, err := m.HandleFailureKDump("/var/crash/vmcore")
	if err != nil {
		return err
	}
	if out.Transfer != core.ResultRecovered {
		return fmt.Errorf("capture kernel never got control")
	}
	fmt.Printf("capture kernel wrote %d MB to %s, then the machine cold-rebooted (%.0fs interruption)\n",
		out.DumpBytes>>20, out.DumpPath, out.Interruption.Seconds())
	fmt.Printf("processes alive now: %d (KDump preserves nothing volatile)\n\n", len(m.K.Procs()))

	data, err := m.FS.ReadFile(out.DumpPath)
	if err != nil {
		return err
	}
	if outFile != "" {
		if err := os.WriteFile(outFile, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("raw dump copied to %s (inspect with: owstat recover %s)\n", outFile, outFile)
	}
	img, err := dump.Parse(data)
	if err != nil {
		return err
	}
	rep, err := dump.Inspect(img, kernel.GlobalsAddr)
	if err != nil {
		return err
	}
	fmt.Println("post-mortem analysis of the dump (what Otherworld instead resurrects live):")
	fmt.Print(dump.Render(rep))

	// The candidate index rides in the crash reservation, so a KDump image
	// carries it too: salvage it straight out of the raw dump bytes, the
	// same parse the crash kernel's discovery prologue runs live.
	if reg := m.IndexRegion(); reg.Frames > 0 {
		sal, err := layout.ParseIndex(img, phys.FrameAddr(reg.Start), reg.Frames*phys.PageSize, true)
		if err != nil {
			fmt.Printf("\ncandidate index did not survive the dump: %v\n", err)
			return nil
		}
		fmt.Printf("\ncandidate index salvaged from the dump (generation %d, %d live entries, %d slots skipped):\n",
			sal.Header.Generation, len(sal.Entries), sal.Skipped)
		for _, e := range sal.Entries {
			fmt.Printf("  pid %4d  %-16s %-12s descriptor @0x%x\n", e.PID, e.Name, e.Program, e.Addr)
		}
	}
	return nil
}
