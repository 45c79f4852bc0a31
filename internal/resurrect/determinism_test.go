package resurrect_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"otherworld/internal/apps"
	"otherworld/internal/core"
	"otherworld/internal/hw"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
	"otherworld/internal/resurrect"
)

var update = flag.Bool("update", false, "rewrite golden files")

// multiMySQLMachine builds the ISSUE 3 acceptance scenario: eight MySQL
// servers on one machine, warmed up, with the resurrection pipeline pinned
// to the given worker count.
func multiMySQLMachine(t *testing.T, workers int) *core.Machine {
	return multiMySQLMachineWith(t, 4242, workers, nil)
}

// multiMySQLMachineWith is multiMySQLMachine at the given seed, with tweak
// (if non-nil) applied to the options before boot.
func multiMySQLMachineWith(t *testing.T, seed int64, workers int, tweak func(*core.Options)) *core.Machine {
	t.Helper()
	opts := core.DefaultOptions()
	opts.HW = hw.Config{MemoryBytes: 256 << 20, NumCPUs: 2, TLBEntries: 64, WatchdogEnabled: true}
	opts.CrashRegionMB = 16
	opts.Seed = seed
	opts.Resurrection.Workers = workers
	if tweak != nil {
		tweak(&opts)
	}
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	for j := 0; j < 8; j++ {
		if _, err := m.Start(fmt.Sprintf("mysqld-%d", j), apps.ProgMySQL); err != nil {
			t.Fatalf("start mysqld-%d: %v", j, err)
		}
	}
	m.Run(200)
	return m
}

func recoverOutcome(t *testing.T, m *core.Machine) *core.FailureOutcome {
	t.Helper()
	if err := m.K.InjectOops("determinism"); err == nil {
		t.Fatal("InjectOops returned nil")
	}
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatalf("HandleFailure: %v", err)
	}
	if out.Result != core.ResultRecovered {
		t.Fatalf("transfer failed: %s", out.Transfer.Reason)
	}
	return out
}

// TestDeterminismAcrossWorkers is the tentpole invariant: the entire Report
// — candidates, per-process timelines, Table 4 accounting, per-candidate
// durations, the merged scan trace — must be byte-identical whether the
// scan ran on one worker or eight. Only Parallel (the live schedule) may
// differ. The Workers=1 fingerprint is additionally golden-compared so an
// accidental change to the serial semantics cannot hide behind the
// 1-vs-8 equality.
func TestDeterminismAcrossWorkers(t *testing.T) {
	out1 := recoverOutcome(t, multiMySQLMachine(t, 1))
	out8 := recoverOutcome(t, multiMySQLMachine(t, 8))
	rep1, rep8 := out1.Report, out8.Report

	fp1, fp8 := rep1.Fingerprint(), rep8.Fingerprint()
	if fp1 != fp8 {
		t.Fatalf("fingerprint differs between Workers=1 and Workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s", fp1, fp8)
	}
	if !reflect.DeepEqual(rep1.Acct.ByCategory, rep8.Acct.ByCategory) {
		t.Fatalf("accounting differs:\nw1: %v\nw8: %v", rep1.Acct.ByCategory, rep8.Acct.ByCategory)
	}
	if !reflect.DeepEqual(rep1.ScanTrace, rep8.ScanTrace) {
		t.Fatalf("merged scan trace differs (%d vs %d events)", len(rep1.ScanTrace), len(rep8.ScanTrace))
	}

	// Live-schedule invariants: one worker means serial == parallel; eight
	// workers must report the width it ran at and a shorter critical path.
	if rep1.Parallel.Workers != 1 || rep8.Parallel.Workers != 8 {
		t.Fatalf("pool widths = %d, %d", rep1.Parallel.Workers, rep8.Parallel.Workers)
	}
	if rep1.Parallel.Duration != rep1.Duration {
		t.Fatalf("Workers=1: live schedule %v != serial model %v", rep1.Parallel.Duration, rep1.Duration)
	}
	if rep8.Parallel.Duration >= rep1.Parallel.Duration {
		t.Fatalf("Workers=8 schedule %v not faster than Workers=1 %v", rep8.Parallel.Duration, rep1.Parallel.Duration)
	}

	// The corrected interruptions are worker-count-independent.
	if out1.SerialInterruption != out8.SerialInterruption {
		t.Fatalf("serial interruption differs: %v vs %v", out1.SerialInterruption, out8.SerialInterruption)
	}
	c := resurrect.CanonicalWorkers
	if out1.InterruptionAt(c) != out8.InterruptionAt(c) {
		t.Fatalf("canonical interruption differs: %v vs %v", out1.InterruptionAt(c), out8.InterruptionAt(c))
	}

	golden := filepath.Join("testdata", "fingerprint_mysql_x8.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(fp1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if fp1 != string(want) {
		t.Errorf("fingerprint drifted from golden (re-run with -update if intentional):\ngot:\n%s", fp1)
	}
}

// TestResurrectParallelSpeedup asserts the ISSUE 3 acceptance criterion
// directly: on the eight-MySQL scenario the modeled interruption speedup at
// four workers is at least 2x.
func TestResurrectParallelSpeedup(t *testing.T) {
	out := recoverOutcome(t, multiMySQLMachine(t, 0))
	rep := out.Report
	if got := rep.SpeedupAt(4); got < 2 {
		t.Fatalf("speedup at 4 workers = %.2fx, want >= 2x (serial %v, sched@4 %v)",
			got, rep.Duration, rep.ScheduleAt(4))
	}
	if got := rep.SpeedupAt(1); got != 1 {
		t.Fatalf("speedup at 1 worker = %v, want exactly 1", got)
	}
	// More workers never slow the modeled schedule down.
	prev := rep.ScheduleAt(1)
	for w := 2; w <= 16; w++ {
		cur := rep.ScheduleAt(w)
		if cur > prev {
			t.Fatalf("schedule at %d workers (%v) slower than at %d (%v)", w, cur, w-1, prev)
		}
		prev = cur
	}
}

// corruptFirstPTEs rewrites the first present PTE of every dead process to
// name the lowest free frame — the frame the crash kernel allocates first —
// the way a wild write into a page table would. Flag bits are kept; only the
// frame number changes. It returns how many PTEs it rewrote.
func corruptFirstPTEs(t *testing.T, m *core.Machine) int {
	t.Helper()
	mem := m.HW.Mem
	free := -1
	for f := 0; f < mem.NumFrames(); f++ {
		if mem.Kind(f) == phys.FrameFree {
			free = f
			break
		}
	}
	if free < 0 {
		t.Fatal("no free frame to aim the corrupt PTEs at")
	}
	rewritten := 0
	for _, p := range m.K.Procs() {
		if pteAddr, pte, ok := firstPresentPTE(t, mem, p.D.PageDir); ok {
			bad := pte&0xFFF | layout.PTE(uint64(free)<<12)
			if err := mem.WriteU64(pteAddr, uint64(bad)); err != nil {
				t.Fatal(err)
			}
			rewritten++
		}
	}
	return rewritten
}

// firstPresentPTE walks a two-level page table from its directory and
// returns the slot address and value of its first present entry.
func firstPresentPTE(t *testing.T, mem *phys.Mem, pageDir uint64) (uint64, layout.PTE, bool) {
	t.Helper()
	for dir := 0; dir < layout.DirEntries; dir++ {
		dirEnt, err := mem.ReadU64(pageDir + uint64(dir)*layout.PTESize)
		if err != nil {
			t.Fatal(err)
		}
		if dirEnt == 0 {
			continue
		}
		for i := 0; i < layout.PTEsPerPage; i++ {
			addr := dirEnt + uint64(i)*layout.PTESize
			raw, err := mem.ReadU64(addr)
			if err != nil {
				t.Fatal(err)
			}
			if pte := layout.PTE(raw); pte.Present() {
				return addr, pte, true
			}
		}
	}
	return 0, 0, false
}

// TestCorruptPTEDeterminismAcrossWorkers aims one PTE of every dead process
// at the frame the crash kernel allocates first. Scans must read only the
// dead image — never a frame an install has already written — so the Report
// is identical at every worker width and on every repeat, for the batch and
// streamed passes, eager and lazy alike.
func TestCorruptPTEDeterminismAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{4242, 7, 31} {
		for _, stream := range []bool{false, true} {
			for _, lazy := range []bool{false, true} {
				name := fmt.Sprintf("seed=%d/stream=%v/lazy=%v", seed, stream, lazy)
				t.Run(name, func(t *testing.T) {
					var want string
					for _, workers := range []int{1, 2, 4, 8} {
						for rep := 0; rep < 3; rep++ {
							m := multiMySQLMachineWith(t, seed, workers, func(o *core.Options) {
								o.Resurrection.Stream = stream
								o.LazyInstall = lazy
							})
							if err := m.K.InjectOops("corrupt pte"); err == nil {
								t.Fatal("InjectOops returned nil")
							}
							if n := corruptFirstPTEs(t, m); n != 8 {
								t.Fatalf("rewrote %d PTEs, want 8", n)
							}
							out, err := m.HandleFailure()
							if err != nil {
								t.Fatalf("HandleFailure: %v", err)
							}
							if out.Report == nil {
								t.Fatalf("no resurrection report (result %v)", out.Result)
							}
							fp := out.Report.Fingerprint()
							if want == "" {
								want = fp
								continue
							}
							if fp != want {
								t.Fatalf("Workers=%d repeat %d fingerprint differs from Workers=1:\n%s",
									workers, rep, fingerprintDiff(want, fp))
							}
						}
					}
				})
			}
		}
	}
}

// fingerprintDiff returns the first differing line pair of two fingerprints.
func fingerprintDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(al), len(bl))
}
