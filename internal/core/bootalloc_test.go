package core

import (
	"runtime"
	"testing"
)

// TestBootAllocatesInProportionToUse pins the frame-sparse physical memory:
// booting a 256 MB machine allocates host memory for the frames the boot
// writes, not for the installed RAM.
func TestBootAllocatesInProportionToUse(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := newTestMachine(t, nil)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	const limit = 32 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("NewMachine with %d MB of RAM allocated %.1f MB, want < %d MB",
			m.HW.Mem.Size()>>20, float64(got)/(1<<20), limit>>20)
	}
}
