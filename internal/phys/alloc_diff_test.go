package phys

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// allocatable counts the distinct unclaimed frames on the oracle's free
// stack: exactly the frames a run of Alloc calls can still hand out.
func (a *mapFrameAllocator) allocatable() int {
	seen := make(map[int]bool)
	for _, f := range a.free {
		if !a.claimed[f] {
			seen[f] = true
		}
	}
	return len(seen)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestAllocatorMatchesMapOracle drives the dense allocator and the
// map-backed oracle, each over its own memory, with the same seeded
// operation sequences — including frames and regions outside installed
// memory — and requires every return value, every error, every frame's
// tag and protection, and the claimed count to agree after each step.
func TestAllocatorMatchesMapOracle(t *testing.T) {
	const frames = 40
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gm, wm := NewMem(frames*PageSize), NewMem(frames*PageSize)
		randRegion := func() Region {
			if rng.Intn(10) == 0 {
				return Region{Start: 1 << 40, Frames: 3}
			}
			return Region{Start: rng.Intn(frames+10) - 5, Frames: rng.Intn(20)}
		}
		randFrame := func() int {
			switch rng.Intn(12) {
			case 0:
				return -1
			case 1:
				return frames
			case 2:
				return 1 << 40
			}
			return rng.Intn(frames)
		}
		r0 := randRegion()
		got, want := NewFrameAllocator(gm, r0), newMapFrameAllocator(wm, r0)
		var trail []string
		for step := 0; step < 400; step++ {
			var g, w string
			switch op := rng.Intn(13); op {
			case 0:
				r := randRegion()
				got.AddRegion(r)
				want.AddRegion(r)
				g, w = fmt.Sprint("AddRegion ", r), fmt.Sprint("AddRegion ", r)
			case 1, 2, 3:
				k := FrameKind(rng.Intn(int(FrameSpeculated) + 1))
				gf, gerr := got.Alloc(k)
				wf, werr := want.Alloc(k)
				g, w = fmt.Sprint("Alloc ", gf, errText(gerr)), fmt.Sprint("Alloc ", wf, errText(werr))
			case 4:
				n := rng.Intn(6)
				gfs, gerr := got.AllocN(n, FrameUser)
				wfs, werr := want.AllocN(n, FrameUser)
				g, w = fmt.Sprint("AllocN ", n, gfs, errText(gerr)), fmt.Sprint("AllocN ", n, wfs, errText(werr))
			case 5, 6:
				f := randFrame()
				got.Free(f)
				want.Free(f)
				g, w = fmt.Sprint("Free ", f), fmt.Sprint("Free ", f)
			case 7:
				f := randFrame()
				g = fmt.Sprint("Claim ", f, errText(got.Claim(f, FrameKernelText)))
				w = fmt.Sprint("Claim ", f, errText(want.Claim(f, FrameKernelText)))
			case 8:
				r := randRegion()
				g = fmt.Sprint("AddFreeFrames ", r, got.AddFreeFrames(r))
				w = fmt.Sprint("AddFreeFrames ", r, want.AddFreeFrames(wm, r))
			case 9:
				r := randRegion()
				g = fmt.Sprint("AdoptUnmanaged ", r, got.AdoptUnmanaged(r))
				w = fmt.Sprint("AdoptUnmanaged ", r, want.AdoptUnmanaged(wm, r))
			case 10:
				f := randFrame()
				g = fmt.Sprint("AdoptFrame ", f, got.CanAdopt(f), errText(got.AdoptFrame(f, FrameSpeculated)))
				w = fmt.Sprint("AdoptFrame ", f, want.CanAdopt(f), errText(want.AdoptFrame(f, FrameSpeculated)))
			case 11:
				f := randFrame()
				g = fmt.Sprint("Manages ", f, got.Manages(f), got.CanAdopt(f))
				w = fmt.Sprint("Manages ", f, want.Manages(f), want.CanAdopt(f))
			case 12:
				// Another owner retags or protects a frame behind the
				// allocators' backs: steers AddFreeFrames and makes
				// Alloc's zeroing fault.
				f, k, ro := rng.Intn(frames), FrameKind(rng.Intn(3)), rng.Intn(4) == 0
				for _, m := range []*Mem{gm, wm} {
					_ = m.SetKind(f, k)
					_ = m.Protect(f, ro)
				}
				g = fmt.Sprint("retag ", f, k, ro)
				w = g
			}
			trail = append(trail, w)
			if g != w {
				t.Fatalf("seed %d step %d: got %q, oracle %q\ntrail: %q", seed, step, g, w, trail)
			}
			if got.ClaimedFrames() != want.ClaimedFrames() {
				t.Fatalf("seed %d step %d: claimed %d, oracle %d\ntrail: %q",
					seed, step, got.ClaimedFrames(), want.ClaimedFrames(), trail)
			}
			if got.FreeFrames() != want.allocatable() {
				t.Fatalf("seed %d step %d: FreeFrames %d, oracle allocatable %d\ntrail: %q",
					seed, step, got.FreeFrames(), want.allocatable(), trail)
			}
			for f := 0; f < frames; f++ {
				if gm.Kind(f) != wm.Kind(f) || gm.Protected(f) != wm.Protected(f) {
					t.Fatalf("seed %d step %d: frame %d is %v/%v, oracle %v/%v\ntrail: %q", seed, step, f,
						gm.Kind(f), gm.Protected(f), wm.Kind(f), wm.Protected(f), trail)
				}
			}
		}
		// Drain both: the same frames in the same order, and exactly
		// FreeFrames of them.
		for f := 0; f < frames; f++ {
			_ = gm.Protect(f, false)
			_ = wm.Protect(f, false)
		}
		free := got.FreeFrames()
		for n := 0; ; n++ {
			gf, gerr := got.Alloc(FrameUser)
			wf, werr := want.Alloc(FrameUser)
			if gf != wf || errText(gerr) != errText(werr) {
				t.Fatalf("seed %d drain %d: got %d %v, oracle %d %v", seed, n, gf, gerr, wf, werr)
			}
			if gerr != nil {
				if n != free {
					t.Fatalf("seed %d: drained %d frames, FreeFrames said %d", seed, n, free)
				}
				break
			}
		}
	}
}

// TestFreeFramesCountsClaimedThenFreedOnce is the regression for the
// over-count: a frame claimed in place and then freed is on the free stack
// twice but is still one allocatable frame.
func TestFreeFramesCountsClaimedThenFreedOnce(t *testing.T) {
	m := NewMem(16 * PageSize)
	a := NewFrameAllocator(m, Region{Start: 0, Frames: 16})
	if err := a.Claim(3, FrameKernelText); err != nil {
		t.Fatal(err)
	}
	a.Free(3)
	if got := a.FreeFrames(); got != 16 {
		t.Fatalf("FreeFrames = %d after Claim(3)/Free(3), want 16", got)
	}
	n := 0
	for {
		if _, err := a.Alloc(FrameUser); err != nil {
			if !errors.Is(err, ErrNoFrames) {
				t.Fatal(err)
			}
			break
		}
		n++
	}
	if n != 16 {
		t.Fatalf("allocated %d frames, want 16", n)
	}
	if a.FreeFrames() != 0 || a.ClaimedFrames() != 16 {
		t.Fatalf("after draining: free=%d claimed=%d", a.FreeFrames(), a.ClaimedFrames())
	}
}

// TestAllocatorOutOfRangeFramesAreUnmanaged: frames outside installed
// memory read as neither managed nor claimed, and no method panics on them.
func TestAllocatorOutOfRangeFramesAreUnmanaged(t *testing.T) {
	m := NewMem(4 * PageSize)
	a := NewFrameAllocator(m, Region{Start: -2, Frames: 100})
	for _, f := range []int{-1, m.NumFrames(), 1 << 40} {
		if a.Manages(f) || a.CanAdopt(f) {
			t.Fatalf("frame %d: managed=%v canAdopt=%v", f, a.Manages(f), a.CanAdopt(f))
		}
		a.Free(f)
		if err := a.Claim(f, FrameUser); err == nil {
			t.Fatalf("Claim(%d) succeeded", f)
		}
		if err := a.AdoptFrame(f, FrameUser); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("AdoptFrame(%d) = %v", f, err)
		}
	}
	if a.FreeFrames() != 4 || a.ClaimedFrames() != 0 {
		t.Fatalf("free=%d claimed=%d, want 4/0", a.FreeFrames(), a.ClaimedFrames())
	}
}

// TestNewFrameAllocatorAllocsConstant pins the dense allocator state: a
// 256 MB machine's allocator costs a fixed handful of host allocations
// (the allocator, two per-frame flag arrays and the free stack), not one
// map insert per frame.
func TestNewFrameAllocatorAllocsConstant(t *testing.T) {
	m := NewMem(65536 * PageSize)
	// Many runs: AllocsPerRun truncates the per-run average, so the few
	// runtime allocations of the GC cycles that 0.6 MB per run provokes
	// cannot lift it.
	allocs := testing.AllocsPerRun(100, func() {
		a := NewFrameAllocator(m, Region{Start: 0, Frames: m.NumFrames()})
		if a.FreeFrames() != m.NumFrames() {
			t.Fatalf("free = %d", a.FreeFrames())
		}
	})
	if allocs > 4 {
		t.Fatalf("NewFrameAllocator over %d frames: %.0f allocations, want <= 4", m.NumFrames(), allocs)
	}
}
