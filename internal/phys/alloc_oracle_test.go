package phys

import "fmt"

// mapFrameAllocator is the earlier map-backed allocator, kept verbatim
// (renamed) as the oracle for the dense allocator's differential test.
// Its FreeFrames over-counts a frame that was claimed in place and then
// freed (the frame sits on the free stack twice); the test compares the
// dense FreeFrames against the oracle's allocatable frames instead.
//
// mapFrameAllocator hands out physical frames from a set of regions. Both
// kernels use one: the main kernel over all memory minus the crash-kernel
// reservation, and the crash kernel first over only its reserved region and
// then — after resurrection completes and it morphs into the main kernel —
// over everything (Section 3.6). AddRegion implements that late widening,
// mirroring the paper's startup-code change that pre-allocates extra page
// descriptors for memory the crash kernel will only own later.
type mapFrameAllocator struct {
	mem     *Mem
	free    []int // stack of free frame numbers
	inSet   map[int]bool
	claimed map[int]bool
}

// newMapFrameAllocator creates an allocator over mem managing the given region.
func newMapFrameAllocator(mem *Mem, r Region) *mapFrameAllocator {
	a := &mapFrameAllocator{
		mem:     mem,
		inSet:   make(map[int]bool),
		claimed: make(map[int]bool),
	}
	a.AddRegion(r)
	return a
}

// AddRegion makes the frames of r available for allocation. Frames already
// managed are ignored.
func (a *mapFrameAllocator) AddRegion(r Region) {
	for f := r.End() - 1; f >= r.Start; f-- {
		if f < 0 || f >= a.mem.NumFrames() || a.inSet[f] {
			continue
		}
		a.inSet[f] = true
		a.free = append(a.free, f)
	}
}

// Alloc returns a zeroed frame tagged with kind k.
func (a *mapFrameAllocator) Alloc(k FrameKind) (int, error) {
	for len(a.free) > 0 {
		f := a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
		if a.claimed[f] {
			continue
		}
		a.claimed[f] = true
		if err := a.mem.Zero(f); err != nil {
			return 0, err
		}
		if err := a.mem.SetKind(f, k); err != nil {
			return 0, err
		}
		return f, nil
	}
	return 0, ErrNoFrames
}

// AllocN allocates n frames, returning them in order. On failure any frames
// already obtained are released.
func (a *mapFrameAllocator) AllocN(n int, k FrameKind) ([]int, error) {
	frames := make([]int, 0, n)
	for i := 0; i < n; i++ {
		f, err := a.Alloc(k)
		if err != nil {
			for _, g := range frames {
				a.Free(g)
			}
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// Free returns frame f to the allocator. Freeing an unclaimed or unmanaged
// frame is a no-op, which keeps teardown code simple.
func (a *mapFrameAllocator) Free(f int) {
	if !a.claimed[f] {
		return
	}
	delete(a.claimed, f)
	//owvet:allow errdrop: f was in claimed, so it is inside the managed frame set
	_ = a.mem.SetKind(f, FrameFree)
	a.free = append(a.free, f)
}

// Claim marks a specific frame as allocated with kind k, used when a kernel
// takes ownership of frames at fixed addresses (the globals anchor page,
// kernel text). It fails if the frame is outside the managed set or already
// claimed.
func (a *mapFrameAllocator) Claim(f int, k FrameKind) error {
	if !a.inSet[f] {
		return fmt.Errorf("phys: frame %d not managed by allocator", f)
	}
	if a.claimed[f] {
		return fmt.Errorf("phys: frame %d already claimed", f)
	}
	a.claimed[f] = true
	return a.mem.SetKind(f, k)
}

// AddFreeFrames makes only the currently-free-tagged frames of r available,
// leaving frames another owner still uses untouched. The crash kernel uses
// it to obtain working memory for resurrection copies without clobbering
// the dead kernel's state (the paper's pre-allocated "extra page
// descriptors", Section 3.2).
func (a *mapFrameAllocator) AddFreeFrames(mem *Mem, r Region) int {
	added := 0
	for f := r.End() - 1; f >= r.Start; f-- {
		if f < 0 || f >= mem.NumFrames() || a.inSet[f] {
			continue
		}
		if mem.Kind(f) != FrameFree {
			continue
		}
		a.inSet[f] = true
		a.free = append(a.free, f)
		added++
	}
	return added
}

// AdoptUnmanaged takes ownership of every frame in r the allocator does not
// already manage, resetting its tag and write protection — the morph step
// where the crash kernel reclaims the dead main kernel's memory
// (Section 3.6). It returns the number of frames adopted.
func (a *mapFrameAllocator) AdoptUnmanaged(mem *Mem, r Region) int {
	adopted := 0
	for f := r.End() - 1; f >= r.Start; f-- {
		if f < 0 || f >= mem.NumFrames() || a.inSet[f] {
			continue
		}
		_ = mem.Protect(f, false)     //owvet:allow errdrop: f is bounds-checked against mem.NumFrames above
		_ = mem.SetKind(f, FrameFree) //owvet:allow errdrop: same bounds-checked frame as the line above
		a.inSet[f] = true
		a.free = append(a.free, f)
		adopted++
	}
	return adopted
}

// AdoptFrame takes ownership of a specific unmanaged frame as an already-
// claimed allocation tagged k. The crash kernel's map-pages resurrection
// fast path (the paper's footnote 3) uses it to keep a dead kernel's user
// page in place instead of copying it.
func (a *mapFrameAllocator) AdoptFrame(f int, k FrameKind) error {
	if f < 0 || f >= a.mem.NumFrames() {
		return ErrOutOfRange
	}
	if a.inSet[f] {
		return fmt.Errorf("phys: frame %d already managed", f)
	}
	a.inSet[f] = true
	a.claimed[f] = true
	return a.mem.SetKind(f, k)
}

// CanAdopt reports whether AdoptFrame(f, …) would succeed: f is an installed
// frame the allocator does not already manage. The lazy resurrection install
// validates every speculation candidate with it before committing to a
// copy-on-access mapping.
func (a *mapFrameAllocator) CanAdopt(f int) bool {
	return f >= 0 && f < a.mem.NumFrames() && !a.inSet[f]
}

// Manages reports whether frame f is part of the allocator's frame set.
func (a *mapFrameAllocator) Manages(f int) bool { return a.inSet[f] }

// FreeFrames returns how many frames are currently allocatable.
func (a *mapFrameAllocator) FreeFrames() int {
	n := 0
	for _, f := range a.free {
		if !a.claimed[f] {
			n++
		}
	}
	return n
}

// ClaimedFrames returns how many frames are currently allocated.
func (a *mapFrameAllocator) ClaimedFrames() int { return len(a.claimed) }
