package kernel

import (
	"bytes"
	"fmt"

	"otherworld/internal/phys"
)

// Text models the kernel's code region. The fault injector flips bytes here
// ("a single instruction, or instruction operand in the kernel code" — the
// Rio/Nooks injector the paper uses); corruption is *latent* until the
// kernel actually executes the affected function, at which point it
// manifests as one of the classic failure modes. Bytes in cold paths never
// execute, producing the ~20% of injection experiments that end with no
// kernel failure (Section 6).
//
// The text bytes are a deterministic pattern derived from the kernel seed,
// so corruption is detectable by comparison — the simulator's stand-in for
// "the CPU decoded a clobbered instruction", not a kernel integrity check.
// The pattern is kept host-side in pristine, so an execution of untouched
// code costs one read and one slice comparison.
type Text struct {
	mem   *phys.Mem
	base  uint64
	size  int
	seed  int64
	funcs [funcCount]TextFunc
	// pristine is the whole region's uncorrupted pattern, indexed by text
	// offset; scratch is CheckExecute's reusable read buffer.
	pristine []byte
	scratch  []byte
	// decided remembers the behaviour assigned to each corrupted byte the
	// first time it executes: a real clobbered instruction misbehaves the
	// same way every time it runs.
	decided map[uint64]Misbehavior
}

// TextFunc is one kernel function's byte range within the text region.
type TextFunc struct {
	Name  string
	Start int // offset into the text region
	Len   int
}

// FuncID identifies a kernel function for execution accounting.
type FuncID int

// Kernel functions, in text-layout order.
const (
	FuncInterrupt    FuncID = iota // NMI/interrupt entry
	FuncTransferStub               // the ~100-line main→crash control transfer
	FuncPanic                      // panic/oops reporting path
	FuncSched                      // scheduler
	FuncSyscallEntry               // syscall gate
	FuncOpen                       // open/close path
	FuncReadWrite                  // read/write path
	FuncClone                      // process creation
	FuncMmap                       // memory mapping
	FuncPageFault                  // page-fault and demand-paging path
	FuncSwap                       // swap-out/swap-in path
	FuncTTY                        // terminal driver
	FuncIPC                        // pipes, sockets, shared memory
	funcCount
)

// Function footprint sizes in bytes, calibrated against the paper's
// observed rates: the workload-hot functions cover about a fifth of the
// text region, so roughly 20% of 30-fault experiments never manifest a
// kernel failure; the panic path and the ~100-line transfer stub are tiny,
// so "failure to boot the crash kernel" stays in Table 5's 2-3% band.
var funcSizes = [funcCount]int{
	FuncInterrupt:    4 << 10,
	FuncTransferStub: 256, // ~100 lines of hand-written transfer code
	FuncPanic:        256,
	FuncSched:        24 << 10,
	FuncSyscallEntry: 20 << 10,
	FuncOpen:         8 << 10,
	FuncReadWrite:    20 << 10,
	FuncClone:        4 << 10,
	FuncMmap:         6 << 10,
	FuncPageFault:    16 << 10,
	FuncSwap:         10 << 10,
	FuncTTY:          12 << 10,
	FuncIPC:          16 << 10,
}

var funcNames = [funcCount]string{
	"interrupt", "transfer_stub", "panic", "sched", "syscall_entry",
	"open", "read_write", "clone", "mmap", "page_fault", "swap",
	"tty", "ipc",
}

// Misbehavior is how a clobbered instruction acts when executed. The mix
// follows the fault-characterization studies the paper cites ([3, 15, 22,
// 28]): most kernel faults are fail-stop.
type Misbehavior int

// Misbehavior kinds.
const (
	// BehaveBenign means the clobbered byte happens not to change
	// behaviour (e.g. an equivalent encoding).
	BehaveBenign Misbehavior = iota
	// BehaveFailStop is an immediate detected panic.
	BehaveFailStop
	// BehaveWildWriteStop performs a stray store and then panics.
	BehaveWildWriteStop
	// BehaveWildWriteSilent performs a stray store and keeps running —
	// the error-propagation case protection mode exists for.
	BehaveWildWriteSilent
	// BehaveHang wedges the kernel (recovered only by the watchdog NMI).
	BehaveHang
	// BehaveDoubleFault raises a double fault.
	BehaveDoubleFault
)

func (b Misbehavior) String() string {
	switch b {
	case BehaveBenign:
		return "benign"
	case BehaveFailStop:
		return "fail-stop"
	case BehaveWildWriteStop:
		return "wild-write+stop"
	case BehaveWildWriteSilent:
		return "wild-write-silent"
	case BehaveHang:
		return "hang"
	case BehaveDoubleFault:
		return "double-fault"
	}
	return fmt.Sprintf("Misbehavior(%d)", int(b))
}

// NewText claims TextFrames frames inside region (skipping the fixed anchor
// frames) and fills them with the deterministic pattern.
func NewText(mem *phys.Mem, alloc *phys.FrameAllocator, region phys.Region, seed int64) (*Text, error) {
	start := region.Start
	if start < 3 {
		start = 3 // skip null, IDT and globals frames
	}
	if start+TextFrames > region.End() {
		return nil, fmt.Errorf("kernel: region %v too small for text", region)
	}
	t := &Text{
		mem:     mem,
		base:    phys.FrameAddr(start),
		size:    TextFrames * phys.PageSize,
		seed:    seed,
		decided: make(map[uint64]Misbehavior),
	}
	off, longest := 0, 0
	for id := FuncID(0); id < funcCount; id++ {
		t.funcs[id] = TextFunc{Name: funcNames[id], Start: off, Len: funcSizes[id]}
		off += funcSizes[id]
		longest = max(longest, funcSizes[id])
	}
	if off > t.size {
		return nil, fmt.Errorf("kernel: text functions exceed region")
	}
	t.pristine = make([]byte, t.size)
	t.scratch = make([]byte, longest)
	for f := start; f < start+TextFrames; f++ {
		if err := alloc.Claim(f, phys.FrameKernelText); err != nil {
			return nil, err
		}
		base := phys.FrameAddr(f)
		buf := t.pristine[base-t.base:][:phys.PageSize]
		for i := range buf {
			buf[i] = t.expected(base + uint64(i))
		}
		if err := mem.WriteAt(base, buf); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Base returns the physical address of the text region.
func (t *Text) Base() uint64 { return t.base }

// Size returns the text region size in bytes.
func (t *Text) Size() int { return t.size }

// Func returns the byte range of a kernel function.
func (t *Text) Func(id FuncID) TextFunc { return t.funcs[id] }

// expected is the pristine byte value at a text address.
func (t *Text) expected(addr uint64) byte {
	x := addr*0x9E3779B97F4A7C15 + uint64(t.seed)
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return byte(x)
}

// benignChance is the probability a clobbered, executed byte happens not to
// change behaviour. Together with the behaviour mix below it calibrates the
// per-fault manifestation rate.
const benignChance = 0.5

// decideBehavior rolls the manifestation for a newly executed corrupted
// byte. The mix reflects the fail-stop dominance the paper relies on
// ([3, 15, 22, 28]); the hang and double-fault shares are calibrated so the
// pre-hardening configuration loses about the 11% the paper reports (8%
// stalls/recursion + the double-fault handler problem).
func (t *Text) decideBehavior(roll float64) Misbehavior {
	switch {
	case roll < benignChance:
		return BehaveBenign
	case roll < benignChance+0.375:
		return BehaveFailStop
	case roll < benignChance+0.435:
		return BehaveWildWriteStop
	case roll < benignChance+0.465:
		return BehaveWildWriteSilent
	case roll < benignChance+0.4825:
		return BehaveHang
	default:
		return BehaveDoubleFault
	}
}

// CheckExecute scans fn's text for corrupted bytes and returns the resulting
// misbehaviour for this execution. rollFn supplies randomness so the caller
// (the kernel) keeps everything on one seeded stream.
//
// Corrupted bytes are visited in address order. The first one whose decided
// behaviour is not benign stops the scan; each undecided one met on the way
// is rolled once. Clean bytes before the stop forget any earlier decision
// (the byte was repaired or rolled back).
func (t *Text) CheckExecute(fn FuncID, rollFn func() float64) Misbehavior {
	f := t.funcs[fn]
	buf := t.scratch[:f.Len]
	if err := t.mem.ReadAt(t.base+uint64(f.Start), buf); err != nil {
		return BehaveFailStop
	}
	want := t.pristine[f.Start : f.Start+f.Len]
	stop, result := f.Len, BehaveBenign
	if !bytes.Equal(buf, want) {
		for i := nextDiff(buf, want, 0); i < f.Len; i = nextDiff(buf, want, i+1) {
			addr := t.base + uint64(f.Start+i)
			behave, ok := t.decided[addr]
			if !ok {
				behave = t.decideBehavior(rollFn())
				t.decided[addr] = behave
			}
			if behave != BehaveBenign {
				stop, result = i, behave
				break
			}
		}
	}
	t.forgetClean(t.base+uint64(f.Start), buf[:stop], want[:stop])
	return result
}

// nextDiff returns the first index i >= from at which a and b differ, or
// len(a) if none does. Equal 64-byte blocks are skipped with one
// comparison each, so walking a function with a few corrupted bytes costs
// about as much as comparing it whole.
func nextDiff(a, b []byte, from int) int {
	const block = 64
	i := from
	for i+block <= len(a) && bytes.Equal(a[i:i+block], b[i:i+block]) {
		i += block
	}
	for i < len(a) && a[i] == b[i] {
		i++
	}
	return i
}

// forgetClean drops the decision of every byte in cur, the current text
// starting at address lo, that matches its pristine value in want again.
func (t *Text) forgetClean(lo uint64, cur, want []byte) {
	for addr := range t.decided {
		if i := addr - lo; addr >= lo && i < uint64(len(cur)) && cur[i] == want[i] {
			delete(t.decided, addr)
		}
	}
}

// Settle downgrades every corrupted byte in fn currently decided as the
// given behaviour to benign: the instruction's one-time side effect (its
// stray store) has happened and re-executions change nothing new.
func (t *Text) Settle(fn FuncID, was Misbehavior) {
	f := t.funcs[fn]
	for addr, b := range t.decided {
		if b == was && addr >= t.base+uint64(f.Start) && addr < t.base+uint64(f.Start+f.Len) {
			t.decided[addr] = BehaveBenign
		}
	}
}

// Contains reports whether a physical address lies in the text region.
func (t *Text) Contains(addr uint64) bool {
	return addr >= t.base && addr < t.base+uint64(t.size)
}

// CorruptByte flips a text byte (the injector's instruction-corruption
// class). It returns the address written.
func (t *Text) CorruptByte(off int, delta byte) (uint64, error) {
	if off < 0 || off >= t.size {
		return 0, fmt.Errorf("kernel: text offset %d out of range", off)
	}
	addr := t.base + uint64(off)
	var b [1]byte
	if err := t.mem.ReadAt(addr, b[:]); err != nil {
		return 0, err
	}
	if delta == 0 {
		delta = 1
	}
	b[0] += delta
	if err := t.mem.WriteAt(addr, b[:]); err != nil {
		return 0, err
	}
	return addr, nil
}
