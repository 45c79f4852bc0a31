package kernel

import (
	"maps"
	"testing"

	"otherworld/internal/phys"
	"otherworld/internal/sim"
)

// referenceCheckExecute is the byte-at-a-time text check CheckExecute
// replaced, kept verbatim as the oracle for the differential test: it
// rehashes every byte of the function and forgets the decision of each
// clean byte it passes.
func referenceCheckExecute(t *Text, fn FuncID, rollFn func() float64) Misbehavior {
	f := t.funcs[fn]
	buf := make([]byte, f.Len)
	if err := t.mem.ReadAt(t.base+uint64(f.Start), buf); err != nil {
		return BehaveFailStop
	}
	for i, b := range buf {
		addr := t.base + uint64(f.Start) + uint64(i)
		if b == t.expected(addr) {
			delete(t.decided, addr) // repaired or rolled back
			continue
		}
		behave, ok := t.decided[addr]
		if !ok {
			behave = t.decideBehavior(rollFn())
			t.decided[addr] = behave
		}
		if behave != BehaveBenign {
			return behave
		}
	}
	return BehaveBenign
}

// newBareText builds a Text over its own small memory, without a kernel.
func newBareText(t *testing.T, seed int64) *Text {
	t.Helper()
	region := phys.Region{Start: 0, Frames: 3 + TextFrames}
	mem := phys.NewMem(region.Bytes())
	txt, err := NewText(mem, phys.NewFrameAllocator(mem, region), region, seed)
	if err != nil {
		t.Fatal(err)
	}
	return txt
}

// countingRoll is a seeded rollFn that counts its calls.
type countingRoll struct {
	rng   *sim.RNG
	calls int
}

func (c *countingRoll) roll() float64 {
	c.calls++
	return c.rng.Float64()
}

// TestCheckExecuteMatchesReference drives CheckExecute and the reference
// loop through identical seeded sequences of corruption, repair, Settle and
// execution over every function, and requires the same behaviours, the same
// number of rolls and the same decision map after every step.
func TestCheckExecuteMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		got, want := newBareText(t, seed), newBareText(t, seed)
		gotRoll := &countingRoll{rng: sim.NewRNG(seed)}
		wantRoll := &countingRoll{rng: sim.NewRNG(seed)}
		ops := sim.NewRNG(seed * 7919)

		// Each seed works two functions at a few hot positions each, so
		// corruptions pile up on the same bytes, some land back on the
		// pristine value, and repaired bytes sit on both sides of a
		// non-benign one. Over all seeds every function is covered.
		fns := []FuncID{FuncID(seed % int64(funcCount)), FuncID(ops.Intn(int(funcCount)))}
		var hot [funcCount][]int
		for _, fn := range fns {
			f := got.Func(fn)
			for range 4 {
				hot[fn] = append(hot[fn], f.Start+ops.Intn(f.Len))
			}
		}
		for step := range 300 {
			fn := fns[ops.Intn(len(fns))]
			off := hot[fn][ops.Intn(len(hot[fn]))]
			switch op := ops.Intn(10); {
			case op < 3: // corrupt
				delta := byte(ops.Intn(256))
				for _, txt := range []*Text{got, want} {
					if _, err := txt.CorruptByte(off, delta); err != nil {
						t.Fatal(err)
					}
				}
			case op < 5: // repair: write the pristine byte back
				for _, txt := range []*Text{got, want} {
					addr := txt.base + uint64(off)
					if err := txt.mem.WriteAt(addr, []byte{txt.expected(addr)}); err != nil {
						t.Fatal(err)
					}
				}
			case op < 6:
				was := Misbehavior(ops.Intn(int(BehaveDoubleFault) + 1))
				got.Settle(fn, was)
				want.Settle(fn, was)
			default:
				g := got.CheckExecute(fn, gotRoll.roll)
				w := referenceCheckExecute(want, fn, wantRoll.roll)
				if g != w {
					t.Fatalf("seed %d step %d: CheckExecute(%s) = %v, reference %v", seed, step, funcNames[fn], g, w)
				}
			}
			if gotRoll.calls != wantRoll.calls {
				t.Fatalf("seed %d step %d: %d rolls, reference %d", seed, step, gotRoll.calls, wantRoll.calls)
			}
			if !maps.Equal(got.decided, want.decided) {
				t.Fatalf("seed %d step %d: decided %v, reference %v", seed, step, got.decided, want.decided)
			}
		}
	}
}

// TestCheckExecutePristineAllocatesNothing pins the fast path: executing
// untouched text reads into the reusable buffer and allocates nothing.
func TestCheckExecutePristineAllocatesNothing(t *testing.T) {
	txt := newBareText(t, 3)
	roll := sim.NewRNG(3).Float64
	for fn := FuncID(0); fn < funcCount; fn++ {
		allocs := testing.AllocsPerRun(20, func() {
			if b := txt.CheckExecute(fn, roll); b != BehaveBenign {
				t.Fatalf("pristine %s misbehaved: %v", funcNames[fn], b)
			}
		})
		if allocs != 0 {
			t.Fatalf("CheckExecute(%s) on pristine text: %v allocs/run, want 0", funcNames[fn], allocs)
		}
	}
}
