package hw

import (
	"math/rand"
	"testing"
)

// mapTLB is the earlier map-indexed TLB, kept verbatim (renamed) as the
// oracle the slice-scan TLB must match access for access.
type mapTLB struct {
	size    int
	slots   []uint64
	present map[uint64]bool
	rng     uint64

	// Counters are cumulative since power-on or the last ResetStats.
	Hits    uint64
	Misses  uint64
	Flushes uint64
}

// newMapTLB returns a TLB with the given number of entries.
func newMapTLB(entries int) *mapTLB {
	if entries < 1 {
		entries = 1
	}
	return &mapTLB{
		size:    entries,
		slots:   make([]uint64, 0, entries),
		present: make(map[uint64]bool, entries),
		rng:     0x9E3779B97F4A7C15,
	}
}

// rand is a tiny deterministic xorshift for replacement choices.
func (t *mapTLB) rand() uint64 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng
}

// Access simulates a translation of virtual page number vpn, returning true
// on a hit. Misses install the translation, evicting a random victim when
// full.
func (t *mapTLB) Access(vpn uint64) bool {
	if t.present[vpn] {
		t.Hits++
		return true
	}
	t.Misses++
	if len(t.slots) < t.size {
		t.slots = append(t.slots, vpn)
	} else {
		victim := int(t.rand() % uint64(t.size))
		delete(t.present, t.slots[victim])
		t.slots[victim] = vpn
	}
	t.present[vpn] = true
	return false
}

// Flush invalidates every entry, as a page-table base register reload does.
func (t *mapTLB) Flush() {
	t.Flushes++
	t.slots = t.slots[:0]
	for k := range t.present {
		delete(t.present, k)
	}
}

// TestTLBMatchesMapOracle drives the TLB and the map-indexed oracle with
// the same seeded VPN streams, interleaved with flushes, over sizes from a
// single entry to the machine's 64, and working sets on both sides of the
// capacity. Every hit/miss answer and every counter must agree.
func TestTLBMatchesMapOracle(t *testing.T) {
	for _, size := range []int{0, 1, 2, 7, 16, 64} {
		for _, span := range []int{4, 48, 80, 400} {
			rng := rand.New(rand.NewSource(int64(size*1000 + span)))
			got, want := NewTLB(size), newMapTLB(size)
			for i := 0; i < 20000; i++ {
				if rng.Intn(500) == 0 {
					got.Flush()
					want.Flush()
					continue
				}
				vpn := uint64(rng.Intn(span))
				if rng.Intn(4) == 0 {
					vpn += 1 << 40 // a high alias: tags compare all 64 bits
				}
				if g, w := got.Access(vpn), want.Access(vpn); g != w {
					t.Fatalf("size %d span %d access %d (vpn %#x): hit=%v, oracle %v",
						size, span, i, vpn, g, w)
				}
			}
			if got.Hits != want.Hits || got.Misses != want.Misses || got.Flushes != want.Flushes {
				t.Fatalf("size %d span %d: counters %d/%d/%d, oracle %d/%d/%d", size, span,
					got.Hits, got.Misses, got.Flushes, want.Hits, want.Misses, want.Flushes)
			}
		}
	}
}

// TestTLBAccessAllocatesNothing: the MMU consults the TLB on every
// simulated memory access, so neither a hit nor a miss that evicts may
// touch the host heap.
func TestTLBAccessAllocatesNothing(t *testing.T) {
	tlb := NewTLB(64)
	vpn := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		tlb.Access(vpn % 96)
		tlb.Access(vpn % 8)
		vpn += 7
	})
	if allocs != 0 {
		t.Fatalf("Access allocates %.1f times per call pair", allocs)
	}
}
