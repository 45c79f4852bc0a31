package hw

// TLB is a fully associative translation lookaside buffer with (seeded)
// random replacement, the policy x86 TLBs approximate; unlike FIFO it
// degrades smoothly as the working set exceeds capacity instead of
// thrashing all-or-nothing. The simulation charges one entry per virtual
// page; the user-space-protection mode flushes the whole TLB on every
// page-table-set switch (kernel entry and exit), which is exactly the cost
// the paper measures in Table 3: "overhead mainly due to TLB flush
// operations that occur on every page table switch".
//
// The entries are a flat slice of at most Size() virtual page numbers, with
// no side index: a lookup is a linear scan, which at TLB sizes beats a hash
// map on every access and allocates nothing after NewTLB.
type TLB struct {
	size  int
	slots []uint64 // resident VPNs, each at most once; len ≤ size
	rng   uint64

	// Counters are cumulative since power-on or the last ResetStats.
	Hits    uint64
	Misses  uint64
	Flushes uint64
}

// NewTLB returns a TLB with the given number of entries.
func NewTLB(entries int) *TLB {
	if entries < 1 {
		entries = 1
	}
	return &TLB{
		size:  entries,
		slots: make([]uint64, 0, entries),
		rng:   0x9E3779B97F4A7C15,
	}
}

// rand is a tiny deterministic xorshift for replacement choices.
func (t *TLB) rand() uint64 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng
}

// Size returns the entry capacity.
func (t *TLB) Size() int { return t.size }

// Access simulates a translation of virtual page number vpn, returning true
// on a hit. Misses install the translation, evicting a random victim when
// full.
func (t *TLB) Access(vpn uint64) bool {
	for _, v := range t.slots {
		if v == vpn {
			t.Hits++
			return true
		}
	}
	t.Misses++
	if len(t.slots) < t.size {
		t.slots = append(t.slots, vpn)
	} else {
		t.slots[t.rand()%uint64(t.size)] = vpn
	}
	return false
}

// Flush invalidates every entry, as a page-table base register reload does.
func (t *TLB) Flush() {
	t.Flushes++
	t.slots = t.slots[:0]
}

// ResetStats clears the counters without touching the entries, so a
// benchmark can measure a steady-state window.
func (t *TLB) ResetStats() {
	t.Hits = 0
	t.Misses = 0
	t.Flushes = 0
}

// MissRate returns misses / accesses, or 0 with no accesses.
func (t *TLB) MissRate() float64 {
	total := t.Hits + t.Misses
	if total == 0 {
		return 0
	}
	return float64(t.Misses) / float64(total)
}
