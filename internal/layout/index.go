package layout

import (
	"encoding/binary"
	"fmt"
)

// Candidate index
//
// The main kernel maintains a compact, CRC-framed candidate index in the
// crash reservation next to the trace ring: one header slot plus one entry
// slot per live process, each sealed with the standard record framing. The
// crash kernel salvages the index to seed resurrection scanners directly,
// instead of walking the dead kernel's whole process list record by record
// — the discovery step that dominates the prologue at fleet scale. The
// index is strictly an accelerator: every entry still points at the
// authoritative process descriptor, which the scanner re-reads and
// validates, and a missing or corrupt index degrades to the full walk.
//
// Slot states are distinguished without extra bookkeeping in the dead
// image: an all-zero slot prefix is "never used", a sealed TypeIndexEntry
// with the dead flag is a tombstone, anything else that fails validation
// is corruption (skipped and counted by ParseIndex).

// IndexSlotSize is the fixed byte size of every index slot, header
// included. An entry payload is at most 4+8+8+3*(1+maxNameLen) = 215
// bytes framed to 227, so the worst case fits with headroom.
const IndexSlotSize = 256

// IndexVersion is the header format version.
const IndexVersion = 1

// indexFlagDead marks a tombstoned entry slot (process exited).
const indexFlagDead = 1

// maxIndexString bounds each entry string so the framed record always fits
// its 256-byte slot (and the 1-byte length prefix cannot wrap). Matches the
// kernel's own process-name limit.
const maxIndexString = 64

// IndexHeader is the decoded slot-0 header.
type IndexHeader struct {
	Version    uint16
	Generation uint64
	Slots      uint32
}

// IndexEntry is one decoded candidate pointer.
type IndexEntry struct {
	PID       uint32
	Addr      uint64 // physical address of the TypeProc descriptor record
	Gen       uint64 // generation the entry was written under
	Name      string
	Program   string
	CrashProc string
}

func (h *IndexHeader) encode() []byte {
	buf := make([]byte, 2+8+4)
	binary.LittleEndian.PutUint16(buf[0:], h.Version)
	binary.LittleEndian.PutUint64(buf[2:], h.Generation)
	binary.LittleEndian.PutUint32(buf[10:], h.Slots)
	return buf
}

func decodeIndexHeader(p []byte) (*IndexHeader, error) {
	if len(p) < 14 {
		return nil, fmt.Errorf("short index header payload (%d bytes)", len(p))
	}
	return &IndexHeader{
		Version:    binary.LittleEndian.Uint16(p[0:]),
		Generation: binary.LittleEndian.Uint64(p[2:]),
		Slots:      binary.LittleEndian.Uint32(p[10:]),
	}, nil
}

func (e *IndexEntry) encode() []byte {
	buf := make([]byte, 0, 4+8+8+3*(1+64))
	var u32 [4]byte
	var u64 [8]byte
	binary.LittleEndian.PutUint32(u32[:], e.PID)
	buf = append(buf, u32[:]...)
	binary.LittleEndian.PutUint64(u64[:], e.Addr)
	buf = append(buf, u64[:]...)
	binary.LittleEndian.PutUint64(u64[:], e.Gen)
	buf = append(buf, u64[:]...)
	for _, s := range []string{e.Name, e.Program, e.CrashProc} {
		buf = append(buf, byte(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

func decodeIndexEntry(p []byte) (*IndexEntry, error) {
	if len(p) < 20 {
		return nil, fmt.Errorf("short index entry payload (%d bytes)", len(p))
	}
	e := &IndexEntry{
		PID:  binary.LittleEndian.Uint32(p[0:]),
		Addr: binary.LittleEndian.Uint64(p[4:]),
		Gen:  binary.LittleEndian.Uint64(p[12:]),
	}
	off := 20
	for _, dst := range []*string{&e.Name, &e.Program, &e.CrashProc} {
		if off >= len(p) {
			return nil, fmt.Errorf("truncated index entry string at offset %d", off)
		}
		n := int(p[off])
		off++
		if off+n > len(p) {
			return nil, fmt.Errorf("index entry string overruns payload")
		}
		*dst = string(p[off : off+n])
		off += n
	}
	return e, nil
}

// IndexWriter maintains the candidate index in a fixed region of simulated
// physical memory on behalf of the main kernel. All methods write through
// immediately so the index in the protected reservation is always current
// at crash time. The writer's in-Go bookkeeping (slot occupancy) is a
// write-through cache, exactly like the kernel's process map.
type IndexWriter struct {
	mem   MemoryAccessor
	base  uint64
	slots int
	gen   uint64
	byPID map[uint32]int // pid -> occupied entry slot
	used  []bool         // slot occupancy; slot 0 is the header
}

// NewIndexWriter initialises a writer over [base, base+slots*IndexSlotSize)
// and seals a fresh header, zeroing every entry slot (the reservation may
// hold a previous generation's bytes).
func NewIndexWriter(m MemoryAccessor, base uint64, slots int, gen uint64) (*IndexWriter, error) {
	if slots < 2 {
		return nil, fmt.Errorf("layout: index needs at least 2 slots, got %d", slots)
	}
	w := &IndexWriter{mem: m, base: base, slots: slots, gen: gen,
		byPID: make(map[uint32]int), used: make([]bool, slots)}
	zero := make([]byte, IndexSlotSize)
	for i := 1; i < slots; i++ {
		if err := m.WriteAt(w.slotAddr(i), zero); err != nil {
			return nil, err
		}
	}
	hdr := &IndexHeader{Version: IndexVersion, Generation: gen, Slots: uint32(slots)}
	if err := WriteRecord(m, base, TypeIndexHeader, 0, hdr.encode()); err != nil {
		return nil, err
	}
	w.used[0] = true
	return w, nil
}

// Generation returns the generation stamped into the header.
func (w *IndexWriter) Generation() uint64 { return w.gen }

// Capacity returns the number of entry slots.
func (w *IndexWriter) Capacity() int { return w.slots - 1 }

func (w *IndexWriter) slotAddr(i int) uint64 {
	return w.base + uint64(i)*IndexSlotSize
}

// Put records (or refreshes) the index entry for a process. When the index
// is full the put is dropped — the entry's process is still discovered by
// the full-walk fallback, so capacity pressure only costs speed, never
// candidates — and ErrIndexFull is returned so callers can count it.
func (w *IndexWriter) Put(pid uint32, addr uint64, name, program, crashProc string) error {
	for _, s := range []string{name, program, crashProc} {
		if len(s) > maxIndexString {
			return fmt.Errorf("layout: index string %q exceeds %d bytes", s, maxIndexString)
		}
	}
	slot, ok := w.byPID[pid]
	if !ok {
		slot = -1
		for i := 1; i < w.slots; i++ {
			if !w.used[i] {
				slot = i
				break
			}
		}
		if slot < 0 {
			return ErrIndexFull
		}
	}
	e := &IndexEntry{PID: pid, Addr: addr, Gen: w.gen,
		Name: name, Program: program, CrashProc: crashProc}
	if err := WriteRecord(w.mem, w.slotAddr(slot), TypeIndexEntry, 0, e.encode()); err != nil {
		return err
	}
	w.used[slot] = true
	w.byPID[pid] = slot
	return nil
}

// Delete tombstones a process's entry; unknown PIDs are a no-op (the
// process may have arrived while the index was full).
func (w *IndexWriter) Delete(pid uint32) error {
	slot, ok := w.byPID[pid]
	if !ok {
		return nil
	}
	e := &IndexEntry{PID: pid, Gen: w.gen}
	if err := WriteRecord(w.mem, w.slotAddr(slot), TypeIndexEntry, indexFlagDead, e.encode()); err != nil {
		return err
	}
	delete(w.byPID, pid)
	w.used[slot] = false
	return nil
}

// ErrIndexFull reports a dropped Put on a full index.
var ErrIndexFull = fmt.Errorf("layout: candidate index full")

// IndexSalvage is the result of parsing a (possibly damaged) candidate
// index out of a dead kernel's reservation.
type IndexSalvage struct {
	Header  IndexHeader
	Entries []IndexEntry // live entries in slot order
	// Skipped counts slots that were neither empty nor valid live entries
	// of the header's generation: corrupt frames, stale generations,
	// tombstones of other generations. Resurrection reports it so a
	// partially-wrecked index is visible in the attribution.
	Skipped int
}

// ParseIndex decodes the candidate index at [base, base+size). A header
// failure is fatal (the caller falls back to the full process-list walk);
// entry-slot damage is skipped and counted.
func ParseIndex(m MemoryAccessor, base uint64, size int, verifyCRC bool) (*IndexSalvage, error) {
	if size < 2*IndexSlotSize {
		return nil, fmt.Errorf("layout: index region too small (%d bytes)", size)
	}
	payload, _, err := ReadRecord(m, base, TypeIndexHeader, verifyCRC)
	if err != nil {
		return nil, err
	}
	hdr, err := decodeIndexHeader(payload)
	if err != nil {
		return nil, &CorruptionError{Addr: base, Want: TypeIndexHeader, Reason: err.Error()}
	}
	if hdr.Version != IndexVersion {
		return nil, &CorruptionError{Addr: base, Want: TypeIndexHeader,
			Reason: fmt.Sprintf("unsupported index version %d", hdr.Version)}
	}
	slots := int(hdr.Slots)
	if slots < 2 || slots*IndexSlotSize > size {
		return nil, &CorruptionError{Addr: base, Want: TypeIndexHeader,
			Reason: fmt.Sprintf("slot count %d does not fit region", hdr.Slots)}
	}
	sal := &IndexSalvage{Header: *hdr}
	var prefix [2]byte
	for i := 1; i < slots; i++ {
		addr := base + uint64(i)*IndexSlotSize
		if err := m.ReadAt(addr, prefix[:]); err != nil {
			sal.Skipped++
			continue
		}
		if prefix[0] == 0 && prefix[1] == 0 {
			continue // never used
		}
		payload, flags, err := ReadRecord(m, addr, TypeIndexEntry, verifyCRC)
		if err != nil {
			sal.Skipped++
			continue
		}
		e, err := decodeIndexEntry(payload)
		if err != nil || e.Gen != hdr.Generation {
			sal.Skipped++
			continue
		}
		if flags&indexFlagDead != 0 {
			continue // clean tombstone of the current generation
		}
		sal.Entries = append(sal.Entries, *e)
	}
	return sal, nil
}
