package phys

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// backed reports whether frame f has host backing.
func (m *Mem) backed(f int) bool { return m.pages[f] != nil }

func TestSparseReadWriteAcrossPages(t *testing.T) {
	m := NewMem(6 * PageSize)
	// Back frame 2 only, then write a span that starts in unbacked frame 1,
	// covers backed frame 2 and ends in unbacked frame 3.
	if err := m.WriteAt(FrameAddr(2)+7, []byte{9}); err != nil {
		t.Fatal(err)
	}
	span := make([]byte, PageSize+200)
	for i := range span {
		span[i] = byte(i%251) + 1
	}
	addr := FrameAddr(2) - 100
	if err := m.WriteAt(addr, span); err != nil {
		t.Fatal(err)
	}
	for f, want := range []bool{false, true, true, true, false, false} {
		if m.backed(f) != want {
			t.Fatalf("frame %d backed = %v, want %v", f, m.backed(f), want)
		}
	}
	// A read across unbacked frame 0, the written span and unbacked frame 4
	// sees zeros around exactly the bytes written.
	got := make([]byte, 5*PageSize)
	if err := m.ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(got))
	copy(want[addr:], span)
	if !bytes.Equal(got, want) {
		t.Fatal("read across backed and unbacked frames differs from a flat copy")
	}
	// A read of an unbacked frame overwrites stale caller bytes with zeros.
	stale := bytes.Repeat([]byte{0xAA}, 64)
	if err := m.ReadAt(FrameAddr(4)+10, stale); err != nil {
		t.Fatal(err)
	}
	if !PageIsZero(stale) {
		t.Fatalf("unbacked read left stale bytes: %x", stale)
	}
}

func TestSparseZeroWritesStayUnbacked(t *testing.T) {
	m := NewMem(4 * PageSize)
	if err := m.WriteAt(FrameAddr(1)-8, make([]byte, PageSize+16)); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteU64(FrameAddr(3), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(2); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < m.NumFrames(); f++ {
		if m.backed(f) {
			t.Fatalf("frame %d backed by all-zero traffic", f)
		}
	}
	// Zero on a backed frame clears it in place.
	if err := m.WriteU64(FrameAddr(2)+8, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(2); err != nil {
		t.Fatal(err)
	}
	if v, err := m.ReadU64(FrameAddr(2) + 8); err != nil || v != 0 {
		t.Fatalf("after Zero read %#x, %v", v, err)
	}
	// Zeros written over a backed frame land like any other bytes.
	if err := m.WriteU64(FrameAddr(2)+8, 7); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteU64(FrameAddr(2)+8, 0); err != nil {
		t.Fatal(err)
	}
	if v, err := m.ReadU64(FrameAddr(2) + 8); err != nil || v != 0 {
		t.Fatalf("zero write over backed bytes read back %#x, %v", v, err)
	}
}

func TestSparseFrameAliases(t *testing.T) {
	m := NewMem(3 * PageSize)
	if m.backed(1) {
		t.Fatal("fresh frame backed")
	}
	page, err := m.Frame(1)
	if err != nil {
		t.Fatal(err)
	}
	if !m.backed(1) || len(page) != PageSize || cap(page) != PageSize {
		t.Fatalf("Frame(1): backed %v, len %d, cap %d", m.backed(1), len(page), cap(page))
	}
	page[5] = 42
	var b [1]byte
	if err := m.ReadAt(FrameAddr(1)+5, b[:]); err != nil || b[0] != 42 {
		t.Fatalf("write through alias not seen by ReadAt: %d, %v", b[0], err)
	}
	// The alias also sees later writes and zeroing.
	if err := m.WriteAt(FrameAddr(1)+6, []byte{43}); err != nil {
		t.Fatal(err)
	}
	if page[6] != 43 {
		t.Fatalf("alias missed WriteAt: %d", page[6])
	}
	if err := m.Zero(1); err != nil {
		t.Fatal(err)
	}
	if !PageIsZero(page) {
		t.Fatal("alias missed Zero")
	}
	if _, err := m.Frame(3); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Frame past end: %v", err)
	}
}

// TestSparseStatsScript checks the access counters against hand-computed
// totals for a fixed script that mixes backed, unbacked, zero and
// multi-frame traffic: backing must not change what counts as bus traffic.
func TestSparseStatsScript(t *testing.T) {
	m := NewMem(8 * PageSize)
	buf := make([]byte, 3*PageSize)
	steps := []func() error{
		func() error { return m.WriteAt(FrameAddr(1)+10, buf[:PageSize]) },       // W 4096, zeros, unbacked
		func() error { return m.WriteAt(FrameAddr(2)-4, []byte{1, 2, 3, 4, 5}) }, // W 5, backs 1 and 2
		func() error { return m.WriteU64(FrameAddr(6), 0) },                      // W 8
		func() error { return m.ReadAt(0, buf) },                                 // R 3*4096, mixed
		func() error { return m.ReadAt(FrameAddr(7), buf[:16]) },                 // R 16, unbacked
		func() error { _, err := m.ReadU64(FrameAddr(2)); return err },           // R 8
		func() error { return m.Zero(5) },                                        // W 4096, unbacked
		func() error { return m.Zero(2) },                                        // W 4096, backed
		func() error { return m.WriteAt(FrameAddr(3), nil) },                     // W 0
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := m.Protect(4, true); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAt(FrameAddr(4)-2, []byte{1, 2, 3, 4}); err == nil {
		t.Fatal("expected protection fault")
	}
	if err := m.Zero(4); err == nil {
		t.Fatal("expected protection fault")
	}
	_ = m.ReadAt(FrameAddr(8), buf[:1])    // out of range: not counted
	_ = m.WriteAt(FrameAddr(8)-1, buf[:2]) // out of range: not counted
	want := Stats{
		ReadOps:    3,
		ReadBytes:  3*PageSize + 16 + 8,
		WriteOps:   6,
		WriteBytes: PageSize + 5 + 8 + PageSize + PageSize,
		ProtFaults: 2,
	}
	if s := m.Stats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
}

func TestSparseProtectionFault(t *testing.T) {
	m := NewMem(4 * PageSize)
	if err := m.Protect(2, true); err != nil {
		t.Fatal(err)
	}
	// A write from unbacked frame 1 into protected frame 2 is refused whole:
	// it reports the protected frame and backs nothing.
	err := m.WriteAt(FrameAddr(2)-3, []byte{1, 2, 3, 4, 5, 6})
	var pf *ProtectionFault
	if !errors.As(err, &pf) || pf.Frame != 2 || pf.Addr != FrameAddr(2)-3 {
		t.Fatalf("want ProtectionFault at frame 2, got %v", err)
	}
	if m.backed(1) || m.backed(2) {
		t.Fatal("refused write backed a frame")
	}
	if err := m.Zero(2); !errors.As(err, &pf) || pf.Frame != 2 || pf.Addr != FrameAddr(2) {
		t.Fatalf("Zero on protected frame: %v", err)
	}
	// Frame() aliasing bypasses protection by design.
	page, err := m.Frame(2)
	if err != nil {
		t.Fatal(err)
	}
	page[0] = 9
	var b [1]byte
	if err := m.ReadAt(FrameAddr(2), b[:]); err != nil || b[0] != 9 {
		t.Fatalf("read of protected frame: %d, %v", b[0], err)
	}
	if s := m.Stats(); s.ProtFaults != 2 || s.WriteOps != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestReadU64MatchesReadAt: the one-frame word fast path must agree with an
// 8-byte ReadAt on value, error and counter deltas everywhere — inside
// backed and unbacked frames, straddling a frame boundary (backed/unbacked
// on either side), the last word of memory, at and past the end, and at
// addresses whose addr+8 wraps around.
func TestReadU64MatchesReadAt(t *testing.T) {
	m := NewMem(4 * PageSize)
	for i := 0; i < PageSize; i += 8 {
		if err := m.WriteU64(FrameAddr(1)+uint64(i), uint64(i)*0x0101010101010101+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WriteU64(uint64(m.Size())-8, 0xDEADBEEFCAFEF00D); err != nil {
		t.Fatal(err)
	}
	size := uint64(m.Size())
	addrs := []uint64{
		0, 8, PageSize - 8, // unbacked frame 0
		FrameAddr(1), FrameAddr(1) + 13, FrameAddr(1) + PageSize - 8, // backed frame 1
		FrameAddr(1) - 3, FrameAddr(2) - 5, FrameAddr(2) - 1, // straddles: unbacked→backed, backed→unbacked
		FrameAddr(3) - 4, // unbacked→backed (the last frame)
		size - 8, size - 7, size - 1, size, size + 1,
		math.MaxUint64, math.MaxUint64 - 7, math.MaxUint64 - 8, math.MaxUint64 - PageSize + 1,
	}
	for _, a := range addrs {
		before := m.Stats()
		got, gerr := m.ReadU64(a)
		mid := m.Stats()
		var b [8]byte
		werr := m.ReadAt(a, b[:])
		after := m.Stats()
		want := uint64(0)
		if werr == nil {
			want = leU64(b[:])
		}
		if got != want || !errors.Is(gerr, werr) || (gerr == nil) != (werr == nil) {
			t.Fatalf("addr %#x: ReadU64 = %#x, %v; ReadAt = %#x, %v", a, got, gerr, want, werr)
		}
		dGot := Stats{ReadOps: mid.ReadOps - before.ReadOps, ReadBytes: mid.ReadBytes - before.ReadBytes}
		dWant := Stats{ReadOps: after.ReadOps - mid.ReadOps, ReadBytes: after.ReadBytes - mid.ReadBytes}
		if dGot != dWant || mid.WriteOps != before.WriteOps {
			t.Fatalf("addr %#x: ReadU64 counted %+v, ReadAt %+v", a, dGot, dWant)
		}
	}
}
