package layout

import (
	"bytes"
	"testing"
)

// FuzzReadRecord drives the record parser with arbitrary bytes; it must
// never panic and must round-trip records it sealed itself. Run the seed
// corpus with go test, or explore with go test -fuzz=FuzzReadRecord.
func FuzzReadRecord(f *testing.F) {
	f.Add([]byte{}, uint8(1), true)
	f.Add(Seal(TypeProc, 0, []byte("payload")), uint8(2), true)
	f.Add(Seal(TypeFile, 7, bytes.Repeat([]byte{0xAA}, 300)), uint8(4), false)
	f.Add([]byte{0x6F, 0x0D, 2, 0, 255, 255, 255, 255}, uint8(2), true)
	f.Fuzz(func(t *testing.T, data []byte, wantType uint8, crc bool) {
		m := &memBuf{data: make([]byte, len(data)+64)}
		copy(m.data, data)
		payload, _, err := ReadRecord(m, 0, Type(wantType%uint8(typeMax)), crc)
		if err == nil && payload == nil && len(data) > HeaderSize {
			// nil payload is only legal for zero-length records.
			n := int(uint32(data[4]) | uint32(data[5])<<8 | uint32(data[6])<<16 | uint32(data[7])<<24)
			if n != 0 {
				t.Fatalf("nil payload for length %d", n)
			}
		}
	})
}

// FuzzDecodeContext: saved hardware contexts carry no checksums; arbitrary
// bytes must decode without panicking.
func FuzzDecodeContext(f *testing.F) {
	var buf [ContextSize]byte
	EncodeContext(buf[:], &Context{Saved: true, PC: 42})
	f.Add(buf[:])
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := DecodeContext(data)
		if ok && len(data) < ContextSize {
			t.Fatal("short buffer cannot hold a context")
		}
		_ = c
	})
}

// FuzzRecordDecode drives every typed record reader — the full decoder
// surface the crash kernel exposes to the dead kernel's bytes — with
// arbitrary memory images. The resurrection scan walks these concurrently,
// so a panic here is a crash-kernel crash; decoders must return errors, not
// panic, for any input. Corpus: one well-formed sealed record per type.
func FuzzRecordDecode(f *testing.F) {
	g := Globals{Version: 1, ProcListHead: 64, NextPID: 2}
	p := Proc{PID: 3, Name: "mysqld", Program: "mysqld", CrashProc: "cp"}
	v := MemRegion{Start: 0x1000, End: 0x3000}
	fr := FileRec{Path: "/data/t0", Offset: 12}
	st := SwapTable{}
	term := Terminal{Rows: 24, Cols: 80}
	sg := Signals{}
	sh := Shm{Key: 9, Size: 4096}
	pp := Pipe{ID: 1}
	sk := Socket{ID: 2, LocalPort: 3306}
	cp := CachePage{FileOff: 4096, Bytes: 4096}
	for _, s := range []struct {
		t       Type
		payload []byte
	}{
		{TypeGlobals, g.EncodePayload()},
		{TypeProc, p.EncodePayload()},
		{TypeMemRegion, v.EncodePayload()},
		{TypeFile, fr.EncodePayload()},
		{TypeSwapTable, st.EncodePayload()},
		{TypeTerminal, term.EncodePayload()},
		{TypeSignals, sg.EncodePayload()},
		{TypeShm, sh.EncodePayload()},
		{TypePipe, pp.EncodePayload()},
		{TypeSocket, sk.EncodePayload()},
		{TypeCachePage, cp.EncodePayload()},
	} {
		f.Add(Seal(s.t, 0, s.payload), uint8(s.t), true)
		f.Add(Seal(s.t, 0, s.payload), uint8(s.t), false)
	}
	f.Add([]byte{}, uint8(TypeProc), true)
	f.Add(bytes.Repeat([]byte{0xFF}, 96), uint8(TypeShm), false)
	f.Fuzz(func(t *testing.T, data []byte, typeSel uint8, crc bool) {
		m := &memBuf{data: make([]byte, len(data)+64)}
		copy(m.data, data)
		switch Type(typeSel % uint8(typeMax)) {
		case TypeGlobals:
			_, _ = ReadGlobals(m, 0, crc)
		case TypeProc:
			_, _ = ReadProc(m, 0, crc)
		case TypeMemRegion:
			_, _ = ReadMemRegion(m, 0, crc)
		case TypeFile:
			_, _ = ReadFileRec(m, 0, crc)
		case TypeSwapTable:
			_, _ = ReadSwapTable(m, 0, crc)
		case TypeTerminal:
			_, _ = ReadTerminal(m, 0, crc)
		case TypeSignals:
			_, _ = ReadSignals(m, 0, crc)
		case TypeShm:
			_, _ = ReadShm(m, 0, crc)
		case TypePipe:
			_, _ = ReadPipe(m, 0, crc)
		case TypeSocket:
			_, _ = ReadSocket(m, 0, crc)
		case TypeCachePage:
			_, _ = ReadCachePage(m, 0, crc)
		}
	})
}

// FuzzProcDecode exercises the highest-fan-in record decoder.
func FuzzProcDecode(f *testing.F) {
	p := Proc{PID: 1, Name: "a", Program: "b", CrashProc: "c"}
	f.Add(p.EncodePayload())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 200))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var q Proc
		_ = q.decode(0, payload)
	})
}

// FuzzParseIndex aims the candidate-index salvage at arbitrary memory
// images — the dead kernel's reservation after wild writes. The region may
// run past the image (unreadable slots). It must never panic, and whatever
// parses stays within the slot count the region can hold. Corpus: a
// well-formed sealed index with live entries and a tombstone.
func FuzzParseIndex(f *testing.F) {
	const slots = 6
	m := newMemBuf(slots * IndexSlotSize)
	w, err := NewIndexWriter(m, 0, slots, 3)
	if err != nil {
		f.Fatal(err)
	}
	for pid := uint32(1); pid <= 4; pid++ {
		if err := w.Put(pid, uint64(pid)*0x1000, "mysqld", "mysqld", "mysql-crash"); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Delete(2); err != nil {
		f.Fatal(err)
	}
	f.Add(m.data, uint16(len(m.data)), true)
	f.Add(m.data, uint16(len(m.data)), false)
	f.Add(m.data[:3*IndexSlotSize], uint16(len(m.data)), true)
	f.Add([]byte{}, uint16(2*IndexSlotSize), true)
	f.Fuzz(func(t *testing.T, data []byte, size uint16, crc bool) {
		sal, err := ParseIndex(&memBuf{data: data}, 0, int(size), crc)
		if err != nil {
			return
		}
		fit := int(size) / IndexSlotSize
		if n := int(sal.Header.Slots); n < 2 || n > fit {
			t.Fatalf("parsed %d slots from a %d-byte region", n, size)
		}
		if sal.Skipped < 0 || sal.Skipped+len(sal.Entries) > int(sal.Header.Slots)-1 {
			t.Fatalf("skipped %d + %d entries exceed %d entry slots",
				sal.Skipped, len(sal.Entries), sal.Header.Slots-1)
		}
	})
}
