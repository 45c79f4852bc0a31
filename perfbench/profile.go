package main

// CPU-profile attribution by package. The benchmark profiles itself with
// runtime/pprof and reads the profile back with the minimal protobuf
// decoder below (the standard library has no profile parser), attributing
// every sample to the package of its innermost (leaf) function.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
)

// cpuSplit is a profile's sample shares.
type cpuSplit struct {
	samples int64
	byPkg   map[string]float64 // leaf package → % of samples
	top     []funcShare        // leaf functions, most samples first
}

type funcShare struct {
	Func string  `json:"func"`
	Pct  float64 `json:"pct"`
}

// The profile.proto field numbers this decoder reads.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6
	sampleLocs   = 1
	sampleValues = 2
	locID        = 1
	locLine      = 4
	lineFunc     = 1
	funcID       = 1
	funcName     = 2
)

// field is one decoded protobuf field: a varint value or a byte payload.
type field struct {
	num   int
	wire  int
	v     uint64
	bytes []byte
}

func fields(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field tag")
		}
		b = b[n:]
		f := field{num: int(tag >> 3), wire: int(tag & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated integer field's values, packed or not.
func (f field) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseCPUProfile splits a gzipped pprof CPU profile by leaf package and
// leaf function.
func parseCPUProfile(gz []byte) (cpuSplit, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return cpuSplit{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuSplit{}, fmt.Errorf("profile: %w", err)
	}
	type sampleRec struct {
		leafLoc uint64
		count   int64
	}
	var (
		strs     []string
		samples  []sampleRec
		locFunc  = map[uint64]uint64{} // location id → leaf function id
		funcStr  = map[uint64]uint64{} // function id → name string index
		innerErr error
	)
	err = fields(raw, func(f field) error {
		switch f.num {
		case profStrings:
			strs = append(strs, string(f.bytes))
		case profSample:
			var s sampleRec
			innerErr = fields(f.bytes, func(g field) error {
				vs, err := g.varints()
				if err != nil {
					return err
				}
				switch {
				case g.num == sampleLocs && s.leafLoc == 0 && len(vs) > 0:
					s.leafLoc = vs[0]
				case g.num == sampleValues && s.count == 0 && len(vs) > 0:
					s.count = int64(vs[0])
				}
				return nil
			})
			samples = append(samples, s)
		case profLocation:
			var id, fn uint64
			innerErr = fields(f.bytes, func(g field) error {
				switch g.num {
				case locID:
					id = g.v
				case locLine:
					if fn != 0 {
						return nil
					}
					return fields(g.bytes, func(h field) error {
						if h.num == lineFunc {
							fn = h.v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
		case profFunction:
			var id, name uint64
			innerErr = fields(f.bytes, func(g field) error {
				switch g.num {
				case funcID:
					id = g.v
				case funcName:
					name = g.v
				}
				return nil
			})
			funcStr[id] = name
		}
		return innerErr
	})
	if err != nil {
		return cpuSplit{}, err
	}
	split := cpuSplit{byPkg: map[string]float64{}}
	byFunc := map[string]int64{}
	byPkg := map[string]int64{}
	for _, s := range samples {
		name := "unknown"
		if idx, ok := funcStr[locFunc[s.leafLoc]]; ok && idx < uint64(len(strs)) {
			name = strs[idx]
		}
		byFunc[name] += s.count
		byPkg[leafPackage(name)] += s.count
		split.samples += s.count
	}
	if split.samples == 0 {
		return split, nil
	}
	for p, n := range byPkg {
		split.byPkg[p] = 100 * float64(n) / float64(split.samples)
	}
	for f, n := range byFunc {
		split.top = append(split.top, funcShare{Func: f, Pct: 100 * float64(n) / float64(split.samples)})
	}
	sort.Slice(split.top, func(i, j int) bool {
		if split.top[i].Pct != split.top[j].Pct {
			return split.top[i].Pct > split.top[j].Pct
		}
		return split.top[i].Func < split.top[j].Func
	})
	return split, nil
}

// leafPackage names a function's package by its last path element, with
// the runtime's internal packages folded into "runtime":
// "otherworld/internal/kernel.(*Text).CheckExecute" → "kernel".
func leafPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments may contain '/' and '.'
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return path.Base(pkg)
}
