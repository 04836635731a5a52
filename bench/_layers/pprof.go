package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message. The
// standard library has no public reader for it, so this file decodes the
// four tables the ledger folds: samples, locations, functions, strings.

// cpuSample is one stack (leaf first, inlined frames expanded) and the CPU
// nanoseconds attributed to it.
type cpuSample struct {
	stack []string
	nanos int64
}

var errProfile = errors.New("malformed CPU profile")

// field reads one protobuf field: its number, wire type, varint value (wire
// type 0) or bytes (wire type 2), and the rest of the message.
func field(b []byte) (num int, wire int, v uint64, data, rest []byte, err error) {
	key, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, 0, nil, nil, errProfile
	}
	b = b[n:]
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, n = binary.Uvarint(b)
		if n <= 0 {
			return 0, 0, 0, nil, nil, errProfile
		}
		return num, wire, v, nil, b[n:], nil
	case 2:
		l, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < l {
			return 0, 0, 0, nil, nil, errProfile
		}
		return num, wire, 0, b[n : n+int(l)], b[n+int(l):], nil
	case 1:
		if len(b) < 8 {
			return 0, 0, 0, nil, nil, errProfile
		}
		return num, wire, 0, nil, b[8:], nil
	case 5:
		if len(b) < 4 {
			return 0, 0, 0, nil, nil, errProfile
		}
		return num, wire, 0, nil, b[4:], nil
	}
	return 0, 0, 0, nil, nil, errProfile
}

// each calls fn for every field of msg.
func each(msg []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(msg) > 0 {
		num, wire, v, data, rest, err := field(msg)
		if err != nil {
			return err
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
		msg = rest
	}
	return nil
}

// varints appends a repeated integer field's values, packed or not.
func varints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProfile
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// parseCPUProfile decodes a runtime/pprof CPU profile into its samples.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var samples []rawSample
	var strs []string
	funcName := map[uint64]uint64{}   // function id -> name string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	err = each(raw, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample: location_id = 1, value = 2
			var s rawSample
			err := each(data, func(num, wire int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = varints(s.locs, wire, v, data)
				case 2:
					s.values, err = varints(s.values, wire, v, data)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location: id = 1, line = 4 { function_id = 1 }
			var id uint64
			var funcs []uint64
			err := each(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return each(data, func(num, wire int, v uint64, data []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			err := each(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errProfile
		}
		cs := cpuSample{nanos: int64(s.values[len(s.values)-1])} // [count, cpu nanoseconds]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[idx])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// pkgOf names the package a profiled function belongs to, with the module's
// own prefix dropped: "repro/internal/engine.(*queue).pop" is "engine".
func pkgOf(fn string) string {
	fn = strings.TrimPrefix(fn, "repro/internal/")
	if slash := strings.LastIndex(fn, "/"); slash >= 0 {
		if dot := strings.Index(fn[slash:], "."); dot >= 0 {
			return fn[:slash+dot]
		}
		return fn
	}
	if dot := strings.Index(fn, "."); dot >= 0 {
		return fn[:dot]
	}
	return fn
}

// fold attributes every sample's CPU time to the package of its leaf
// function (each nanosecond to exactly one package) and returns the shares,
// plus the share of samples with a function containing each of cum anywhere
// on the stack.
func fold(samples []cpuSample, cum ...string) (flat map[string]float64, cumShare map[string]float64) {
	flat, cumShare = map[string]float64{}, map[string]float64{}
	var total float64
	for _, s := range samples {
		if len(s.stack) == 0 {
			continue
		}
		ns := float64(s.nanos)
		total += ns
		flat[pkgOf(s.stack[0])] += ns
		for _, want := range cum {
			for _, fn := range s.stack {
				if strings.Contains(fn, want) {
					cumShare[want] += ns
					break
				}
			}
		}
	}
	if total == 0 {
		return nil, nil
	}
	for k := range flat {
		flat[k] /= total
	}
	for k := range cumShare {
		cumShare[k] /= total
	}
	return flat, cumShare
}
