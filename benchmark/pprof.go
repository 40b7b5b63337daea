package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cpuSample is one CPU profile sample: its stack as function names,
// innermost first (inlined callees before their callers), and the CPU
// time it stands for.
type cpuSample struct {
	stack   []string
	seconds float64
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes, reading only the fields attribution needs: sample_type (1),
// sample (2: location_id 1, value 2), location (4: id 1, line 4 →
// function_id 1), function (5: id 1, name 2) and string_table (6).
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		typeIdx   []uint64              // sample_type[i].type string index
		funcName  = map[uint64]uint64{} // function id → name string index
		locFuncs  = map[uint64][]uint64{}
		rawSample [][]byte
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2:
			rawSample = append(rawSample, b)
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, line []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(line, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
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
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuValue := -1
	for i, t := range typeIdx {
		if str(t) == "cpu" {
			cpuValue = i
		}
	}
	if cpuValue < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(rawSample))
	for _, b := range rawSample {
		var locs, vals []uint64
		err := fields(b, func(n int, v uint64, packed []byte) error {
			var dst *[]uint64
			switch n {
			case 1:
				dst = &locs
			case 2:
				dst = &vals
			default:
				return nil
			}
			if packed == nil {
				*dst = append(*dst, v)
				return nil
			}
			for i := 0; i < len(packed); {
				x, k := binary.Uvarint(packed[i:])
				if k <= 0 {
					return errors.New("bad packed varint")
				}
				*dst = append(*dst, x)
				i += k
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if cpuValue >= len(vals) {
			continue
		}
		s := cpuSample{seconds: float64(int64(vals[cpuValue])) / 1e9}
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				s.stack = append(s.stack, str(funcName[f]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value (b == nil) or its length-delimited bytes.
// Fixed-width fields are skipped; profile.proto uses none of them here.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for i := 0; i < len(msg); {
		key, n := binary.Uvarint(msg[i:])
		if n <= 0 {
			return errors.New("bad field key")
		}
		i += n
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg[i:]); n <= 0 {
				return errors.New("bad varint")
			}
			i += n
		case 1:
			if len(msg)-i < 8 {
				return errors.New("short fixed64")
			}
			i += 8
			continue
		case 2:
			l, n := binary.Uvarint(msg[i:])
			if n <= 0 || uint64(len(msg)-i-n) < l {
				return errors.New("bad length")
			}
			i += n
			b = msg[i : i+int(l)] // non-nil even when empty: msg is non-empty
			i += int(l)
		case 5:
			if len(msg)-i < 4 {
				return errors.New("short fixed32")
			}
			i += 4
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
