package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShare attributes CPU-profile time to code the benchmark cannot
// wrap. A sample counts toward a category when any frame of its stack,
// inlined frames included, has one of the category's name prefixes.
type cpuShare struct {
	name     string
	prefixes []string
}

var cpuShares = []cpuShare{
	{"core", []string{"saath/internal/core."}},
	{"fabric", []string{"saath/internal/fabric."}},
	{"contention", []string{"saath/internal/sched.(*ContentionIndex)."}},
	{"audit", []string{"saath/internal/sim.(*engine).validateAllocation", "saath/internal/sim.(*engine).validateFilled"}},
}

// attributeCPU decodes a gzipped pprof CPU profile and returns the CPU
// seconds per cpuShares category, plus the profile's total.
func attributeCPU(gz []byte) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	funcName := func(id uint64) string {
		if i := p.funcNames[id]; i >= 0 && int(i) < len(p.strings) {
			return p.strings[i]
		}
		return ""
	}
	out := make(map[string]float64, len(cpuShares))
	var total float64
	for _, s := range p.samples {
		secs := float64(s.cpuNanos) / 1e9
		total += secs
		for _, cat := range cpuShares {
			if stackMatches(p, s.locations, funcName, cat.prefixes) {
				out[cat.name] += secs
			}
		}
	}
	return out, total, nil
}

func stackMatches(p *profile, locs []uint64, funcName func(uint64) string, prefixes []string) bool {
	for _, l := range locs {
		for _, fn := range p.locFuncs[l] {
			name := funcName(fn)
			for _, pre := range prefixes {
				if strings.HasPrefix(name, pre) {
					return true
				}
			}
		}
	}
	return false
}

// profile holds the parts of a pprof profile.proto message the
// attribution needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id → function ids (inlined frames included)
	funcNames map[uint64]int64    // function id → string-table index
	strings   []string
}

type sample struct {
	locations []uint64
	cpuNanos  int64
}

// Field numbers of profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, body []byte) error {
		switch num {
		case profSample:
			var s sample
			var values []uint64
			err := eachField(body, func(num int, v uint64, body []byte) error {
				switch num {
				case sampleLocation:
					s.locations = appendVarints(s.locations, v, body)
				case sampleValue:
					values = appendVarints(values, v, body)
				}
				return nil
			})
			// A Go CPU profile's values are (sample count, CPU ns).
			if len(values) >= 2 {
				s.cpuNanos = int64(values[1])
			}
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var funcs []uint64
			err := eachField(body, func(num int, v uint64, body []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(body, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case profFunction:
			var id uint64
			var name int64 = -1
			err := eachField(body, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(body))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field's values, whether the
// field was written packed (body set) or as a single varint.
func appendVarints(dst []uint64, v uint64, body []byte) []uint64 {
	if body == nil {
		return append(dst, v)
	}
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		body = body[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited body
// (non-nil, possibly empty). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, body); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}
