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

// sample is one CPU profile record: how many profiler ticks hit its call
// stack, the CPU time they stand for, and the stack as function names,
// innermost frame first.
type sample struct {
	count, ns int64
	stack     []string
}

// repoPrefix is the import path prefix of the repository's modules.
const repoPrefix = "repro/internal/"

// otherModule is the bucket for samples with no repository frame: the
// garbage collector's workers, the scheduler and anything else of the Go
// runtime's own.
const otherModule = "runtime.other"

// moduleOf returns the repository module a function belongs to, or "" for
// a function outside repro/internal.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// attribution is CPU time per module over a set of samples.
type attribution struct {
	ns map[string]int64
	// samples counts profiler ticks, not records: the profile merges
	// ticks with identical stacks into one record.
	samples int64
}

// add bills each sample to the innermost repository module on its stack,
// so a map lookup made by linkstate bills to linkstate; a sample with no
// repository frame goes to otherModule. Every sample lands in exactly one
// bucket.
func (a *attribution) add(samples []sample) {
	if a.ns == nil {
		a.ns = map[string]int64{}
	}
	for _, s := range samples {
		mod := otherModule
		for _, fn := range s.stack {
			if m := moduleOf(fn); m != "" {
				mod = m
				break
			}
		}
		a.ns[mod] += s.ns
		a.samples += s.count
	}
}

// parseProfile decodes a gzipped pprof CPU profile as runtime/pprof writes
// it (the profile.proto wire format) into its samples.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	var (
		strs       []string
		valueTypes [][2]int64 // (type, unit) string indices
		rawSamples []rawSample
		funcName   = map[uint64]int64{}    // function ID -> name string index
		locFuncs   = map[uint64][]uint64{} // location ID -> function IDs, innermost first
	)
	err = walk(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := walk(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			valueTypes = append(valueTypes, vt)
			return err
		case 2: // sample
			var s rawSample
			err := walk(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, p)
				case 2:
					return appendVarints(&s.values, v, p)
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return walk(p, func(n int, v uint64, _ []byte) error {
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
		case 5: // function
			var id uint64
			var name int64
			err := walk(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	count, cpu := -1, -1
	for i, vt := range valueTypes {
		switch {
		case str(vt[0]) == "samples" && str(vt[1]) == "count":
			count = i
		case str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds":
			cpu = i
		}
	}
	if count < 0 || cpu < 0 {
		return nil, errors.New("profile: not a CPU profile")
	}
	out := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if count >= len(rs.values) || cpu >= len(rs.values) {
			return nil, errors.New("profile: sample with missing values")
		}
		s := sample{count: int64(rs.values[count]), ns: int64(rs.values[cpu])}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// rawSample is a sample as encoded: location IDs leaf first, and values.
type rawSample struct {
	locs, values []uint64
}

// walk calls fn for each field of a protobuf message with its number and
// either its varint value (wire type 0) or its payload (wire type 2).
// Fixed-width fields are skipped; the profile format uses none.
func walk(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value when
// the field arrived unpacked (payload nil), a packed run otherwise.
func appendVarints(dst *[]uint64, v uint64, payload []byte) error {
	if payload == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		payload = payload[n:]
	}
	return nil
}
