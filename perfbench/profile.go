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

// layers are the repository's modules on the path of one simulation run, in
// the order the report prints them. runtime collects samples with no model
// frame on the stack (garbage collection, the scheduler).
var layers = []string{
	"sim", "cpu", "cache", "tlb",
	"core.frontend", "core.backend", "core.copier",
	"schemes", "dram", "osmem", "workload", "metrics", "system", "runtime",
}

// layerOf names the layer a profile frame's function belongs to, or ""
// when the frame is not a layer frame and the fold should keep walking
// toward the root. Helper packages (mem, check, replacement) have no layer
// of their own: their samples go to the model code that called them, as do
// map and allocation helpers in the Go runtime. Package core holds three
// layers, told apart by the receiver.
func layerOf(fn string) string {
	const prefix = "nomad/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return ""
	}
	pkg, name := rest[:dot], rest[dot+1:]
	switch pkg {
	case "core":
		switch {
		case strings.Contains(name, "Frontend") || strings.Contains(name, "mutexSim") || strings.Contains(name, "fwalkOp"):
			return "core.frontend"
		case strings.Contains(name, "Copier"):
			return "core.copier"
		default:
			return "core.backend"
		}
	case "sim", "cpu", "cache", "tlb", "schemes", "dram", "osmem", "workload", "metrics", "system":
		return pkg
	}
	return ""
}

// foldProfile decodes a gzipped pprof CPU profile and charges each sample
// to the first layer frame found walking from the leaf toward the root
// (inlined frames included, innermost first). It returns the sample count
// per layer and the total.
func foldProfile(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	funcLayer := make(map[uint64]string, len(p.funcName))
	for id, nameIdx := range p.funcName {
		if nameIdx < 0 || nameIdx >= int64(len(p.strings)) {
			return nil, 0, fmt.Errorf("profile: function %d names string %d of %d", id, nameIdx, len(p.strings))
		}
		funcLayer[id] = layerOf(p.strings[nameIdx])
	}
	out := make(map[string]int64, len(layers))
	var total int64
	for _, s := range p.samples {
		layer := "runtime"
	walk:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := funcLayer[fn]; l != "" {
					layer = l
					break walk
				}
			}
		}
		out[layer] += s.count
		total += s.count
	}
	return out, total, nil
}

// profile is the part of a pprof profile the fold needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64    // the first sample value: the number of samples
}

// decodeProfile reads the fields of profile.proto (github.com/google/pprof)
// the fold uses: Profile.sample (2), .location (4), .function (5) and
// .string_table (6); Sample.location_id (1) and .value (2); Location.id (1)
// and .line (4); Line.function_id (1); Function.id (1) and .name (2).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s profSample
			first := true
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					return eachVarint(wire, v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(wire, v, data, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(data, func(num int, wire int, v uint64, data []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's number
// and wire type and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped: no field the fold reads uses them.
func eachField(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated integer field's values, which the encoder
// may write packed (wire type 2) or one per field (wire type 0).
func eachVarint(wire int, v uint64, data []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
