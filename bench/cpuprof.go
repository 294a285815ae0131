package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// cpuPackages are the buckets a CPU sample can land in: the repo's
// packages by the last element of their import path, "rakis" for the
// root package, "bench" for this program, and "runtime" for samples
// with no module frame at all (GC workers, the scheduler).
var cpuPackages = []string{
	"ring", "umem", "xsk", "netstack", "fm", "sm", "mm", "iouring", "libos",
	"rakis", "mem", "vtime", "telemetry", "hostos", "netsim", "bench", "runtime",
}

// cpuShares reads a pprof CPU profile and returns, per bucket, the share
// of samples whose innermost module frame belongs to it. Runtime and
// standard-library time spent on a package's behalf (an allocation, a
// memmove, a map access) is thereby billed to the package that asked
// for it. Packages outside the list are folded into "rakis".
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(cpuPackages))
	for _, name := range cpuPackages {
		known[name] = true
	}
	// bucketOf[function id] is the function's bucket, "" for code
	// outside the module.
	bucketOf := make(map[uint64]string, len(p.funcName))
	for id, nameIdx := range p.funcName {
		if int(nameIdx) >= len(p.strings) {
			return nil, errors.New("cpu profile: function name outside the string table")
		}
		b := moduleBucket(p.strings[nameIdx])
		if b != "" && !known[b] {
			b = "rakis"
		}
		bucketOf[id] = b
	}
	counts := make(map[string]float64)
	var total float64
	for _, s := range p.samples {
		bucket := "runtime"
	stack:
		for _, loc := range s.locs { // leaf first
			for _, fn := range p.locFuncs[loc] { // innermost inlined call first
				if b := bucketOf[fn]; b != "" {
					bucket = b
					break stack
				}
			}
		}
		counts[bucket] += float64(s.count)
		total += float64(s.count)
	}
	shares := make(map[string]float64, len(cpuPackages))
	for _, name := range cpuPackages {
		shares[name] = 0 // a window too short to be sampled reports every share as 0
		if total > 0 {
			shares[name] = counts[name] / total
		}
	}
	return shares, nil
}

// moduleBucket maps a symbol such as "rakis/internal/xsk.(*Socket).Recv"
// to its package's bucket, or "" when the symbol is not the module's.
func moduleBucket(sym string) string {
	switch {
	case strings.HasPrefix(sym, "main."):
		return "bench"
	case strings.HasPrefix(sym, "rakis."):
		return "rakis"
	case !strings.HasPrefix(sym, "rakis/"):
		return ""
	}
	last := sym[strings.LastIndexByte(sym, '/')+1:] // "xsk.(*Socket).Recv"
	if i := strings.IndexByte(last, '.'); i >= 0 {
		return last[:i]
	}
	return last
}

// profileData is the part of a pprof profile cpuShares needs.
type profileData struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]uint64   // function id → string-table index
	strings  []string
}

type profSample struct {
	locs  []uint64
	count int64 // the first sample value: samples/count
}

var errProfile = errors.New("cpu profile: malformed protobuf")

// protoFields walks the fields of one protobuf message, calling f with
// each field number, its varint value (wire type 0) or its bytes (wire
// type 2). Fixed-width fields are skipped.
func protoFields(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errProfile
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProfile
			}
			if err := f(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			b = b[4:]
		default:
			return errProfile
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints appends the values of a repeated integer field, which
// arrives either one value at a time or packed into a byte string.
func repeatedVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return nil, errProfile
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// parseProfile decodes perftools.profiles.Profile: sample = 2 (location
// ids = 1, values = 2), location = 4 (id = 1, lines = 4 with function id
// = 1), function = 5 (id = 1, name = 2), string_table = 6.
func parseProfile(raw []byte) (*profileData, error) {
	p := &profileData{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]uint64)}
	err := protoFields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2:
			var s profSample
			var values []uint64
			err := protoFields(data, func(num int, v uint64, d []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = repeatedVarints(s.locs, v, d)
				case 2:
					values, err = repeatedVarints(values, v, d)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var funcs []uint64
			err := protoFields(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return protoFields(d, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5:
			var id, name uint64
			err := protoFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}
