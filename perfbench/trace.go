package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"
)

// span is one host-time interval around a call into a layer, recorded
// from the benchmark's side of the call.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the enclosing span, -1 at top level
	Op      int    `json:"op"`     // op index within the op list, -1 outside ops
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs use it.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, StartNs: time.Since(t.t0).Nanoseconds(), Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// hostModules are the repository modules host_share.* reports; CPU in
// any other module, in the runtime with no repository caller, or in the
// benchmark itself counts as "other".
var hostModules = []string{
	"mpi", "collective", "graph", "rmat", "xrand", "bitmap", "wire",
	"bfs", "bfs2d", "msbfs", "omp", "simnet", "graph500", "other",
}

// profiler collects CPU profiles of the traced parts of a run.
type profiler struct {
	profiles [][]byte
	buf      *bytes.Buffer
}

func (p *profiler) start() error {
	p.buf = &bytes.Buffer{}
	return pprof.StartCPUProfile(p.buf)
}

func (p *profiler) stop() {
	pprof.StopCPUProfile()
	p.profiles = append(p.profiles, p.buf.Bytes())
}

// shares charges every CPU sample to the module of the sample's
// innermost repository frame, so runtime work such as selectgo and
// lock2 lands on the layer that called it, and returns each module's
// share of the total.
func (p *profiler) shares() (map[string]float64, error) {
	listed := map[string]bool{}
	for _, m := range hostModules {
		listed[m] = true
	}
	cpu := map[string]float64{}
	var total float64
	for _, raw := range p.profiles {
		prof, err := decodeProfile(raw)
		if err != nil {
			return nil, err
		}
		for _, s := range prof.samples {
			mod := "other"
		stack:
			for _, loc := range s.locs {
				for _, fn := range prof.locFuncs[loc] {
					if m, ok := repoModule(prof.funcName(fn)); ok {
						if listed[m] {
							mod = m
						}
						break stack
					}
				}
			}
			cpu[mod] += float64(s.cpu)
			total += float64(s.cpu)
		}
	}
	out := map[string]float64{}
	for _, m := range hostModules {
		out[m] = 0
		if total > 0 {
			out[m] = cpu[m] / total
		}
	}
	return out, nil
}

// repoModule maps a function symbol such as
// "numabfs/internal/mpi.(*Proc).Send" to its module ("mpi").
func repoModule(fn string) (string, bool) {
	const prefix = "numabfs/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// profile is the part of a pprof profile host_share needs.
type profile struct {
	strings  []string
	funcs    map[uint64]int64    // function id -> name string index
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	samples  []sample
}

type sample struct {
	locs []uint64 // leaf first
	cpu  int64
	vals []int64
}

func (p *profile) funcName(id uint64) string {
	i := p.funcs[id]
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile parses the gzipped protocol-buffer profile runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto): sample types,
// samples, locations with their inlined lines, functions and strings.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{funcs: map[uint64]int64{}, locFuncs: map[uint64][]uint64{}}
	var sampleTypes []int64 // string index of each value's type
	err = eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return eachPacked(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachPacked(v, b, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	cpu := -1
	for i, t := range sampleTypes {
		if int(t) < len(p.strings) && p.strings[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	for i := range p.samples {
		if cpu < len(p.samples[i].vals) {
			p.samples[i].cpu = p.samples[i].vals[cpu]
		}
	}
	return p, nil
}

// eachField walks a protocol-buffer message, calling f with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := f(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
	}
	return nil
}

// eachPacked yields a repeated varint field's values, packed (data set)
// or one per field occurrence (v set).
func eachPacked(v uint64, data []byte, f func(uint64)) error {
	if data == nil {
		f(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		f(x)
		data = data[n:]
	}
	return nil
}
