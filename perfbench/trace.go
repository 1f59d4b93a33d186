package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer of the pipeline.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Assay  string `json:"assay,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer records spans and counts in memory. A nil *tracer is the
// untraced path: every method is a no-op, so the timed code calls it
// unconditionally.
type tracer struct {
	epoch  time.Time
	spans  []span
	stack  []int
	op     int
	assay  string
	counts map[int]map[string]float64 // op -> count name -> value
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[int]map[string]float64{}}
}

// beginOp opens the root span of op i.
func (t *tracer) beginOp(i int) int {
	if t == nil {
		return -1
	}
	t.op = i
	t.assay = ""
	return t.begin("op")
}

// setAssay tags the spans opened from now on with the assay they serve.
func (t *tracer) setAssay(name string) {
	if t != nil {
		t.assay = name
	}
}

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Assay: t.assay,
		Start: int64(time.Since(t.epoch))})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// add accumulates v into the current op's count name.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	c := t.counts[t.op]
	if c == nil {
		c = map[string]float64{}
		t.counts[t.op] = c
	}
	c[name] += v
}

// layerMs sums, per op, the durations of every span that is not an op
// root, keyed by span name.
func (t *tracer) layerMs() map[int]map[string]float64 {
	out := map[int]map[string]float64{}
	for _, s := range t.spans {
		if s.Name == "op" {
			continue
		}
		m := out[s.Op]
		if m == nil {
			m = map[string]float64{}
			out[s.Op] = m
		}
		m[s.Name] += s.ms()
	}
	return out
}

// opMs returns each op's root-span duration, indexed by op.
func (t *tracer) opMs() map[int]float64 {
	out := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == "op" {
			out[s.Op] = s.ms()
		}
	}
	return out
}

// coverage is the share of op-root time covered by the op roots' direct
// children, over all ops: the part of each op the layer spans explain.
func (t *tracer) coverage() float64 {
	var root, covered float64
	for _, s := range t.spans {
		switch {
		case s.Name == "op":
			root += s.ms()
		case s.Parent >= 0 && t.spans[s.Parent].Name == "op":
			covered += s.ms()
		}
	}
	if root == 0 {
		return 0
	}
	return covered / root
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return f.Close()
}

// layerMedian is the median over ops of a per-op layer value; ops that
// never touched the layer count as zero.
func layerMedian(perOp map[int]map[string]float64, ops []int, name string) float64 {
	vals := make([]float64, 0, len(ops))
	for _, op := range ops {
		vals = append(vals, perOp[op][name])
	}
	return median(vals)
}

// sortedOps lists the op ids of a per-op map in order.
func sortedOps(m map[int]float64) []int {
	ops := make([]int, 0, len(m))
	for op := range m {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	return ops
}
