package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"time"

	"aquavol/internal/assays"
	"aquavol/internal/faults"
	"aquavol/internal/journal"
	recovery "aquavol/internal/recover"
)

// opOut carries what one op contributes to the deterministic end-to-end
// metrics.
type opOut struct {
	instrs    float64 // instructions of the generated code
	wetS      float64 // simulated fluidic seconds
	reagentNl float64 // fluid drawn from input ports
	completed float64 // 1 when the op's run completed (degraded or not)
}

// runner executes one workload after its setup. The loop calls op (the
// timed interval), then check, then — in the traced run only — probe.
type runner interface {
	// window is the number of distinct op inputs: op i repeats the input
	// of op i%window, and the deterministic metrics average the first
	// window ops.
	window() int
	op(i int, tr *tracer) error
	// check validates op i's outputs against the references made in
	// setup.
	check(i int) (opOut, error)
	// probe records the traced-only side measurements of op i, outside
	// the op span.
	probe(i int, tr *tracer) error
}

// workload is one named benchmark input set.
type workload struct {
	name  string
	setup func(seed int64) (runner, error)
	// verify is the coverage check on the traced run's per-layer
	// metrics: the layers the workload is meant to stress did the work.
	verify func(m map[string]float64) error
}

var workloads = []workload{
	{
		name: "compile-dagsolve",
		setup: func(seed int64) (runner, error) {
			return newCompileRunner(seed, []assay{
				{name: "glucose", src: assays.GlucoseSource},
				{name: "glycomics", src: assays.GlycomicsSource},
				{name: "enzyme2", src: assays.EnzymeSource(2)},
				{name: "enzyme3", src: assays.EnzymeSource(3)},
			})
		},
		verify: func(m map[string]float64) error {
			if m["lp.pivots"] != 0 {
				return fmt.Errorf("lp.pivots = %v, want 0: an assay left the DAGSolve path", m["lp.pivots"])
			}
			return checkCoverage(m)
		},
	},
	{
		name: "compile-lp",
		setup: func(seed int64) (runner, error) {
			// The LP plan keeps about 150 fluids live at once, more than
			// the 64-reservoir default chip holds.
			return newCompileRunner(seed, []assay{{name: "enzyme4", src: assays.EnzymeSource(4), reservoirs: 256}})
		},
		verify: func(m map[string]float64) error {
			if m["lp.pivots"] <= 0 {
				return fmt.Errorf("lp.pivots = %v, want > 0: the LP fallback did not run", m["lp.pivots"])
			}
			return checkCoverage(m)
		},
	},
	{
		name:  "run-recover",
		setup: newRecoverWorkload,
		verify: func(m map[string]float64) error {
			if m["recover.replans"] <= 0 || m["journal.bytes"] <= 0 {
				return fmt.Errorf("recover.replans = %v, journal.bytes = %v, want both > 0",
					m["recover.replans"], m["journal.bytes"])
			}
			return nil
		},
	},
}

// minCoverage is the share of each compile op its layer spans must
// explain, so that per-layer times account for the end-to-end time.
const minCoverage = 0.9

func checkCoverage(m map[string]float64) error {
	if cover := m["trace.coverage"]; cover < minCoverage {
		return fmt.Errorf("layer spans cover %.3f of the op span, want >= %v", cover, minCoverage)
	}
	return nil
}

// reference is an assay's first compile, which every later compile must
// reproduce, plus its clean simulation.
type reference struct {
	listing   string
	hashes    []uint32
	instrs    int
	wetS      float64
	reagentNl float64
}

// compileRunner: one op runs the fluidc -lint pipeline once on each
// assay, in an order shuffled per op from the workload seed.
type compileRunner struct {
	assays []assay
	refs   []reference
	rng    *rand.Rand
	last   []*compiled
}

func newCompileRunner(seed int64, as []assay) (*compileRunner, error) {
	r := &compileRunner{assays: as, rng: rand.New(rand.NewSource(seed)), last: make([]*compiled, len(as))}
	for _, a := range as {
		c, err := compile(a, nil)
		if err != nil {
			return nil, err
		}
		res, err := c.simulate()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
		r.refs = append(r.refs, reference{listing: c.listing, hashes: c.hashes,
			instrs: len(c.cg.Prog.Instrs), wetS: res.WetSeconds, reagentNl: res.InputNl})
	}
	return r, nil
}

func (r *compileRunner) window() int { return 1 }

func (r *compileRunner) op(_ int, tr *tracer) error {
	for _, k := range r.rng.Perm(len(r.assays)) {
		tr.setAssay(r.assays[k].name)
		c, err := compile(r.assays[k], tr)
		if err != nil {
			return err
		}
		r.last[k] = c
	}
	return nil
}

func (r *compileRunner) check(int) (opOut, error) {
	var out opOut
	for k, c := range r.last {
		ref := r.refs[k]
		if c.listing != ref.listing {
			return out, fmt.Errorf("%s: listing differs from the first compile", r.assays[k].name)
		}
		if !slices.Equal(c.hashes, ref.hashes) {
			return out, fmt.Errorf("%s: plan hashes %x, first compile %x", r.assays[k].name, c.hashes, ref.hashes)
		}
		out.instrs += float64(ref.instrs)
		out.wetS += ref.wetS
		out.reagentNl += ref.reagentNl
	}
	out.completed = 1
	return out, nil
}

func (r *compileRunner) probe(_ int, tr *tracer) error {
	for k, c := range r.last {
		tr.setAssay(r.assays[k].name)
		if err := probeLP(c, tr); err != nil {
			return fmt.Errorf("%s: %w", r.assays[k].name, err)
		}
	}
	return nil
}

// recoverWindow is the number of distinct fault seeds run-recover cycles
// through.
const recoverWindow = 128

// recoverWorkload: one op is one fluidvm -recover -replan -journal run
// of EnzymeSource(3) under the moderate fault preset, on a fresh
// machine, journaling to memory.
type recoverWorkload struct {
	rr       *recoverRunner
	seeds    []int64
	journals map[int]uint32 // CRC32 of each window slot's first journal
	last     *runResult
	lastSeed int64
}

func newRecoverWorkload(seed int64) (runner, error) {
	a := assay{name: "enzyme3", src: assays.EnzymeSource(3)}
	c, err := compile(a, nil)
	if err != nil {
		return nil, err
	}
	if _, err := c.simulate(); err != nil {
		return nil, fmt.Errorf("%s: %w", a.name, err)
	}
	prof, _ := faults.Preset("moderate")
	w := &recoverWorkload{rr: newRecoverRunner(c, prof), journals: map[int]uint32{}}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < recoverWindow; k++ {
		w.seeds = append(w.seeds, rng.Int63())
	}
	return w, nil
}

func (w *recoverWorkload) window() int { return recoverWindow }

func (w *recoverWorkload) op(i int, tr *tracer) error {
	w.lastSeed = w.seeds[i%recoverWindow]
	res, err := w.rr.run(w.lastSeed, true, tr)
	w.last = res
	return err
}

func (w *recoverWorkload) check(i int) (opOut, error) {
	recs, err := journal.ReadAll(bytes.NewReader(w.last.journal))
	if err != nil {
		return opOut{}, fmt.Errorf("journal read-back: %w", err)
	}
	if len(recs) < 2 || recs[0].Kind != journal.KindBegin || recs[len(recs)-1].Kind != journal.KindOutcome {
		return opOut{}, fmt.Errorf("journal has %d records without begin and outcome at its ends", len(recs))
	}
	sum := crc32.ChecksumIEEE(w.last.journal)
	if want, ok := w.journals[i%recoverWindow]; !ok {
		w.journals[i%recoverWindow] = sum
	} else if sum != want {
		return opOut{}, fmt.Errorf("journal of fault seed %d hashes %08x, its first run %08x", w.lastSeed, sum, want)
	}
	out := w.last.out
	var done float64
	if out.Status == recovery.Completed || out.Status == recovery.CompletedDegraded {
		done = 1
	}
	return opOut{instrs: float64(len(w.rr.c.cg.Prog.Instrs)), wetS: out.Result.WetSeconds,
		reagentNl: out.Result.InputNl, completed: done}, nil
}

func (w *recoverWorkload) probe(_ int, tr *tracer) error {
	out := w.last.out
	tr.add("journal.bytes", float64(len(w.last.journal)))
	tr.add("recover.replans", float64(out.Replans))
	tr.add("recover.regens", float64(out.Regens))
	tr.add("recover.retries", float64(out.Retries))
	tr.add("aquacore.instrs", float64(out.Result.WetInstrs+out.Result.DryInstrs))
	// The same seeded run without a journal: the op's journal cost is
	// the difference.
	t0 := time.Now()
	if _, err := w.rr.run(w.lastSeed, false, nil); err != nil {
		return err
	}
	tr.add("unjournaled.ms", msSince(t0))
	return nil
}
