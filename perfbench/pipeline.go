package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"time"

	"aquavol/internal/ais"
	"aquavol/internal/aisverify"
	"aquavol/internal/analysis"
	"aquavol/internal/aquacore"
	"aquavol/internal/budget"
	"aquavol/internal/certify"
	"aquavol/internal/codegen"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/diag"
	"aquavol/internal/faults"
	"aquavol/internal/journal"
	"aquavol/internal/lang"
	"aquavol/internal/lang/elab"
	"aquavol/internal/lp"
	recovery "aquavol/internal/recover"
)

// assay is one input program of a compile workload.
type assay struct {
	name string
	src  string
	// reservoirs is the chip's reservoir count for codegen (0 = the
	// 64-reservoir default).
	reservoirs int
}

// compiled is what the fluidc -lint pipeline produces for one assay.
type compiled struct {
	ep      *elab.Program
	graph   *dag.Graph // the managed graph the program was generated from
	plan    *core.Plan // nil for staged assays
	usedLP  bool
	cg      *codegen.Result
	listing string
	// hashes holds certify.PlanHash of every certified plan, in order.
	hashes []uint32
}

// compile runs the fluidc -lint pipeline on a: lang.Compile →
// analysis.Analyze → core.Manage (or NewStagedPlan + SolveStatic for
// assays with run-time volumes) → certify.CheckPlan → codegen.Generate +
// VolumeTable → aisverify.Verify. Each layer call is one span on tr.
func compile(a assay, tr *tracer) (*compiled, error) {
	s := tr.begin("lang")
	ep, err := lang.Compile(a.src)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: lang: %w", a.name, err)
	}
	tr.add("lang.nodes", float64(len(ep.Graph.Nodes())))
	cfg := core.DefaultConfig()

	s = tr.begin("analysis")
	findings, err := analysis.Analyze(ep, cfg, analysis.Options{})
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: analysis: %w", a.name, err)
	}
	if findings.HasErrors() {
		return nil, fmt.Errorf("%s: lint errors: %v", a.name, findings)
	}

	// The traced run charges the solver to an unlimited meter, so
	// core.work counts its deterministic work units.
	coreCfg := cfg
	var meter *budget.Meter
	if tr != nil {
		meter = budget.New(0)
		coreCfg.Budget = meter
	}
	c := &compiled{ep: ep, graph: ep.Graph}
	var toCertify []*core.Plan
	var avails []core.Availability
	s = tr.begin("core")
	if hasRuntimeVolumes(ep.Graph) {
		var done []int
		sp, err := core.NewStagedPlan(ep.Graph, coreCfg)
		if err == nil {
			done, err = sp.SolveStatic()
		}
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("%s: staged plan: %w", a.name, err)
		}
		for _, i := range done {
			if p := sp.Plans[i]; p != nil && p.Feasible() {
				toCertify = append(toCertify, p)
				avails = append(avails, sp.PartAvailability(i, nil))
			}
		}
	} else {
		res, err := core.Manage(ep.Graph, coreCfg, core.ManageOptions{})
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("%s: manage: %w", a.name, err)
		}
		c.graph, c.plan, c.usedLP = res.Graph, res.Plan, res.UsedLP
		toCertify = append(toCertify, res.Plan)
		avails = append(avails, core.StaticAvailability(cfg))
		tr.add("core.attempts", float64(res.Attempts))
		tr.add("core.transforms", float64(len(res.Transforms)))
	}
	tr.add("core.work", float64(meter.Used()))

	s = tr.begin("certify")
	for i, p := range toCertify {
		if err = certify.CheckPlan(p, cfg, avails[i]); err != nil {
			break
		}
	}
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: certify: %w", a.name, err)
	}
	for _, p := range toCertify {
		c.hashes = append(c.hashes, certify.PlanHash(p))
	}

	s = tr.begin("codegen")
	var tab ais.VolumeTable
	c.cg, err = codegen.Generate(ep, c.graph, codegen.Config{NumReservoirs: a.reservoirs, NoForwarding: c.usedLP})
	if err == nil && c.plan != nil {
		tab, err = c.cg.VolumeTable(func(edge int) (float64, bool) {
			if edge < 0 || edge >= len(c.plan.EdgeVolume) {
				return 0, false
			}
			return c.plan.EdgeVolume[edge], true
		})
	}
	if err == nil {
		c.listing = c.cg.Prog.String()
	}
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: codegen: %w", a.name, err)
	}
	tr.add("codegen.reservoirs", float64(c.cg.MaxLiveReservoirs))

	opts := aisverify.Options{Volumes: tab, UnknownVolumes: c.plan == nil}
	for name := range codegen.DryInit(ep) {
		opts.DefinedRegs = append(opts.DefinedRegs, name)
	}
	if c.plan != nil {
		opts.NodeVolume = aquacore.PlanSource{Plan: c.plan}.NodeVolume
	}
	s = tr.begin("aisverify")
	vf := aisverify.Verify(c.cg.Prog, opts)
	tr.end(s)
	tr.add("aisverify.instrs", float64(len(c.cg.Prog.Instrs)))
	if vf.HasErrors() {
		return nil, fmt.Errorf("%s: aisverify: %v", a.name, errorsOnly(vf))
	}
	return c, nil
}

func hasRuntimeVolumes(g *dag.Graph) bool {
	for _, n := range g.Nodes() {
		if n != nil && n.Unknown && !n.IsLeaf() {
			return true
		}
	}
	return false
}

func errorsOnly(l diag.List) diag.List {
	var out diag.List
	for _, d := range l {
		if d.Severity == diag.Error {
			out = append(out, d)
		}
	}
	return out
}

// probeLP re-solves the LP of a plan that came from the LP fallback,
// through core.Formulate + (*Formulation).Solve on the final managed
// graph, and records the lp.* metrics. DAGSolve plans record nothing:
// their op never enters the LP layer.
func probeLP(c *compiled, tr *tracer) error {
	if !c.usedLP {
		return nil
	}
	cfg := core.DefaultConfig()
	meter := budget.New(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := tr.begin("lp")
	f, err := core.Formulate(c.graph, cfg, core.FormulateOptions{}, core.StaticAvailability(cfg))
	var p *core.Plan
	if err == nil {
		p, err = f.Solve(lp.Options{Budget: meter})
	}
	tr.end(s)
	runtime.ReadMemStats(&after)
	if err != nil {
		return fmt.Errorf("lp probe: %w", err)
	}
	if certify.PlanHash(p) != certify.PlanHash(c.plan) {
		return fmt.Errorf("lp probe: re-solved plan differs from the managed plan")
	}
	rows := f.Prob.NumConstraints()
	for v := 0; v < f.Prob.NumVariables(); v++ {
		// The dense simplex turns every finite upper bound into a row.
		if _, hi := f.Prob.Bounds(lp.VarID(v)); !math.IsInf(hi, 1) {
			rows++
		}
	}
	tr.add("lp.pivots", float64(meter.Used()))
	tr.add("lp.rows", float64(rows))
	tr.add("lp.cols", float64(f.Prob.NumVariables()))
	tr.add("lp.alloc_kb", float64(after.TotalAlloc-before.TotalAlloc)/1024)
	return nil
}

// newMachine builds a fresh aquacore machine for c, as fluidvm does, with
// fault injector inj (nil for ideal fluidics).
func (c *compiled) newMachine(inj *faults.Injector) (*aquacore.Machine, error) {
	var src aquacore.VolumeSource = aquacore.PlanSource{Plan: c.plan}
	if c.plan == nil {
		sp, err := core.NewStagedPlan(c.ep.Graph, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		ss, err := aquacore.NewStagedSource(sp, nil)
		if err != nil {
			return nil, err
		}
		src = ss
	}
	m := aquacore.New(aquacore.Config{Faults: inj}, c.graph, src)
	m.SetDry(codegen.DryInit(c.ep))
	return m, nil
}

// simulate runs c's program once on an ideal machine and requires it to
// finish event-free.
func (c *compiled) simulate() (*aquacore.Result, error) {
	m, err := c.newMachine(nil)
	if err != nil {
		return nil, err
	}
	res, err := m.Run(c.cg.Prog)
	if err != nil {
		return nil, err
	}
	if !res.Clean() {
		return nil, fmt.Errorf("clean simulation raised %d volume events, first: %s", len(res.Events), res.Events[0])
	}
	return res, nil
}

// runResult is one recovered, journaled run.
type runResult struct {
	out     *recovery.Outcome
	journal []byte // valid until the next run on the same runner
}

// recoverRunner executes fluidvm -recover -replan -journal runs of one
// compiled assay under a fault profile, journaling to memory.
type recoverRunner struct {
	c       *compiled
	prof    faults.Profile
	begin   journal.Begin
	buf     bytes.Buffer
	sinkDur time.Duration
}

func newRecoverRunner(c *compiled, prof faults.Profile) *recoverRunner {
	return &recoverRunner{c: c, prof: prof, begin: journal.Begin{
		Program:       c.ep.Name,
		Hash:          crc32.ChecksumIEEE([]byte(c.listing)),
		Instrs:        len(c.cg.Prog.Instrs),
		Profile:       prof,
		Yield:         0.4,
		Retries:       3,
		SnapshotEvery: 8,
		Replan:        true,
		CertHash:      c.hashes[0],
	}}
}

// run executes one recovered run with fault seed seed. With journaled
// false it runs the same seeded run without a journal. Spans go to tr;
// under tr the journal sink is timed into journal.sink_ms.
func (r *recoverRunner) run(seed int64, journaled bool, tr *tracer) (*runResult, error) {
	m, err := r.c.newMachine(faults.New(r.prof, seed))
	if err != nil {
		return nil, err
	}
	opts := recovery.Options{RetriesPerInstr: 3, SnapshotEvery: 8, EnableReplan: true}
	if journaled {
		r.buf.Reset()
		var sink io.Writer = &r.buf
		if tr != nil {
			r.sinkDur = 0
			sink = timedWriter{w: &r.buf, d: &r.sinkDur}
		}
		jw, err := journal.NewWriter(sink)
		if err != nil {
			return nil, err
		}
		b := r.begin
		b.Seed = seed
		if err := jw.Append(&journal.Record{Kind: journal.KindBegin, Begin: &b}); err != nil {
			return nil, err
		}
		opts.Journal = jw
	}
	s := tr.begin("recover")
	out := recovery.Run(m, r.c.cg.Prog, &recovery.Compiled{Graph: r.c.graph, Clusters: r.c.cg.Clusters, VesselOf: r.c.cg.VesselOf}, opts)
	tr.end(s)
	res := &runResult{out: out}
	if journaled {
		res.journal = r.buf.Bytes()
		tr.add("journal.sink_ms", float64(r.sinkDur)/1e6)
	}
	return res, nil
}

// timedWriter adds the time spent in each Write to *d.
type timedWriter struct {
	w io.Writer
	d *time.Duration
}

func (t timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.w.Write(p)
	*t.d += time.Since(t0)
	return n, err
}
