// Whole-pipeline property tests: random assay sources are generated,
// compiled, volume-managed, code-generated, and executed on the
// simulator. Any feasible plan must execute with zero volume events and
// preserve every mix's specified composition — this exercises the parser,
// elaborator, DAGSolve, codegen, and machine volume accounting together.
package aquavol

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"aquavol/internal/aquacore"
	"aquavol/internal/certify"
	"aquavol/internal/codegen"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/lang"
	"aquavol/internal/lp"
)

// randomAssay generates a random, statically-known assay source.
func randomAssay(r *rand.Rand) string {
	var b strings.Builder
	nIn := 2 + r.Intn(3)
	nOps := 2 + r.Intn(8)
	b.WriteString("ASSAY rnd START\n")
	b.WriteString("fluid ")
	var fluids []string
	for i := 0; i < nIn; i++ {
		f := fmt.Sprintf("in%d", i)
		fluids = append(fluids, f)
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f)
	}
	var derived []string
	for i := 0; i < nOps; i++ {
		derived = append(derived, fmt.Sprintf("d%d", i))
	}
	b.WriteString(", " + strings.Join(derived, ", ") + ";\n")
	fmt.Fprintf(&b, "VAR R[%d];\n", nOps)

	avail := append([]string(nil), fluids...)
	senses := 0
	for i := 0; i < nOps; i++ {
		switch r.Intn(4) {
		case 0, 1: // mix two distinct fluids
			a := avail[r.Intn(len(avail))]
			c := avail[r.Intn(len(avail))]
			for c == a {
				c = avail[r.Intn(len(avail))]
			}
			fmt.Fprintf(&b, "%s = MIX %s AND %s IN RATIOS %d:%d FOR %d;\n",
				derived[i], a, c, 1+r.Intn(9), 1+r.Intn(9), 5+r.Intn(20))
			avail = append(avail, derived[i])
		case 2: // incubate
			a := avail[r.Intn(len(avail))]
			fmt.Fprintf(&b, "%s = INCUBATE %s AT %d FOR %d;\n",
				derived[i], a, 30+r.Intn(40), 10+r.Intn(100))
			avail = append(avail, derived[i])
		case 3: // sense something
			a := avail[r.Intn(len(avail))]
			senses++
			fmt.Fprintf(&b, "SENSE OPTICAL %s INTO R[%d];\n", a, senses)
		}
	}
	// Ensure at least one sink so the DAG has an output.
	fmt.Fprintf(&b, "SENSE OPTICAL %s INTO R[%d];\n", avail[len(avail)-1], nOps)
	b.WriteString("END\n")
	return b.String()
}

func TestQuickPipelineCleanExecution(t *testing.T) {
	cfg := core.DefaultConfig()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := randomAssay(r)
		ep, err := lang.Compile(src)
		if err != nil {
			t.Logf("compile failed for:\n%s\n%v", src, err)
			return false
		}
		plan, err := core.DAGSolve(ep.Graph, cfg, nil)
		if err != nil {
			t.Logf("DAGSolve failed: %v", err)
			return false
		}
		if !plan.Feasible() {
			return true // deep random dilutions may legitimately underflow
		}
		cg, err := codegen.Generate(ep, ep.Graph, codegen.Config{})
		if err != nil {
			t.Logf("codegen failed: %v", err)
			return false
		}
		m := aquacore.New(aquacore.Config{}, ep.Graph, aquacore.PlanSource{Plan: plan})
		res, err := m.Run(cg.Prog)
		if err != nil {
			t.Logf("run failed for:\n%s\n%v", src, err)
			return false
		}
		if !res.Clean() {
			t.Logf("events for:\n%s\n%v", src, res.Events)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// composition computes each node's composition over input fluids from the
// DAG structure alone (edge fractions), for cross-checking transforms.
func composition(g *dag.Graph) map[int]map[string]float64 {
	comp := map[int]map[string]float64{}
	for _, n := range g.TopoOrder() {
		if n.IsSource() {
			comp[n.ID()] = map[string]float64{n.Name: 1}
			continue
		}
		c := map[string]float64{}
		for _, e := range n.In() {
			for k, v := range comp[e.From.ID()] {
				c[k] += e.Frac * v
			}
		}
		comp[n.ID()] = c
	}
	return comp
}

// Property: cascading preserves the final mixture's composition exactly —
// the whole point of replacing 1:R with staged mixes plus excess.
func TestQuickCascadePreservesComposition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		R := float64(50 + r.Intn(2000))
		levels := 2 + r.Intn(3)
		g := dag.New()
		a := g.AddInput("minor")
		b := g.AddInput("major")
		m := g.AddMix("mix", dag.Part{Source: a, Ratio: 1}, dag.Part{Source: b, Ratio: R})
		g.AddUnary(dag.Sense, "s", m)
		want := composition(g)[m.ID()]
		if err := g.Cascade(m, levels); err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		got := composition(g)[m.ID()]
		for k, v := range want {
			if math.Abs(got[k]-v) > 1e-9 {
				t.Logf("R=%v levels=%d: component %s = %v, want %v", R, levels, k, got[k], v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: replication preserves every consumer's composition (replicas
// are perfect stand-ins for the original fluid).
func TestQuickReplicationPreservesComposition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := dag.New()
		a := g.AddInput("a")
		b := g.AddInput("b")
		x := g.AddMix("x", dag.Part{Source: a, Ratio: float64(1 + r.Intn(5))},
			dag.Part{Source: b, Ratio: float64(1 + r.Intn(5))})
		var sinks []*dag.Node
		for i := 0; i < 2+r.Intn(6); i++ {
			m := g.AddMix("m", dag.Part{Source: x, Ratio: 1}, dag.Part{Source: b, Ratio: 2})
			g.AddUnary(dag.Sense, "s", m)
			sinks = append(sinks, m)
		}
		want := map[int]map[string]float64{}
		comps := composition(g)
		for _, s := range sinks {
			want[s.ID()] = comps[s.ID()]
		}
		if _, err := g.Replicate(x, 2+r.Intn(3), nil); err != nil {
			return false
		}
		comps = composition(g)
		for _, s := range sinks {
			for k, v := range want[s.ID()] {
				if math.Abs(comps[s.ID()][k]-v) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Manage never returns an infeasible plan, and its transforms
// leave mixture compositions of surviving original nodes unchanged.
func TestQuickManageSoundness(t *testing.T) {
	cfg := core.DefaultConfig()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := dag.New()
		a := g.AddInput("a")
		b := g.AddInput("b")
		// A random two-stage dilution ladder with occasional extreme
		// ratios to provoke cascading.
		ratio := []float64{9, 99, 999, 4999}[r.Intn(4)]
		d1 := g.AddMix("d1", dag.Part{Source: a, Ratio: 1}, dag.Part{Source: b, Ratio: ratio})
		uses := 1 + r.Intn(16)
		for i := 0; i < uses; i++ {
			m := g.AddMix("m", dag.Part{Source: d1, Ratio: 1}, dag.Part{Source: b, Ratio: 1})
			g.AddUnary(dag.Sense, "s", m)
		}
		res, err := core.Manage(g, cfg, core.ManageOptions{SkipLP: true})
		if err != nil {
			// Unmanageable is acceptable for the harshest draws; a nil
			// result with error is the contract.
			return res == nil || res.Plan == nil || !res.Plan.Feasible()
		}
		if !res.Plan.Feasible() {
			return false
		}
		// The original graph must be untouched.
		return g.NumNodes() == 3+2*uses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// dilutionLadder builds a two-stage dilution of a into b at 1:ratio whose
// product feeds uses further mixes, each sensed.
func dilutionLadder(ratio float64, uses int) *dag.Graph {
	g := dag.New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	d1 := g.AddMix("d1", dag.Part{Source: a, Ratio: 1}, dag.Part{Source: b, Ratio: ratio})
	for i := 0; i < uses; i++ {
		m := g.AddMix("m", dag.Part{Source: d1, Ratio: 1}, dag.Part{Source: b, Ratio: 1})
		g.AddUnary(dag.Sense, "s", m)
	}
	return g
}

// outputSum is the RVol objective of a plan: the volume reaching the real
// outputs (leaves that are neither sources nor excess).
func outputSum(p *core.Plan) float64 {
	sum := 0.0
	for _, n := range p.Graph.Nodes() {
		if n != nil && n.IsLeaf() && n.Kind != dag.Excess && !n.IsSource() {
			for _, e := range n.In() {
				sum += p.EdgeVolume[e.ID()]
			}
		}
	}
	return sum
}

// Differential oracle from §3.3: DAGSolve solves an over-constrained RVol
// (every output gets the same volume and every edge its fixed share), so a
// feasible DAGSolve plan is a feasible point of the LP. Whenever DAGSolve
// is feasible the LP must therefore be optimal with at least DAGSolve's
// output volume, and every optimal LP plan must pass the independent
// certificate check. The cases are random assays and extreme-ratio
// dilution ladders (1:9 to 1:4999, up to 16 uses).
func TestDAGSolveBoundsLP(t *testing.T) {
	cfg := core.DefaultConfig()
	var dagFeasible, lpOptimal, lpInfeasible, lpOnly int
	for seed := int64(1); seed <= 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		var g *dag.Graph
		if seed%2 == 0 {
			src := randomAssay(r)
			ep, err := lang.Compile(src)
			if err != nil {
				t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
			}
			g = ep.Graph
		} else {
			g = dilutionLadder([]float64{9, 99, 999, 4999}[r.Intn(4)], 1+r.Intn(16))
		}
		dp, err := core.DAGSolve(g, cfg, nil)
		if err != nil {
			t.Fatalf("seed %d: DAGSolve: %v", seed, err)
		}
		lpPlan, err := core.SolveLP(g, cfg, core.FormulateOptions{}, nil)
		switch {
		case errors.Is(err, core.ErrLPInfeasible):
			lpInfeasible++
			if dp.Feasible() {
				t.Errorf("seed %d: DAGSolve is feasible but the LP is infeasible", seed)
			}
			continue
		case err != nil:
			t.Fatalf("seed %d: SolveLP: %v", seed, err)
		}
		lpOptimal++
		if err := certify.CheckPlan(lpPlan, cfg, nil); err != nil {
			t.Errorf("seed %d: LP plan fails certification: %v", seed, err)
		}
		if !dp.Feasible() {
			lpOnly++
			continue
		}
		dagFeasible++
		lpObj, dagObj := outputSum(lpPlan), outputSum(dp)
		if lpObj < dagObj-lp.ObjectiveRelTol*(1+math.Abs(lpObj)) {
			t.Errorf("seed %d: LP output %v below DAGSolve's %v", seed, lpObj, dagObj)
		}
	}
	t.Logf("%d DAGSolve-feasible, %d LP optimal, %d LP infeasible, %d rescued by the LP only",
		dagFeasible, lpOptimal, lpInfeasible, lpOnly)
	if dagFeasible == 0 || lpInfeasible == 0 || lpOnly == 0 {
		t.Errorf("oracle exercised too little: %d DAGSolve-feasible, %d LP infeasible, %d LP-only",
			dagFeasible, lpInfeasible, lpOnly)
	}
}
