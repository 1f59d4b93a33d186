package core

import (
	"errors"
	"fmt"
	"math"

	"aquavol/internal/dag"
	"aquavol/internal/lp"
)

// inf is the open upper bound for LP variables.
var inf = math.Inf(1)

// FormulateOptions selects optional constraint sets for the RVol LP
// formulation (§3.2, Fig. 3).
type FormulateOptions struct {
	// FlowConservation adds DAGSolve's second artificial constraint to the
	// LP: non-deficit inequalities become equalities (used for the §4.3
	// ablation measuring whether the extra constraints alone explain
	// DAGSolve's speed).
	FlowConservation bool
	// EqualOutputs adds DAGSolve's first artificial constraint: all real
	// outputs receive equal volume. It replaces the softer
	// output-to-output skew bounds.
	EqualOutputs bool
}

// ConstraintCounts tallies the formulation's constraints by the paper's
// classes; Total is the "LP constraints" column of Table 2.
type ConstraintCounts struct {
	MinVolume      int // class 1: per-edge least-count minimums (+ FFU minimums)
	Capacity       int // class 2: per-node maximum capacity
	NonDeficit     int // class 3: uses cannot exceed production
	Ratio          int // class 4: inbound edges in the specified mix ratio
	OutputToInput  int // class 5: output volume as a fraction of input
	OutputToOutput int // optional: outputs within a skew band (or equal)
}

// Total is the total number of constraints across classes.
func (c ConstraintCounts) Total() int {
	return c.MinVolume + c.Capacity + c.NonDeficit + c.Ratio + c.OutputToInput + c.OutputToOutput
}

func (c ConstraintCounts) String() string {
	return fmt.Sprintf("min=%d cap=%d nondeficit=%d ratio=%d out2in=%d out2out=%d total=%d",
		c.MinVolume, c.Capacity, c.NonDeficit, c.Ratio, c.OutputToInput, c.OutputToOutput, c.Total())
}

// Formulation is an RVol linear program built from an assay DAG.
type Formulation struct {
	// Prob is the underlying linear program; solve it via Solve.
	Prob *lp.Problem
	// EdgeVar maps edge ids to their volume variables.
	EdgeVar []lp.VarID
	// SourceVar maps source-node ids to their produced-volume variables
	// (-1 for non-source nodes).
	SourceVar []lp.VarID
	// ProdVar maps node ids to explicit production variables for nodes
	// whose output is a fraction of input (-1 otherwise).
	ProdVar []lp.VarID
	// Counts tallies constraints by class.
	Counts ConstraintCounts

	graph *dag.Graph
	cfg   Config
}

// ErrLPInfeasible reports that the RVol LP admits no feasible volume
// assignment (underflow is unavoidable without transforming the DAG).
var ErrLPInfeasible = errors.New("core: LP formulation infeasible")

// Formulate builds the RVol LP for g: variables for every edge volume and
// every source's produced volume; constraint classes 1-5 of §3.2 plus the
// optional output-to-output bounds; objective maximizing the sum of real
// output volumes.
//
// Minimum-volume constraints are installed as variable lower bounds (their
// count still reported in Counts.MinVolume), which is how practical LP
// solvers treat them.
//
// avail resolves constrained-input availability; it may be nil when the
// graph has none. Unknown-volume nodes must be leaves (partition first).
func Formulate(g *dag.Graph, cfg Config, opts FormulateOptions, avail Availability) (*Formulation, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g.HasRuntimeVolumes() {
		return nil, ErrNeedsPartition
	}

	f := &Formulation{
		Prob:      lp.NewProblem(lp.Maximize),
		EdgeVar:   make([]lp.VarID, len(g.Edges())),
		SourceVar: make([]lp.VarID, len(g.Nodes())),
		ProdVar:   make([]lp.VarID, len(g.Nodes())),
		graph:     g,
		cfg:       cfg,
	}
	for i := range f.SourceVar {
		f.SourceVar[i] = -1
		f.ProdVar[i] = -1
	}

	// Class 1 via bounds: every routed volume is at least the least count.
	for _, e := range g.Edges() {
		if e == nil {
			continue
		}
		v := f.Prob.AddVariable(fmt.Sprintf("e%d_%s_to_%s", e.ID(), e.From.Name, e.To.Name))
		// Upper bounds are implied by the per-node capacity rows; leaving
		// them open keeps the simplex tableau free of redundant rows.
		f.Prob.SetBounds(v, cfg.LeastCount, inf)
		f.EdgeVar[e.ID()] = v
		f.Counts.MinVolume++
	}

	inSum := func(n *dag.Node) []lp.Term {
		terms := make([]lp.Term, 0, len(n.In()))
		for _, e := range n.In() {
			terms = append(terms, lp.Term{Var: f.EdgeVar[e.ID()], Coef: 1})
		}
		return terms
	}
	outSum := func(n *dag.Node) []lp.Term {
		terms := make([]lp.Term, 0, len(n.Out()))
		for _, e := range n.Out() {
			terms = append(terms, lp.Term{Var: f.EdgeVar[e.ID()], Coef: 1})
		}
		return terms
	}
	// Safety margin ε inflates the non-deficit constraints: production must
	// cover (1+ε)× the outbound draws, mirroring ComputeVnormsMargin.
	outSumMargin := func(n *dag.Node) []lp.Term {
		terms := outSum(n)
		if cfg.SafetyMargin > 0 {
			for i := range terms {
				terms[i].Coef *= 1 + cfg.SafetyMargin
			}
		}
		return terms
	}

	for _, n := range g.Nodes() {
		if n == nil {
			continue
		}
		id := n.ID()
		if n.IsSource() {
			cap := cfg.MaxCapacity
			if n.Kind == dag.ConstrainedInput {
				if avail == nil {
					return nil, fmt.Errorf("core: constrained input %v but no availability provided", n)
				}
				a, ok := avail(n)
				if !ok {
					return nil, fmt.Errorf("core: availability for constrained input %v unknown", n)
				}
				if a < cap {
					cap = a
				}
			}
			v := f.Prob.AddVariable(fmt.Sprintf("src_%s", n.Name))
			f.SourceVar[id] = v
			// Class 2 for sources: produced volume within capacity.
			f.Prob.AddConstraint(fmt.Sprintf("cap_%s", n.Name),
				[]lp.Term{{Var: v, Coef: 1}}, lp.LE, cap)
			f.Counts.Capacity++
			if !n.IsLeaf() {
				// Class 3: (1+ε)·Σ outbound ≤ produced.
				terms := append(outSumMargin(n), lp.Term{Var: v, Coef: -1})
				sense := lp.LE
				if opts.FlowConservation {
					sense = lp.EQ
				}
				f.Prob.AddConstraint(fmt.Sprintf("nondeficit_%s", n.Name), terms, sense, 0)
				f.Counts.NonDeficit++
			}
			continue
		}

		// Class 2: total inbound within capacity.
		f.Prob.AddConstraint(fmt.Sprintf("cap_%s", n.Name), inSum(n), lp.LE, cfg.MaxCapacity)
		f.Counts.Capacity++

		// FFU minimum volume (class 1 extension): total inbound at least
		// the kind's minimum, when configured above the least count.
		if min := cfg.minForNode(n); min > cfg.LeastCount {
			f.Prob.AddConstraint(fmt.Sprintf("min_%s", n.Name), inSum(n), lp.GE, min)
			f.Counts.MinVolume++
		}

		// Class 4: inbound edges pairwise in the specified ratio.
		if len(n.In()) >= 2 {
			ref := n.In()[0]
			for _, e := range n.In()[1:] {
				f.Prob.AddConstraint(fmt.Sprintf("ratio_%s_%d", n.Name, e.ID()),
					[]lp.Term{
						{Var: f.EdgeVar[e.ID()], Coef: ref.Frac},
						{Var: f.EdgeVar[ref.ID()], Coef: -e.Frac},
					}, lp.EQ, 0)
				f.Counts.Ratio++
			}
		}

		if n.IsLeaf() {
			continue
		}
		// Production: either the input sum directly, or an explicit
		// variable when output shrinks relative to input (class 5).
		prodTerms := inSum(n)
		if n.OutFrac != 1 {
			pv := f.Prob.AddVariable(fmt.Sprintf("prod_%s", n.Name))
			f.ProdVar[id] = pv
			terms := make([]lp.Term, 0, len(n.In())+1)
			for _, e := range n.In() {
				terms = append(terms, lp.Term{Var: f.EdgeVar[e.ID()], Coef: n.OutFrac})
			}
			terms = append(terms, lp.Term{Var: pv, Coef: -1})
			f.Prob.AddConstraint(fmt.Sprintf("out2in_%s", n.Name), terms, lp.EQ, 0)
			f.Counts.OutputToInput++
			prodTerms = []lp.Term{{Var: pv, Coef: 1}}
		}
		// Class 3: (1+ε)·Σ outbound ≤ production.
		terms := outSumMargin(n)
		for _, t := range prodTerms {
			terms = append(terms, lp.Term{Var: t.Var, Coef: -t.Coef})
		}
		sense := lp.LE
		if opts.FlowConservation {
			sense = lp.EQ
		}
		f.Prob.AddConstraint(fmt.Sprintf("nondeficit_%s", n.Name), terms, sense, 0)
		f.Counts.NonDeficit++
	}

	// Objective and output-to-output constraints over real outputs.
	var outputs []*dag.Node
	for _, n := range g.Nodes() {
		if n != nil && n.IsLeaf() && n.Kind != dag.Excess && !n.IsSource() {
			outputs = append(outputs, n)
		}
	}
	for _, o := range outputs {
		for _, e := range o.In() {
			f.Prob.SetObjective(f.EdgeVar[e.ID()], 1)
		}
	}
	if len(outputs) > 1 {
		ref := outputs[0]
		for _, o := range outputs[1:] {
			switch {
			case opts.EqualOutputs:
				terms := inSum(o)
				for _, e := range ref.In() {
					terms = append(terms, lp.Term{Var: f.EdgeVar[e.ID()], Coef: -1})
				}
				f.Prob.AddConstraint(fmt.Sprintf("eqout_%s", o.Name), terms, lp.EQ, 0)
				f.Counts.OutputToOutput++
			case cfg.OutputSkew > 0:
				lo := 1 - cfg.OutputSkew
				hi := 1 + cfg.OutputSkew
				termsLo := inSum(o)
				for _, e := range ref.In() {
					termsLo = append(termsLo, lp.Term{Var: f.EdgeVar[e.ID()], Coef: -lo})
				}
				f.Prob.AddConstraint(fmt.Sprintf("skewlo_%s", o.Name), termsLo, lp.GE, 0)
				termsHi := inSum(o)
				for _, e := range ref.In() {
					termsHi = append(termsHi, lp.Term{Var: f.EdgeVar[e.ID()], Coef: -hi})
				}
				f.Prob.AddConstraint(fmt.Sprintf("skewhi_%s", o.Name), termsHi, lp.LE, 0)
				f.Counts.OutputToOutput += 2
			}
		}
	}
	return f, nil
}

// Solve optimizes the formulation and extracts a Plan. It returns
// ErrLPInfeasible when no feasible assignment exists.
func (f *Formulation) Solve(opts lp.Options) (*Plan, error) {
	sol, err := f.Prob.Solve(opts)
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, ErrLPInfeasible
	default:
		return nil, fmt.Errorf("core: LP solve ended with status %v", sol.Status)
	}
	g := f.graph
	p := &Plan{
		Graph:      g,
		Method:     "lp",
		NodeVolume: make([]float64, len(g.Nodes())),
		EdgeVolume: make([]float64, len(g.Edges())),
		Production: make([]float64, len(g.Nodes())),
	}
	for _, e := range g.Edges() {
		if e == nil {
			continue
		}
		p.EdgeVolume[e.ID()] = sol.Value(f.EdgeVar[e.ID()])
	}
	for _, n := range g.Nodes() {
		if n == nil {
			continue
		}
		id := n.ID()
		if n.IsSource() {
			p.NodeVolume[id] = sol.Value(f.SourceVar[id])
			p.Production[id] = p.NodeVolume[id]
			continue
		}
		in := 0.0
		for _, e := range n.In() {
			in += p.EdgeVolume[e.ID()]
		}
		p.NodeVolume[id] = in
		if f.ProdVar[id] >= 0 {
			p.Production[id] = sol.Value(f.ProdVar[id])
		} else {
			p.Production[id] = in
		}
	}
	// Carry the solver's optimality certificate so internal/certify can
	// verify the KKT conditions without re-solving.
	p.Duals = sol.Y
	p.ReducedCosts = sol.ReducedCost
	p.checkMinimums(f.cfg)
	return p, nil
}

// SolveLP formulates and solves the RVol LP in one step. A non-nil
// cfg.Budget is charged one work unit per simplex pivot.
func SolveLP(g *dag.Graph, cfg Config, opts FormulateOptions, avail Availability) (*Plan, error) {
	f, err := Formulate(g, cfg, opts, avail)
	if err != nil {
		return nil, err
	}
	return f.Solve(lp.Options{Budget: cfg.Budget})
}
