package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"aquavol/internal/dag"
)

// TransformKind distinguishes the DAG rewrites of §3.4.
type TransformKind int

const (
	// TransformCascade splits an extreme-ratio mix into cascaded stages.
	TransformCascade TransformKind = iota
	// TransformReplicate replicates a heavily-used node.
	TransformReplicate
)

func (k TransformKind) String() string {
	switch k {
	case TransformCascade:
		return "cascade"
	case TransformReplicate:
		return "replicate"
	default:
		return fmt.Sprintf("TransformKind(%d)", int(k))
	}
}

// Transform records one DAG rewrite. Node is the id of the rewritten
// node in Manage's working graph, after every earlier transform.
type Transform struct {
	Kind   TransformKind
	Node   int
	Levels int // cascade depth
	Copies int // replica count
}

func (t Transform) String() string {
	switch t.Kind {
	case TransformCascade:
		return fmt.Sprintf("cascade(node %d, %d levels)", t.Node, t.Levels)
	default:
		return fmt.Sprintf("replicate(node %d, %d copies)", t.Node, t.Copies)
	}
}

// apply rewrites g in place. A replication balances the node's uses by
// margin-free Vnorms and charges no budget: the next attempt's solve is
// the metered work.
func (t Transform) apply(g *dag.Graph) error {
	n := g.Node(t.Node)
	if t.Kind == TransformCascade {
		return g.Cascade(n, t.Levels)
	}
	vn, err := ComputeVnorms(g)
	if err != nil {
		return err
	}
	_, err = g.Replicate(n, t.Copies, balancedAssign(n, vn, t.Copies))
	return err
}

// ManageOptions tunes the hierarchy driver.
type ManageOptions struct {
	// SkipLP disables the LP fallback between DAGSolve and the DAG
	// transforms (useful in benchmarks isolating DAGSolve).
	SkipLP bool
}

// ManageResult is the outcome of Manage.
type ManageResult struct {
	// Plan is the feasible volume plan.
	Plan *Plan
	// Graph is the transformed DAG the last attempt solved, which the plan
	// covers (a clone; the input graph is never mutated).
	Graph *dag.Graph
	// UsedLP reports whether the final plan came from the LP fallback
	// rather than DAGSolve.
	UsedLP bool
	// Transforms lists the DAG rewrites that were needed, in order.
	Transforms []Transform
	// Attempts is the number of solve rounds.
	Attempts int
	// Trace is a human-readable decision log.
	Trace []string
}

// maxAttempts bounds the solve-and-transform rounds of the hierarchy.
const maxAttempts = 16

// ErrUnmanageable reports that no feasible volume assignment was found;
// the caller must fall back on run-time regeneration or reject the assay
// (Fig. 6's terminal states). Manage returns it as one of two causes,
// ErrAttemptLimit or ErrNoTransform.
var ErrUnmanageable = errors.New("core: no feasible volume assignment found")

var (
	// ErrAttemptLimit reports that every attempt underflowed and the
	// hierarchy still had a transform to try when the attempts ran out.
	ErrAttemptLimit = fmt.Errorf("%w: %d attempts", ErrUnmanageable, maxAttempts)
	// ErrNoTransform reports an underflow that neither cascading nor
	// replication applies to.
	ErrNoTransform = fmt.Errorf("%w: no applicable transform", ErrUnmanageable)
)

// Manage runs the volume-management hierarchy of Fig. 6 on a
// statically-known assay DAG: DAGSolve first; the full LP on DAGSolve
// underflow; then, if both fail, cascading (when the underflow sits on an
// extreme-ratio mix) or static replication (numerous uses), re-entering
// the hierarchy after each rewrite.
//
// g is never mutated. Graphs containing unknown-volume nodes with uses
// must use NewStagedPlan instead.
func Manage(g *dag.Graph, cfg Config, opts ManageOptions) (*ManageResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	avail := StaticAvailability(cfg)
	cur := g.Clone()
	res := &ManageResult{Graph: cur}
	tracef := func(format string, args ...any) {
		res.Trace = append(res.Trace, fmt.Sprintf(format, args...))
	}

	for attempt := 1; ; attempt++ {
		// Poll at the attempt boundary: transforms and diagnosis are
		// cheap, but a cancelled caller must not enter another round.
		if err := cfg.Budget.Err(); err != nil {
			return nil, err
		}
		res.Attempts = attempt

		vn, err := computeVnormsBudgeted(cur, cfg.SafetyMargin, cfg.Budget)
		if err != nil {
			return nil, err
		}
		plan, ds, err := solve(vn, cfg, avail, !opts.SkipLP)
		if err != nil {
			return nil, err
		}
		if ds.Feasible() {
			tracef("attempt %d: DAGSolve feasible", attempt)
			res.Plan = ds
			return res, nil
		}
		_, minVol := ds.MinDispense()
		tracef("attempt %d: DAGSolve underflow (min dispense %.4g nl)", attempt, minVol)
		switch {
		case plan != ds:
			tracef("attempt %d: LP fallback feasible", attempt)
			res.Plan = plan
			res.UsedLP = true
			return res, nil
		case !opts.SkipLP:
			tracef("attempt %d: LP infeasible too", attempt)
		}

		t, why, ok := diagnose(ds, cur, cfg)
		if !ok {
			tracef("attempt %d: no applicable transform (%s)", attempt, why)
			return res, ErrNoTransform
		}
		tracef("attempt %d: applying %s (%s)", attempt, t, why)
		res.Transforms = append(res.Transforms, t)
		if attempt == maxAttempts {
			return res, ErrAttemptLimit
		}
		if err := t.apply(cur); err != nil {
			return nil, err
		}
	}
}

// solve is the solve step of the hierarchy, shared by Manage,
// StagedPlan.SolvePart and SolveResidual: DAGSolve's forward pass over
// vn and, when that underflows and withLP is set, the LP over the same
// graph and availability. ds is the DAGSolve plan. plan is the LP plan
// when the LP is feasible, else ds, whose underflows the caller
// diagnoses; an infeasible LP is not an error. ds is nil only when the
// forward pass itself failed, which tells that failure from an LP one.
func solve(vn *Vnorms, cfg Config, avail Availability, withLP bool) (plan, ds *Plan, err error) {
	ds, err = Dispense(vn, cfg, avail)
	if err != nil || ds.Feasible() || !withLP {
		return ds, ds, err
	}
	lpPlan, err := SolveLP(vn.Graph, cfg, FormulateOptions{}, avail)
	switch {
	case err == nil && lpPlan.Feasible():
		return lpPlan, ds, nil
	case err != nil && !errors.Is(err, ErrLPInfeasible):
		return nil, ds, err
	}
	return ds, ds, nil
}

// balancedAssign distributes a node's outbound uses across replicas so that
// per-replica Vnorm load is as even as possible: edges are taken in
// descending Vnorm order and placed on the least-loaded replica.
func balancedAssign(n *dag.Node, vn *Vnorms, copies int) func(*dag.Edge) int {
	type load struct {
		idx int
		sum float64
	}
	loads := make([]load, copies)
	for i := range loads {
		loads[i].idx = i
	}
	edges := append([]*dag.Edge(nil), n.Out()...)
	sort.Slice(edges, func(i, j int) bool {
		vi, vj := vn.Edge[edges[i].ID()], vn.Edge[edges[j].ID()]
		if vi != vj {
			return vi > vj
		}
		return edges[i].ID() < edges[j].ID()
	})
	assign := make(map[*dag.Edge]int, len(edges))
	for _, e := range edges {
		min := 0
		for i := 1; i < copies; i++ {
			if loads[i].sum < loads[min].sum {
				min = i
			}
		}
		assign[e] = loads[min].idx
		loads[min].sum += vn.Edge[e.ID()]
	}
	return func(e *dag.Edge) int { return assign[e] }
}

// diagnose picks the next transform from a failing DAGSolve plan, per the
// right-hand side of Fig. 6: an underflow at an extreme-ratio two-part mix
// is attributed to the ratio (cascade); anything else is attributed to
// numerous uses (replicate the dispensing bottleneck, i.e. the node with
// the largest Vnorm).
func diagnose(plan *Plan, g *dag.Graph, cfg Config) (Transform, string, bool) {
	if edge, _ := plan.MinDispense(); edge != nil {
		n := edge.To
		if levels, _ := CascadeDepth(n, cfg); levels > 0 {
			return Transform{Kind: TransformCascade, Node: n.ID(), Levels: levels},
				fmt.Sprintf("mix %s skew %.3g exceeds trigger %.3g", n.Name, dag.ExtremeRatio(n), cfg.CascadeTrigger()), true
		}
	}
	// Replicate the bottleneck: largest-Vnorm node that can be replicated.
	type cand struct {
		n *dag.Node
		v float64
	}
	var cands []cand
	for _, n := range g.Nodes() {
		if n == nil || n.Unknown || n.Kind == dag.Excess || n.Kind == dag.ConstrainedInput {
			continue
		}
		cands = append(cands, cand{n, plan.NodeVnorm[n.ID()]})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].v != cands[j].v {
			return cands[i].v > cands[j].v
		}
		return cands[i].n.ID() < cands[j].n.ID()
	})
	for _, c := range cands {
		if len(c.n.Out()) < 2 {
			continue // replication cannot split a single use
		}
		return Transform{Kind: TransformReplicate, Node: c.n.ID(), Copies: 2},
			fmt.Sprintf("node %s is the Vnorm bottleneck (%.4g)", c.n.Name, c.v), true
	}
	return Transform{}, "no cascade target and no replicable bottleneck", false
}

// CascadeTrigger is the mix skew above which the hierarchy attributes an
// underflow to the mix ratio, fixed by cascading, rather than to numerous
// uses, fixed by replication: sqrt(MaxSkew).
func (c Config) CascadeTrigger() float64 { return math.Sqrt(c.MaxSkew()) }

// CascadeDepth is the hierarchy's cascade rule. When DAGSolve underflows
// at mix n, Manage cascades it if it is a two-part mix whose skew
// exceeds cfg.CascadeTrigger(), none of its fluids is NOEXCESS, and some
// depth of at least two brings every stage under the trigger. It returns
// that depth, or 0 and the reason the rule does not apply. The static
// analyzer asks it too, so its predictions match what Manage does.
func CascadeDepth(n *dag.Node, cfg Config) (int, string) {
	skew := dag.ExtremeRatio(n)
	switch {
	case n.Kind != dag.Mix || len(n.In()) != 2:
		return 0, fmt.Sprintf("cascading supports two-part mixes, this one has %d parts", len(n.In()))
	case skew <= cfg.CascadeTrigger():
		return 0, fmt.Sprintf("skew %.3g is within the cascade trigger %.3g", skew, cfg.CascadeTrigger())
	case n.NoExcess || slices.ContainsFunc(n.In(), func(e *dag.Edge) bool { return e.From.NoExcess }):
		return 0, "its fluids forbid excess production (NOEXCESS)"
	}
	if levels := dag.CascadeLevels(skew, cfg.CascadeTrigger()); levels >= 2 {
		return levels, ""
	}
	return 0, "no supported cascade depth brings each stage under the cascade trigger"
}
