// Package regen implements the reactive-regeneration baseline that the
// paper compares against (BioStream's approach [10], §1 and §4.3):
// execution proceeds with no volume planning, fluids run out, and each
// shortfall is repaired by re-executing the backward slice of the depleted
// fluid's producer.
//
// The paper's Table 2 reports how many regenerations this triggers
// "assuming no volume management" (Glucose 2, Enzyme 85, Enzyme10 1313)
// without specifying BioStream's naive consumption model. This package
// documents its model precisely:
//
//   - every operation fills its functional unit to the machine maximum,
//     drawing each operand in its mix fraction of that fill;
//   - input reservoirs start full; a depleted reservoir is re-loaded to
//     capacity from its input port, and a depleted intermediate fluid is
//     re-produced by re-executing its operation (recursively drawing its
//     own operands, which can cascade further regenerations);
//   - every such re-execution (reload or re-production) counts as one
//     regeneration.
//
// Absolute counts therefore differ from the paper's by a small model
// factor; the shape — near-zero for glucose, tens for enzyme, thousands
// for Enzyme10, and exactly zero under a DAGSolve/LP plan — is preserved,
// which is the claim the experiment supports.
package regen

import (
	"math"

	"aquavol/internal/ais"
	"aquavol/internal/core"
	"aquavol/internal/dag"
)

// Report summarizes a naive execution.
type Report struct {
	// Regenerations counts re-executions (reloads + re-productions).
	Regenerations int
	// PerFluid breaks the count down by the regenerated node's name.
	PerFluid map[string]int
	// TotalDrawn accumulates volume drawn per producer node name.
	TotalDrawn map[string]float64
	// Truncated reports that the regeneration cascade exceeded the
	// recursion-depth bound (pathological OutFrac chains) and the exact
	// accounting was cut off: Regenerations is then a lower bound, not an
	// exact count.
	Truncated bool
}

// CountNaive simulates executing g with no volume management and reports
// the regenerations required. Consumers execute in deterministic
// topological (program) order. Unknown-volume nodes are assumed to
// produce ais.SeparationYield of their input.
func CountNaive(g *dag.Graph, cfg core.Config) *Report {
	rep := &Report{PerFluid: map[string]int{}, TotalDrawn: map[string]float64{}}
	avail := map[*dag.Node]float64{}
	for _, n := range g.Nodes() {
		if n != nil && n.Kind == dag.Input {
			avail[n] = cfg.MaxCapacity // loaded once before execution
		}
	}
	production := func(n *dag.Node) float64 {
		if n.Kind == dag.Input || n.Kind == dag.ConstrainedInput {
			return cfg.MaxCapacity
		}
		out := n.OutFrac
		if n.Unknown {
			out = ais.SeparationYield
		}
		return cfg.MaxCapacity * out * (1 - n.Discard)
	}

	var draw func(p *dag.Node, amt float64, depth int)
	regenerate := func(p *dag.Node, depth int) {
		rep.Regenerations++
		rep.PerFluid[p.Name]++
		if p.Kind == dag.Input || p.Kind == dag.ConstrainedInput {
			avail[p] = cfg.MaxCapacity
			return
		}
		for _, e := range p.In() {
			draw(e.From, e.Frac*cfg.MaxCapacity, depth+1)
		}
		avail[p] = math.Min(avail[p]+production(p), cfg.MaxCapacity)
	}
	draw = func(p *dag.Node, amt float64, depth int) {
		rep.TotalDrawn[p.Name] += amt
		if depth > 64 {
			// Pathological OutFrac chains: give up on exact accounting and
			// say so, rather than silently under-counting.
			rep.Truncated = true
			return
		}
		for avail[p]+1e-9 < amt {
			regenerate(p, depth)
		}
		avail[p] -= amt
	}

	for _, c := range scheduleOrder(g) {
		if c.Kind == dag.Input || c.Kind == dag.ConstrainedInput {
			continue
		}
		for _, e := range c.In() {
			draw(e.From, e.Frac*cfg.MaxCapacity, 0)
		}
		avail[c] = production(c)
	}
	return rep
}

// CountPlanned replays consumption with the volumes of a feasible plan and
// reports the regenerations (zero, by construction of DAGSolve's flow
// conservation; this function exists to demonstrate it).
func CountPlanned(plan *core.Plan) *Report {
	g := plan.Graph
	rep := &Report{PerFluid: map[string]int{}, TotalDrawn: map[string]float64{}}
	avail := map[*dag.Node]float64{}
	for _, n := range g.Nodes() {
		if n == nil {
			continue
		}
		if n.IsSource() {
			avail[n] = plan.NodeVolume[n.ID()]
		}
	}
	for _, c := range scheduleOrder(g) {
		if c.IsSource() {
			continue
		}
		for _, e := range c.In() {
			need := plan.EdgeVolume[e.ID()]
			rep.TotalDrawn[e.From.Name] += need
			if avail[e.From]+1e-6 < need {
				rep.Regenerations++
				rep.PerFluid[e.From.Name]++
				avail[e.From] += need // regenerate exactly the shortfall
			}
			avail[e.From] -= need
		}
		// Plan.Production is net of excess discard; the excess edge itself
		// is also drawn from the node, so stock the gross production.
		avail[c] = plan.Production[c.ID()] / (1 - c.Discard)
	}
	return rep
}

// scheduleOrder is the deterministic execution order: topological,
// breaking ties by node id (which matches front-end program order).
// TopoOrder already breaks ties by smallest id; TestScheduleOrderIsTopo
// asserts the properties this file relies on.
func scheduleOrder(g *dag.Graph) []*dag.Node {
	return g.TopoOrder()
}

// BackwardSlice returns the nodes whose re-execution regenerates target:
// the transitive producers of target, in topological order ending with
// target itself (the program slice of §3.4.2 / Tip's survey [11]).
func BackwardSlice(g *dag.Graph, target *dag.Node) []*dag.Node {
	need := map[*dag.Node]bool{target: true}
	var visit func(n *dag.Node)
	visit = func(n *dag.Node) {
		for _, e := range n.In() {
			if !need[e.From] {
				need[e.From] = true
				visit(e.From)
			}
		}
	}
	visit(target)
	var out []*dag.Node
	for _, n := range g.TopoOrder() {
		if need[n] {
			out = append(out, n)
		}
	}
	return out
}
