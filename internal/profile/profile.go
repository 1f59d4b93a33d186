// Package profile closes the §3.5 hint loop: the paper notes that
// programmer hints about unknown output volumes can come "from any source
// including, but not limited to, human expertise, profiling runs and
// prediction." This package implements the profiling-run source: execute
// the assay once on the simulator, record the measured output-to-input
// fraction of every unknown-volume operation, and apply those fractions
// as static hints — after which the whole assay plans at compile time
// (partitioning disappears), at the cost of trusting the profile.
package profile

import (
	"fmt"

	"aquavol/internal/aquacore"
	"aquavol/internal/codegen"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/lang/elab"
)

// Yields maps unknown-volume node ids to their measured output/input
// fractions.
type Yields map[int]float64

// recorder wraps a StagedSource and records per-node yields as the
// machine reports measurements.
type recorder struct {
	inner  aquacore.VolumeSource
	g      *dag.Graph
	inputs map[int]float64 // planned input volume per node
	yields Yields
}

func (r *recorder) EdgeVolume(edgeID int) (float64, bool) { return r.inner.EdgeVolume(edgeID) }
func (r *recorder) NodeVolume(nodeID int) (float64, bool) { return r.inner.NodeVolume(nodeID) }

func (r *recorder) Measured(nodeID int, port string, volume float64) {
	if port == dag.PortEffluent || (port == dag.PortDefault && r.g.Node(nodeID).Kind == dag.Concentrate) {
		if in, ok := r.inputs[nodeID]; ok && in > 0 {
			r.yields[nodeID] = volume / in
		}
	}
	r.inner.Measured(nodeID, port, volume)
}

// Run executes the elaborated assay once on the simulator with staged
// run-time volume management and returns the measured yield of every
// unknown-volume node. simCfg controls the simulated hardware (its
// SeparationYield is what a real profiling run would discover).
func Run(ep *elab.Program, cfg core.Config, simCfg aquacore.Config) (Yields, error) {
	sp, err := core.NewStagedPlan(ep.Graph, cfg)
	if err != nil {
		return nil, err
	}
	src, err := aquacore.NewStagedSource(sp, nil)
	if err != nil {
		return nil, err
	}
	rec := &recorder{inner: src, g: ep.Graph, inputs: map[int]float64{}, yields: Yields{}}

	cg, err := codegen.Generate(ep, ep.Graph, codegen.Config{NoForwarding: true})
	if err != nil {
		return nil, err
	}
	// Planned input volumes of unknown nodes become known part by part;
	// resolve them lazily through a wrapper that asks the staged source.
	m := aquacore.New(simCfg, ep.Graph, &inputTracking{rec: rec, src: src, part: sp})
	m.SetDry(codegen.DryInit(ep))
	if _, err := m.Run(cg.Prog); err != nil {
		return nil, err
	}
	return rec.yields, nil
}

// inputTracking snapshots each unknown node's planned input volume the
// moment the plan covering it becomes available, so the recorder can
// compute yield = measured / input.
type inputTracking struct {
	rec  *recorder
	src  *aquacore.StagedSource
	part *core.StagedPlan
}

func (t *inputTracking) EdgeVolume(edgeID int) (float64, bool) { return t.src.EdgeVolume(edgeID) }
func (t *inputTracking) NodeVolume(nodeID int) (float64, bool) { return t.src.NodeVolume(nodeID) }

func (t *inputTracking) Measured(nodeID int, port string, volume float64) {
	if _, ok := t.rec.inputs[nodeID]; !ok {
		if in, ok := t.src.NodeVolume(nodeID); ok {
			t.rec.inputs[nodeID] = in
		}
	}
	t.rec.Measured(nodeID, port, volume)
}

// Apply returns a clone of g with the profiled yields installed as static
// hints: each profiled node gets OutFrac = yield and is no longer
// unknown-volume. Planning the result needs no partitioning.
func Apply(g *dag.Graph, y Yields) (*dag.Graph, error) {
	ng := g.Clone()
	for id, frac := range y {
		n := ng.Node(id)
		if n == nil {
			return nil, fmt.Errorf("profile: yield for missing node %d", id)
		}
		if !(frac > 0) || frac >= 1 {
			return nil, fmt.Errorf("profile: node %v yield %v outside (0,1)", n, frac)
		}
		n.OutFrac = frac
		n.Unknown = false
	}
	// Any unknown node the profile missed stays unknown; the caller can
	// still partition.
	return ng, nil
}
