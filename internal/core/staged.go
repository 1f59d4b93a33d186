package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"aquavol/internal/budget"
	"aquavol/internal/dag"
)

// Measure supplies run-time volume measurements for unknown-volume nodes:
// given a node id in the ORIGINAL graph and a producer port, it reports
// the measured volume. The simulator (or real hardware) implements this.
type Measure func(origNodeID int, port string) (float64, bool)

// StagedPlan handles assays with statically-unknown volumes (§3.5). The
// DAG is partitioned at unknown-volume nodes; Vnorms for every partition
// are computed at compile time; absolute volume assignment for a partition
// is deferred until the volumes of its constrained inputs are known — at
// run time, immediately after the producing separation has been measured.
//
// Usage: create the plan at compile time, then call SolvePart(i, measure)
// for i = 0..NumParts()-1 in order as execution proceeds. Parts whose
// constrained inputs are all static solve with measure == nil.
type StagedPlan struct {
	cfg Config
	// Partition is the underlying graph partition.
	Partition *dag.PartitionResult
	// Vnorms holds the compile-time backward-pass results per part.
	Vnorms []*Vnorms
	// Plans holds the per-part volume plans, filled in by SolvePart.
	Plans []*Plan
	// UsedLP records, per part, whether the LP fallback produced the plan.
	UsedLP []bool

	// produced caches planned production volumes of cut known-volume
	// nodes, keyed by original node id, so later parts can compute
	// constrained-input availability.
	produced map[int]float64
}

// ErrPartOrder reports SolvePart called before its producing parts.
var ErrPartOrder = errors.New("core: part solved out of order")

// NewStagedPlan partitions g and computes every partition's Vnorms. The
// graph is not mutated.
func NewStagedPlan(g *dag.Graph, cfg Config) (*StagedPlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	part, err := dag.Partition(g)
	if err != nil {
		return nil, err
	}
	sp := &StagedPlan{
		cfg:       cfg,
		Partition: part,
		Vnorms:    make([]*Vnorms, len(part.Parts)),
		Plans:     make([]*Plan, len(part.Parts)),
		UsedLP:    make([]bool, len(part.Parts)),
		produced:  map[int]float64{},
	}
	for i, pg := range part.Parts {
		vn, err := computeVnormsBudgeted(pg, cfg.SafetyMargin, cfg.Budget)
		if err != nil {
			if budget.IsStop(err) {
				return nil, err
			}
			return nil, fmt.Errorf("core: part %d: %w", i, err)
		}
		sp.Vnorms[i] = vn
	}
	return sp, nil
}

// NumParts reports the number of partitions.
func (sp *StagedPlan) NumParts() int { return len(sp.Partition.Parts) }

// Clone returns a copy of the plan's solved state: the parts solved so
// far and their productions. The partition and Vnorms are shared, since
// nothing writes them after NewStagedPlan. Each run solves its runtime
// parts on its own copy of the compile-time state.
func (sp *StagedPlan) Clone() *StagedPlan {
	c := *sp
	c.Plans = slices.Clone(sp.Plans)
	c.UsedLP = slices.Clone(sp.UsedLP)
	c.produced = maps.Clone(sp.produced)
	return &c
}

// Ready decides whether part i can be solved now: PartAvailability must
// know the volume of every constrained input, from a natural input's
// static share, an earlier part's planned production, or a run-time
// measurement that measure reports. It returns nil when the part is
// ready, else an error naming the first missing input; a missing
// production wraps ErrPartOrder.
func (sp *StagedPlan) Ready(i int, measure Measure) error {
	avail := sp.PartAvailability(i, measure)
	for _, b := range sp.Partition.Bindings {
		if b.Part != i {
			continue
		}
		if _, ok := avail(sp.Partition.Parts[i].Node(b.NodeID)); ok {
			continue
		}
		if b.SourceUnknown {
			return fmt.Errorf("core: part %d: volume of unknown-volume node %d (port %q) not measured",
				i, b.SourceID, b.SourcePort)
		}
		return fmt.Errorf("%w: part %d needs production of node %d (part %d)",
			ErrPartOrder, i, b.SourceID, b.SourcePart)
	}
	return nil
}

// bindingFor finds the binding describing a constrained-input node of part
// i, by part-local node id.
func (sp *StagedPlan) bindingFor(part, nodeID int) (dag.Binding, bool) {
	for _, b := range sp.Partition.Bindings {
		if b.Part == part && b.NodeID == nodeID {
			return b, true
		}
	}
	return dag.Binding{}, false
}

// PartAvailability returns the Availability function SolvePart uses for
// part i: each constrained input gets share × (MaxCapacity | planned
// production | measured volume) depending on whether its source is a
// natural input, a cut known-volume node from an earlier part, or an
// unknown-volume node resolved through measure. It is exported so an
// independent checker (internal/certify) can re-derive the exact
// availability limits a part was solved under.
func (sp *StagedPlan) PartAvailability(i int, measure Measure) Availability {
	return func(ci *dag.Node) (float64, bool) {
		b, ok := sp.bindingFor(i, ci.ID())
		if !ok {
			return 0, false
		}
		switch {
		case b.SourcePart == -1: // natural input split statically
			return b.Share * sp.cfg.MaxCapacity, true
		case b.SourceUnknown:
			if measure == nil {
				return 0, false
			}
			v, ok := measure(b.SourceID, b.SourcePort)
			if !ok {
				return 0, false
			}
			return b.Share * v, true
		default: // cut known-volume node planned in an earlier part
			v, ok := sp.produced[b.SourceID]
			if !ok {
				return 0, false
			}
			return b.Share * v, true
		}
	}
}

// Config reports the configuration the staged plan was built with, so
// downstream consumers (certification, diagnostics) see the same limits
// the solver used.
func (sp *StagedPlan) Config() Config { return sp.cfg }

// SolvePart assigns absolute volumes for part i. It refuses a part that
// is not Ready. DAGSolve is attempted first; on underflow the LP
// formulation of the part is tried before giving up (the hierarchy's
// solve step; DAG transforms are not attempted inside partitions).
func (sp *StagedPlan) SolvePart(i int, measure Measure) (*Plan, error) {
	if i < 0 || i >= sp.NumParts() {
		return nil, fmt.Errorf("core: part %d out of range [0,%d)", i, sp.NumParts())
	}
	// Poll at the part boundary; the solve step below charges the meter.
	if err := sp.cfg.Budget.Err(); err != nil {
		return nil, err
	}
	if err := sp.Ready(i, measure); err != nil {
		return nil, err
	}
	plan, _, err := solve(sp.Vnorms[i], sp.cfg, sp.PartAvailability(i, measure), true)
	if err != nil {
		return nil, err
	}
	sp.Plans[i] = plan
	sp.UsedLP[i] = plan.Method == "lp"

	// Record planned productions for downstream parts.
	pg := sp.Partition.Parts[i]
	for local, orig := range sp.Partition.OrigOf[i] {
		n := pg.Node(local)
		if n == nil || n.Unknown {
			continue // unknown productions come from measurements
		}
		sp.produced[orig] = plan.Production[local]
	}
	return plan, nil
}

// SolveStatic solves, in order, every part not yet solved that needs no
// run-time measurement, and returns the indices it solved. Typically
// called at compile time; the remaining parts are solved during
// execution as measurements arrive.
func (sp *StagedPlan) SolveStatic() ([]int, error) {
	var done []int
	for i := 0; i < sp.NumParts(); i++ {
		// Parts are in dependency order, so a static part's inputs from
		// earlier static parts are produced by the time it is reached.
		if sp.Plans[i] != nil || sp.Ready(i, nil) != nil {
			continue
		}
		if _, err := sp.SolvePart(i, nil); err != nil {
			return done, err
		}
		done = append(done, i)
	}
	return done, nil
}
