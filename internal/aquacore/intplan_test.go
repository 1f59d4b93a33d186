package aquacore_test

import (
	"aquavol/internal/aquacore"
	"aquavol/internal/core"
)

// intPlanSource is aquacore.PlanSource over an IVol-rounded plan: volumes
// are exact integer multiples of the least count.
type intPlanSource struct {
	plan *core.IntPlan
	cfg  core.Config
}

var _ aquacore.VolumeSource = intPlanSource{}

func (s intPlanSource) EdgeVolume(edgeID int) (float64, bool) {
	if edgeID < 0 || edgeID >= len(s.plan.EdgeUnits) {
		return 0, false
	}
	return float64(s.plan.EdgeUnits[edgeID]) * s.cfg.LeastCount, true
}

func (s intPlanSource) NodeVolume(nodeID int) (float64, bool) {
	if nodeID < 0 || nodeID >= len(s.plan.NodeUnits) {
		return 0, false
	}
	return float64(s.plan.NodeUnits[nodeID]) * s.cfg.LeastCount, true
}

func (intPlanSource) Measured(int, string, float64) {}
