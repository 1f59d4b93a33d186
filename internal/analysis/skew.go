package analysis

import (
	"fmt"

	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/diag"
)

// SkewPass is the skew/feasibility analysis: every mix's effective ratio
// (largest to smallest inbound fraction) is checked against the hardware's
// MaxSkew = MaxCapacity/LeastCount (§3.4.1).
//
//   - VOL010 (warning): the ratio exceeds MaxSkew but cascading repairs
//     it; the suggestion carries the minimal sufficient depth.
//   - VOL011 (error): the ratio exceeds MaxSkew and cascading cannot
//     apply (NOEXCESS fluids, more than two parts, or no feasible depth).
//   - VOL012 (info): the ratio is executable but above the cascade
//     trigger, so the volume manager will cascade if DAGSolve underflows.
type SkewPass struct{}

// Run reports the pass's findings over ctx.
func (SkewPass) Run(ctx *Context) diag.List {
	var out diag.List
	maxSkew := ctx.Cfg.MaxSkew()
	for _, n := range ctx.Graph.Nodes() {
		if n == nil || n.Kind != dag.Mix || len(n.In()) < 2 {
			continue
		}
		R := dag.ExtremeRatio(n)
		depth, whyNot := core.CascadeDepth(n, ctx.Cfg)
		switch {
		case R > maxSkew && depth > 0:
			out = append(out, CodeExtremeRatio.New(ctx.PosOf(n),
				"mix %s %s exceeds MaxSkew %.6g", n.Name, ratioString(n, R), maxSkew).
				Suggest("cascade depth %d suffices; the volume manager applies it automatically", dag.CascadeLevels(R, maxSkew)))
		case R > maxSkew:
			out = append(out, CodeUncascadable.New(ctx.PosOf(n),
				"mix %s %s exceeds MaxSkew %.6g and cannot be cascaded (%s)",
				n.Name, ratioString(n, R), maxSkew, whyNot).
				Suggest("split the dilution into serial stages by hand, or relax the ratio"))
		case depth > 0:
			out = append(out, CodeCascadeExpected.New(ctx.PosOf(n),
				"mix %s %s exceeds the cascade trigger %.4g; the volume manager will cascade it (depth %d) if dispensing underflows",
				n.Name, ratioString(n, R), ctx.Cfg.CascadeTrigger(), depth))
		}
	}
	return out
}

// ratioString renders a mix's skew: as a 1:R ratio for two-part mixes,
// as a bare skew factor otherwise.
func ratioString(n *dag.Node, R float64) string {
	if len(n.In()) == 2 {
		return fmt.Sprintf("ratio 1:%.6g", R)
	}
	return fmt.Sprintf("skew %.6g", R)
}
