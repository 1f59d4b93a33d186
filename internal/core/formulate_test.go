package core_test

import (
	"errors"
	"strings"
	"testing"

	"aquavol/internal/assays"
	"aquavol/internal/budget"
	"aquavol/internal/core"
	"aquavol/internal/lp"
)

// enzyme4LP formulates the LP that Manage's fallback solves on EnzymeDAG(4):
// the graph after its three transforms, 642 rows × 366 columns.
func enzyme4LP(t *testing.T) *core.Formulation {
	t.Helper()
	res, err := core.Manage(assays.EnzymeDAG(4), cfg(), core.ManageOptions{})
	if err != nil || !res.UsedLP {
		t.Fatalf("Manage(enzyme4): usedLP %v, err %v; want the LP fallback", res != nil && res.UsedLP, err)
	}
	f, err := core.Formulate(res.Graph, cfg(), core.FormulateOptions{}, core.StaticAvailability(cfg()))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// The LP's work units are its pivots plus one closing pricing pass per
// phase, so a -budget sweep over this LP counts pivots.
func TestEnzyme4LPMeter(t *testing.T) {
	f := enzyme4LP(t)
	m := budget.New(0)
	sol, err := f.Prob.Solve(lp.Options{Budget: m})
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("solve: %v, %v", sol, err)
	}
	if sol.Iterations != 434 || m.Used() != int64(sol.Iterations)+2 {
		t.Fatalf("pivots %d, work units %d; want 434 and 436", sol.Iterations, m.Used())
	}
}

// A solve that stops short is a typed error naming the status.
func TestLPUnsolvedIsTyped(t *testing.T) {
	f := enzyme4LP(t)
	_, err := f.Solve(lp.Options{MaxIterations: 1})
	if !errors.Is(err, core.ErrLPUnsolved) || errors.Is(err, core.ErrLPInfeasible) {
		t.Fatalf("err = %v, want ErrLPUnsolved", err)
	}
	if !strings.Contains(err.Error(), lp.IterationLimit.String()) {
		t.Fatalf("err = %q, want it to name the status %v", err, lp.IterationLimit)
	}
}
