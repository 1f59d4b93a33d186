package lp

import (
	"testing"

	"aquavol/internal/budget"
)

// Solve charges its Budget once per pricing pass: every pivot plus the
// pass that closes each phase it runs.
func TestBudgetCountsPricingPasses(t *testing.T) {
	seeds := fuzzSeeds()
	cases := []struct {
		name   string
		p      *Problem
		status Status
		phases int
	}{
		{"phase 2 only", seeds[0], Optimal, 1},
		{"phase 1 and 2", seeds[1], Optimal, 2},
		{"infeasible in phase 1", seeds[3], Infeasible, 1},
	}
	for _, tc := range cases {
		m := budget.New(0)
		sol, err := tc.p.Solve(Options{Budget: m})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sol.Status != tc.status {
			t.Fatalf("%s: status %v, want %v", tc.name, sol.Status, tc.status)
		}
		if sol.Iterations == 0 || m.Used() != int64(sol.Iterations+tc.phases) {
			t.Errorf("%s: %d work units for %d pivots; want pivots + %d", tc.name, m.Used(), sol.Iterations, tc.phases)
		}
	}
}
