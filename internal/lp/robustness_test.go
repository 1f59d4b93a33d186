package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Badly-scaled problems (coefficients spanning 6 orders of magnitude, as
// volume problems in pl..µl units would) still solve to the correct
// optimum.
func TestScalingRobustness(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable("x")
	y := p.AddVariable("y")
	p.SetObjective(x, 1e-3)
	p.SetObjective(y, 1e3)
	p.AddConstraint("c1", []Term{{x, 1e-4}, {y, 1e2}}, LE, 1e3)
	p.AddConstraint("c2", []Term{{x, 1}}, LE, 1e6)
	s := solveOrFatal(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	// Two optimal vertices tie at objective 10000: (x=1e6, y=9) and
	// (x=0, y=10). Either is correct.
	if !approx(s.Objective, 10000) {
		t.Fatalf("objective = %v (x=%v y=%v), want 10000", s.Objective, s.Value(x), s.Value(y))
	}
}

// Duplicate and contradictory-looking redundant rows don't confuse the
// solver.
func TestManyRedundantRows(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable("x")
	p.SetObjective(x, 1)
	for i := 0; i < 50; i++ {
		p.AddConstraint("", []Term{{x, 1}}, LE, 10)
		p.AddConstraint("", []Term{{x, 2}}, LE, 20)
	}
	s := solveOrFatal(t, p)
	if s.Status != Optimal || !approx(s.Value(x), 10) {
		t.Fatalf("got %v x=%v, want optimal 10", s.Status, s.Value(x))
	}
}

// A degenerate vertex (many constraints meeting at one point) terminates
// and answers correctly.
func TestHighlyDegenerate(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable("x")
	y := p.AddVariable("y")
	p.SetObjective(x, 1)
	p.SetObjective(y, 1)
	// All constraints pass through (5,5).
	for i := 1; i <= 20; i++ {
		a := float64(i)
		p.AddConstraint("", []Term{{x, a}, {y, 10 - a}}, LE, a*5+(10-a)*5)
	}
	s := solveOrFatal(t, p)
	if s.Status != Optimal || !approx(s.Objective, 10) {
		t.Fatalf("got %v obj=%v, want optimal 10", s.Status, s.Objective)
	}
}

// The exact solver agrees with the float solver on equality-constrained
// transportation-style problems.
func TestExactTransportation(t *testing.T) {
	p := NewProblem(Minimize)
	// 2 sources (supply 30, 20), 2 sinks (demand 25, 25).
	xs := make([]VarID, 4)
	costs := []float64{4, 6, 5, 3}
	for i := range xs {
		xs[i] = p.AddVariable("")
		p.SetObjective(xs[i], costs[i])
	}
	p.AddConstraint("s1", []Term{{xs[0], 1}, {xs[1], 1}}, EQ, 30)
	p.AddConstraint("s2", []Term{{xs[2], 1}, {xs[3], 1}}, EQ, 20)
	p.AddConstraint("d1", []Term{{xs[0], 1}, {xs[2], 1}}, EQ, 25)
	p.AddConstraint("d2", []Term{{xs[1], 1}, {xs[3], 1}}, EQ, 25)
	sf := solveOrFatal(t, p)
	se, err := p.SolveExact()
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: x11=25, x12=5, x22=20 → 25·4+5·6+20·3 = 190.
	if !approx(sf.Objective, 190) || !approx(se.Objective, 190) {
		t.Fatalf("float %v, exact %v, want 190", sf.Objective, se.Objective)
	}
}

func TestExactUnbounded(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable("x")
	p.SetObjective(x, 1)
	p.AddConstraint("", []Term{{x, -1}}, LE, 5)
	s, err := p.SolveExact()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

// Property: the optimum is invariant under row scaling.
func TestQuickRowScalingInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p1, _ := randomProblemEQ(r, 2+r.Intn(4), 1+r.Intn(5), false)
		// Rebuild with every row scaled by a random positive factor.
		p2 := NewProblem(Maximize)
		for j := 0; j < p1.NumVariables(); j++ {
			v := p2.AddVariable("")
			lo, hi := p1.Bounds(VarID(j))
			p2.SetBounds(v, lo, hi)
			p2.SetObjective(v, p1.vars[j].obj)
		}
		for _, c := range p1.cons {
			k := math.Pow(10, 3*r.Float64()-1.5)
			terms := make([]Term, len(c.terms))
			for i, t := range c.terms {
				terms[i] = Term{t.Var, t.Coef * k}
			}
			p2.AddConstraint("", terms, c.sense, c.rhs*k)
		}
		s1, err1 := p1.Solve(Options{})
		s2, err2 := p2.Solve(Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		if s1.Status != s2.Status {
			return false
		}
		if s1.Status != Optimal {
			return true
		}
		return math.Abs(s1.Objective-s2.Objective) <= ObjectiveRelTol*(1+math.Abs(s1.Objective))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Problems large enough to refactorize the basis several times, with
// duplicated equality rows that phase 1 leaves as redundant, end at a
// certified optimum: a feasible point, sign-feasible duals, and no duality
// gap. Integer data keeps every equality exactly consistent.
func TestRefactorizedSolvesCertified(t *testing.T) {
	refactorized := 0
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		const nv, nc, hi = 60, 50, 50
		p := NewProblem(Maximize)
		x0 := make([]float64, nv)
		for j := range x0 {
			v := p.AddVariable("")
			p.SetBounds(v, 0, hi)
			p.SetObjective(v, float64(r.Intn(7)-1))
			x0[j] = float64(r.Intn(11))
		}
		for i := 0; i < nc; i++ {
			var terms []Term
			dot := 0.0
			for j := range x0 {
				if r.Intn(3) == 0 {
					c := float64(r.Intn(7) - 2)
					terms = append(terms, Term{VarID(j), c})
					dot += c * x0[j]
				}
			}
			switch r.Intn(3) {
			case 0:
				p.AddConstraint("", terms, LE, dot+float64(r.Intn(5)))
			case 1:
				p.AddConstraint("", terms, GE, dot-float64(r.Intn(5)))
			default:
				p.AddConstraint("", terms, EQ, dot)
				double := make([]Term, len(terms))
				for k, tm := range terms {
					double[k] = Term{tm.Var, 2 * tm.Coef}
				}
				p.AddConstraint("", double, EQ, 2*dot)
			}
		}
		s := solveOrFatal(t, p)
		if s.Status != Optimal {
			t.Fatalf("seed %d: status %v, want optimal (x0 is feasible)", seed, s.Status)
		}
		if s.Iterations > refactorEvery {
			refactorized++
		}
		if !feasibleAt(p, s.X, FeasCheckTol) {
			t.Errorf("seed %d: solution infeasible", seed)
		}
		bound := 0.0
		for i, c := range p.cons {
			if (c.sense == LE && s.Y[i] < -SolutionTol) || (c.sense == GE && s.Y[i] > SolutionTol) {
				t.Errorf("seed %d: row %d (%v) has dual %v of the wrong sign", seed, i, c.sense, s.Y[i])
			}
			bound += s.Y[i] * c.rhs
		}
		for _, rc := range s.ReducedCost {
			bound += math.Max(rc, 0) * hi
		}
		if math.Abs(s.Objective-bound) > ObjectiveRelTol*(1+math.Abs(s.Objective)) {
			t.Errorf("seed %d: objective %v, dual bound %v", seed, s.Objective, bound)
		}
	}
	if refactorized == 0 {
		t.Fatalf("no solve took more than %d pivots; refactorization went untested", refactorEvery)
	}
}
