package ilp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"aquavol/internal/lp"
)

const eps = 1e-6

func approx(a, b float64) bool { return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b)) }

// Small knapsack: max 8a+11b+6c+4d, 5a+7b+4c+3d ≤ 14, binary vars.
func TestKnapsack(t *testing.T) {
	p := lp.NewProblem(lp.Maximize)
	vals := []float64{8, 11, 6, 4}
	wts := []float64{5, 7, 4, 3}
	vars := make([]lp.VarID, 4)
	terms := make([]lp.Term, 4)
	for i := range vars {
		vars[i] = p.AddVariable("")
		p.SetBounds(vars[i], 0, 1)
		p.SetObjective(vars[i], vals[i])
		terms[i] = lp.Term{Var: vars[i], Coef: wts[i]}
	}
	p.AddConstraint("cap", terms, lp.LE, 14)
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || !approx(r.Objective, 21) {
		t.Fatalf("got %v obj=%v, want optimal 21 (items b+c+d)", r.Status, r.Objective)
	}
	for i, x := range r.X {
		if math.Abs(x-math.Round(x)) > 1e-5 {
			t.Fatalf("x[%d]=%v not integral", i, x)
		}
	}
}

// LP relaxation is fractional; the integer optimum differs.
func TestFractionalRelaxation(t *testing.T) {
	p := lp.NewProblem(lp.Maximize)
	x := p.AddVariable("x")
	y := p.AddVariable("y")
	p.SetObjective(x, 1)
	p.SetObjective(y, 1)
	p.AddConstraint("c1", []lp.Term{{Var: x, Coef: 2}, {Var: y, Coef: 1}}, lp.LE, 5)
	p.AddConstraint("c2", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 2}}, lp.LE, 5)
	// LP optimum at (5/3, 5/3) with value 10/3; integer optimum value 3.
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || !approx(r.Objective, 3) {
		t.Fatalf("got %v obj=%v, want optimal 3", r.Status, r.Objective)
	}
}

func TestIntegerInfeasible(t *testing.T) {
	p := lp.NewProblem(lp.Maximize)
	x := p.AddVariable("x")
	p.SetObjective(x, 1)
	// 0.4 < x < 0.6 has no integer point.
	p.AddConstraint("lo", []lp.Term{{Var: x, Coef: 1}}, lp.GE, 0.4)
	p.AddConstraint("hi", []lp.Term{{Var: x, Coef: 1}}, lp.LE, 0.6)
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", r.Status)
	}
}

func TestLPInfeasible(t *testing.T) {
	p := lp.NewProblem(lp.Minimize)
	x := p.AddVariable("x")
	p.AddConstraint("lo", []lp.Term{{Var: x, Coef: 1}}, lp.GE, 5)
	p.AddConstraint("hi", []lp.Term{{Var: x, Coef: 1}}, lp.LE, 3)
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", r.Status)
	}
}

func TestUnboundedRelaxation(t *testing.T) {
	p := lp.NewProblem(lp.Maximize)
	x := p.AddVariable("x")
	p.SetObjective(x, 1)
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", r.Status)
	}
}

func TestNodeLimit(t *testing.T) {
	// A problem needing several nodes, run with budget 1.
	p := lp.NewProblem(lp.Maximize)
	x := p.AddVariable("x")
	y := p.AddVariable("y")
	p.SetObjective(x, 1)
	p.SetObjective(y, 1)
	p.AddConstraint("c1", []lp.Term{{Var: x, Coef: 2}, {Var: y, Coef: 1}}, lp.LE, 5)
	p.AddConstraint("c2", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 2}}, lp.LE, 5)
	r, err := Solve(p, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != NodeLimit {
		t.Fatalf("status = %v, want node-limit", r.Status)
	}
}

// BoundsRestored: Solve must leave the problem's bounds untouched.
func TestBoundsRestored(t *testing.T) {
	p := lp.NewProblem(lp.Maximize)
	x := p.AddVariable("x")
	p.SetBounds(x, 0, 9.5)
	p.SetObjective(x, 1)
	p.AddConstraint("c", []lp.Term{{Var: x, Coef: 1}}, lp.LE, 7.3)
	if _, err := Solve(p, Options{}); err != nil {
		t.Fatal(err)
	}
	lo, hi := p.Bounds(x)
	if lo != 0 || hi != 9.5 {
		t.Fatalf("bounds mutated: [%v, %v]", lo, hi)
	}
}

// Property: branch and bound matches brute force on tiny bounded integer
// programs.
func TestQuickMatchesBruteForce(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := 2 + r.Intn(2) // 2-3 vars
		ub := 3 + r.Intn(3) // box [0, ub]
		p := lp.NewProblem(lp.Maximize)
		obj := make([]float64, nv)
		vars := make([]lp.VarID, nv)
		for j := 0; j < nv; j++ {
			vars[j] = p.AddVariable("")
			p.SetBounds(vars[j], 0, float64(ub))
			obj[j] = float64(1 + r.Intn(9))
			p.SetObjective(vars[j], obj[j])
		}
		nc := 1 + r.Intn(3)
		rows := make([][]float64, nc)
		rhs := make([]float64, nc)
		for i := 0; i < nc; i++ {
			rows[i] = make([]float64, nv)
			terms := make([]lp.Term, nv)
			for j := 0; j < nv; j++ {
				rows[i][j] = float64(r.Intn(5))
				terms[j] = lp.Term{Var: vars[j], Coef: rows[i][j]}
			}
			rhs[i] = float64(2 + r.Intn(4*ub))
			p.AddConstraint("", terms, lp.LE, rhs[i])
		}
		res, err := Solve(p, Options{})
		if err != nil || res.Status != Optimal {
			return false
		}
		// Brute force over the box.
		best := math.Inf(-1)
		var rec func(j int, x []int)
		rec = func(j int, x []int) {
			if j == nv {
				for i := 0; i < nc; i++ {
					dot := 0.0
					for k := 0; k < nv; k++ {
						dot += rows[i][k] * float64(x[k])
					}
					if dot > rhs[i]+1e-9 {
						return
					}
				}
				v := 0.0
				for k := 0; k < nv; k++ {
					v += obj[k] * float64(x[k])
				}
				if v > best {
					best = v
				}
				return
			}
			for v := 0; v <= ub; v++ {
				x[j] = v
				rec(j+1, x)
			}
		}
		rec(0, make([]int, nv))
		return approx(res.Objective, best)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
