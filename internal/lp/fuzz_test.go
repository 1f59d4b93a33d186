package lp

import (
	"math"
	"testing"
)

// Fuzz problems have at most fuzzVars variables and fuzzRows rows. Matrix
// coefficients are integers in [-4, 4], so every basis determinant stays
// far below 1/PivotTol and no vertex sits within the solver's
// tolerances of a status boundary; objective, rhs and bound values are
// any int8.
const (
	fuzzVars = 6
	fuzzRows = 6
)

// decodeProblem reads a problem from data, taking 0 for every byte past
// its end. Layout: direction, variable count, row count; per variable its
// objective, bound kind and two bound values; per row its sense, rhs and
// one coefficient per variable.
func decodeProblem(data []byte) *Problem {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	num := func() float64 { return float64(int8(next())) }
	dir := Direction(next() % 2)
	nv := 1 + int(next())%fuzzVars
	nc := int(next()) % (fuzzRows + 1)
	p := NewProblem(dir)
	for j := 0; j < nv; j++ {
		v := p.AddVariable("")
		p.SetObjective(v, num())
		kind, lo, hi := next()%5, num(), num()
		switch kind {
		case 1:
			p.SetBounds(v, lo, math.Inf(1))
		case 2:
			p.SetBounds(v, math.Inf(-1), math.Inf(1))
		case 3:
			p.SetBounds(v, math.Min(lo, hi), math.Max(lo, hi))
		case 4:
			p.SetBounds(v, math.Inf(-1), hi)
		}
	}
	for i := 0; i < nc; i++ {
		sense, rhs := Sense(next()%3), num()
		var terms []Term
		for j := 0; j < nv; j++ {
			if c := int(next()%9) - 4; c != 0 {
				terms = append(terms, Term{VarID(j), float64(c)})
			}
		}
		p.AddConstraint("", terms, sense, rhs)
	}
	return p
}

// encodeProblem is decodeProblem's inverse for problems within its ranges.
func encodeProblem(p *Problem) []byte {
	data := []byte{byte(p.dir), byte(len(p.vars) - 1), byte(len(p.cons))}
	for _, v := range p.vars {
		kind, lo, hi := byte(0), 0.0, 0.0
		switch {
		case v.lo == 0 && math.IsInf(v.hi, 1):
		case math.IsInf(v.lo, -1) && math.IsInf(v.hi, 1):
			kind = 2
		case math.IsInf(v.hi, 1):
			kind, lo = 1, v.lo
		case math.IsInf(v.lo, -1):
			kind, hi = 4, v.hi
		default:
			kind, lo, hi = 3, v.lo, v.hi
		}
		data = append(data, byte(int8(v.obj)), kind, byte(int8(lo)), byte(int8(hi)))
	}
	for _, c := range p.cons {
		data = append(data, byte(c.sense), byte(int8(c.rhs)))
		coef := make([]float64, len(p.vars))
		for _, t := range c.terms {
			coef[t.Var] = t.Coef
		}
		for _, a := range coef {
			data = append(data, byte(int(a)+4))
		}
	}
	return data
}

// fuzzSeeds are problems from the other lp tests, all within the fuzz
// decoder's ranges.
func fuzzSeeds() []*Problem {
	var ps []*Problem
	add := func(dir Direction, obj []float64, rows [][]float64, senses []Sense, rhs []float64) *Problem {
		p := NewProblem(dir)
		for _, c := range obj {
			p.SetObjective(p.AddVariable(""), c)
		}
		for i, row := range rows {
			var terms []Term
			for j, a := range row {
				terms = append(terms, Term{VarID(j), a})
			}
			p.AddConstraint("", terms, senses[i], rhs[i])
		}
		ps = append(ps, p)
		return p
	}
	// TestMaximizeBasic, TestMinimizeWithGE, TestEqualityConstraints.
	add(Maximize, []float64{3, 5}, [][]float64{{1, 0}, {0, 2}, {3, 2}}, []Sense{LE, LE, LE}, []float64{4, 12, 18})
	add(Minimize, []float64{12, 16}, [][]float64{{1, 2}, {1, 1}}, []Sense{GE, GE}, []float64{40, 30})
	add(Maximize, []float64{1, 2, 3}, [][]float64{{1, 1, 1}, {0, 0, 1}}, []Sense{EQ, LE}, []float64{10, 4})
	// TestInfeasible, TestUnbounded, TestRedundantEqualities,
	// TestZeroObjectiveFeasibilityOnly.
	add(Maximize, []float64{1}, [][]float64{{1}, {1}}, []Sense{GE, LE}, []float64{5, 3})
	add(Maximize, []float64{1, 0}, [][]float64{{1, -1}}, []Sense{LE}, []float64{1})
	add(Maximize, []float64{1, 1}, [][]float64{{1, 1}, {2, 2}, {1, 0}}, []Sense{EQ, EQ, LE}, []float64{4, 8, 3})
	add(Minimize, []float64{0, 0}, [][]float64{{1, 1}, {1, -1}}, []Sense{EQ, EQ}, []float64{2, 0})
	// Bounds: shifted, capped, free and negative, as in
	// TestVariableBoundsShift, TestUpperBoundBinds, TestFreeVariable and
	// TestNegativeLowerBound.
	p := add(Minimize, []float64{1, -1}, [][]float64{{1, 1}}, []Sense{LE}, []float64{8})
	p.SetBounds(0, 2, 5)
	p.SetBounds(1, math.Inf(-1), 3)
	p = add(Maximize, []float64{2, 1}, [][]float64{{1, 1}}, []Sense{GE}, []float64{-4})
	p.SetBounds(0, -3, math.Inf(1))
	p.SetBounds(1, math.Inf(-1), math.Inf(1))
	return ps
}

// FuzzSolve checks Solve against the exact referee: the same status and
// objective, a solution within FeasCheckTol of every row and bound, and
// reduced costs that are obj − Yᵀa.
func FuzzSolve(f *testing.F) {
	for i, p := range fuzzSeeds() {
		data := encodeProblem(p)
		if got, want := decodeProblem(data).String(), p.String(); got != want {
			f.Fatalf("seed %d decodes to\n%s\nwant\n%s", i, got, want)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProblem(data)
		got, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("Solve: %v\n%s", err, p)
		}
		want, err := p.SolveExact()
		if err != nil {
			t.Fatalf("SolveExact: %v\n%s", err, p)
		}
		if got.Status != want.Status {
			t.Fatalf("status %v, exact %v\n%s", got.Status, want.Status, p)
		}
		if got.Status != Optimal {
			return
		}
		if math.Abs(got.Objective-want.Objective) > ObjectiveRelTol*(1+math.Abs(want.Objective)) {
			t.Fatalf("objective %v, exact %v\n%s", got.Objective, want.Objective, p)
		}
		for i, c := range p.cons {
			act, scale := 0.0, 1+math.Abs(c.rhs)
			for _, tm := range c.terms {
				act += tm.Coef * got.X[tm.Var]
				scale += math.Abs(tm.Coef * got.X[tm.Var])
			}
			tol := FeasCheckTol * scale
			if (c.sense != GE && act > c.rhs+tol) || (c.sense != LE && act < c.rhs-tol) {
				t.Fatalf("row %d: activity %v %v %v\n%s", i, act, c.sense, c.rhs, p)
			}
		}
		for j, v := range p.vars {
			x := got.X[j]
			if x < v.lo-FeasCheckTol*(1+math.Abs(v.lo)) || x > v.hi+FeasCheckTol*(1+math.Abs(v.hi)) {
				t.Fatalf("x%d = %v outside [%v, %v]\n%s", j, x, v.lo, v.hi, p)
			}
		}
		rc := make([]float64, len(p.vars))
		scale := make([]float64, len(p.vars))
		for j, v := range p.vars {
			rc[j], scale[j] = v.obj, 1+math.Abs(v.obj)
		}
		for i, c := range p.cons {
			for _, tm := range c.terms {
				rc[tm.Var] -= got.Y[i] * tm.Coef
				scale[tm.Var] += math.Abs(got.Y[i] * tm.Coef)
			}
		}
		for j := range rc {
			if math.Abs(got.ReducedCost[j]-rc[j]) > SolutionTol*scale[j] {
				t.Fatalf("reduced cost %d = %v, obj − Yᵀa = %v\n%s", j, got.ReducedCost[j], rc[j], p)
			}
		}
	})
}
