package lp

import (
	"errors"
	"fmt"
	"math"

	"aquavol/internal/budget"
)

// Status is the outcome of a solve.
type Status int

const (
	// Optimal means an optimal feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective can be improved without limit.
	Unbounded
	// IterationLimit means the solver hit Options.MaxIterations.
	IterationLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Options tunes the simplex solver. The zero value selects sensible
// defaults for every field.
type Options struct {
	// MaxIterations bounds the total pivots across both phases.
	// 0 selects 200*(rows+cols)+1000.
	MaxIterations int
	// Tol is the pivot/reduced-cost tolerance. 0 selects 1e-9.
	Tol float64
	// FeasTol is the phase-1 feasibility tolerance. 0 selects 1e-7.
	FeasTol float64
	// Budget, when non-nil, is charged one work unit per simplex pivot
	// and can stop the solve cooperatively. Unlike MaxIterations (which
	// terminates with Status IterationLimit), a budget stop is returned
	// as a typed error wrapping one of the budget sentinels, so callers
	// can tell bounded truncation from caller cancellation.
	Budget *budget.Meter
}

func (o Options) withDefaults(m, n int) Options {
	if o.MaxIterations == 0 {
		o.MaxIterations = 200*(m+n) + 1000
	}
	if o.Tol == 0 {
		o.Tol = DefaultTol
	}
	if o.FeasTol == 0 {
		o.FeasTol = DefaultFeasTol
	}
	return o
}

// Solution is the result of a solve.
type Solution struct {
	// Status reports how the solve terminated. X and Objective are only
	// meaningful when Status is Optimal.
	Status Status
	// Objective is the objective value at X, in the problem's original
	// direction (i.e. not negated for maximization).
	Objective float64
	// X holds one value per problem variable, indexed by VarID.
	X []float64
	// Y holds one dual value (shadow price) per problem constraint,
	// indexed by ConID, in the problem's original orientation: Y[i] is
	// ∂Objective/∂rhs_i at the optimum. Filled only when Status is
	// Optimal; nil otherwise (and always nil from the tests' exact
	// referee, which reports no basis). Duals are not unique on degenerate problems
	// (e.g. redundant constraints); the basis the solver lands on picks
	// one valid certificate.
	Y []float64
	// ReducedCost holds one reduced cost per problem variable, indexed by
	// VarID: ReducedCost[j] = obj_j − Σ_i Y[i]·a_ij over the problem's
	// constraints. Together with Y it forms the optimality certificate
	// verified by internal/certify. Filled only when Status is Optimal.
	ReducedCost []float64
	// Iterations is the total simplex pivots performed across both phases.
	Iterations int
}

// Value returns the solution value of variable v.
func (s *Solution) Value(v VarID) float64 { return s.X[v] }

// ErrBadProblem reports a structurally invalid problem (e.g. NaN inputs).
var ErrBadProblem = errors.New("lp: invalid problem")

// column maps a simplex column back to a problem variable.
type column struct {
	orig VarID   // originating variable
	sign float64 // +1 for x⁺ part, -1 for x⁻ part
}

// Solve runs two-phase primal simplex and returns the solution. An error is
// returned only for structurally invalid problems or a tripped
// Options.Budget (a typed budget stop; match with budget.IsStop);
// infeasibility and unboundedness are reported through Solution.Status.
//
// Solve is certified parallel-safe: distinct Problems may be solved
// concurrently. (Solving one Problem from two goroutines still races on
// the receiver itself, as with any mutable value.)
//
//fluidvet:parallelsafe
func (p *Problem) Solve(opts Options) (*Solution, error) {
	for _, v := range p.vars {
		if math.IsNaN(v.lo) || math.IsNaN(v.hi) || math.IsNaN(v.obj) {
			return nil, fmt.Errorf("%w: NaN in variable %q", ErrBadProblem, v.name)
		}
	}
	for _, c := range p.cons {
		if math.IsNaN(c.rhs) {
			return nil, fmt.Errorf("%w: NaN rhs in constraint %q", ErrBadProblem, c.name)
		}
		for _, t := range c.terms {
			if math.IsNaN(t.Coef) {
				return nil, fmt.Errorf("%w: NaN coefficient in constraint %q", ErrBadProblem, c.name)
			}
		}
	}

	// Build structural columns. Each variable with a finite lower bound is
	// shifted (x = lo + x'); free variables split into two columns.
	var cols []column
	colOf := make([]int, len(p.vars)) // first column of each variable
	shift := make([]float64, len(p.vars))
	for j, v := range p.vars {
		colOf[j] = len(cols)
		if math.IsInf(v.lo, -1) {
			cols = append(cols, column{VarID(j), 1}, column{VarID(j), -1})
		} else {
			shift[j] = v.lo
			cols = append(cols, column{VarID(j), 1})
		}
	}
	nStruct := len(cols)

	// Rows: user constraints plus internal upper-bound rows.
	type row struct {
		coefs []float64 // dense over structural columns
		sense Sense
		rhs   float64
	}
	var rows []row
	for _, c := range p.cons {
		r := row{coefs: make([]float64, nStruct), sense: c.sense, rhs: c.rhs}
		for _, t := range c.terms {
			j := t.Var
			ci := colOf[j]
			r.coefs[ci] += t.Coef
			if math.IsInf(p.vars[j].lo, -1) {
				r.coefs[ci+1] -= t.Coef
			} else {
				r.rhs -= t.Coef * shift[j]
			}
		}
		rows = append(rows, r)
	}
	for j, v := range p.vars {
		if math.IsInf(v.hi, 1) {
			continue
		}
		r := row{coefs: make([]float64, nStruct), sense: LE}
		ci := colOf[j]
		r.coefs[ci] = 1
		if math.IsInf(v.lo, -1) {
			r.coefs[ci+1] = -1
			r.rhs = v.hi
		} else {
			r.rhs = v.hi - v.lo
		}
		rows = append(rows, r)
	}

	m := len(rows)
	opt := opts.withDefaults(m, nStruct)

	// Normalize to b ≥ 0 and count auxiliary columns. flip remembers which
	// rows were negated so dual values can be mapped back to the original
	// row orientation after the solve.
	flip := make([]bool, m)
	nSlack, nArt := 0, 0
	for i := range rows {
		if rows[i].rhs < 0 {
			flip[i] = true
			for k := range rows[i].coefs {
				rows[i].coefs[k] = -rows[i].coefs[k]
			}
			rows[i].rhs = -rows[i].rhs
			switch rows[i].sense {
			case LE:
				rows[i].sense = GE
			case GE:
				rows[i].sense = LE
			}
		}
		switch rows[i].sense {
		case LE:
			nSlack++
		case GE:
			nSlack++ // surplus
			nArt++
		case EQ:
			nArt++
		}
	}

	n := nStruct + nSlack + nArt // total columns (rhs stored separately)
	t := &tableau{
		m:      m,
		n:      n,
		artLo:  n - nArt,
		stride: n + 1,
		a:      make([]float64, m*(n+1)),
		basis:  make([]int, m),
		cost:   make([]float64, n+1),
		tol:    opt.Tol,
	}
	// idCol[i] is the identity column of row i — the auxiliary column
	// (slack for LE, artificial for GE/EQ) whose only nonzero entry is a
	// +1 in row i and whose phase-2 objective coefficient is zero. At
	// phase-2 optimality, -cost[idCol[i]] is therefore exactly the
	// internal dual value of row i.
	idCol := make([]int, m)
	slackAt, artAt := nStruct, nStruct+nSlack
	for i, r := range rows {
		base := i * t.stride
		copy(t.a[base:base+nStruct], r.coefs)
		t.a[base+n] = r.rhs
		switch r.sense {
		case LE:
			t.a[base+slackAt] = 1
			t.basis[i] = slackAt
			idCol[i] = slackAt
			slackAt++
		case GE:
			t.a[base+slackAt] = -1
			slackAt++
			t.a[base+artAt] = 1
			t.basis[i] = artAt
			idCol[i] = artAt
			artAt++
		case EQ:
			t.a[base+artAt] = 1
			t.basis[i] = artAt
			idCol[i] = artAt
			artAt++
		}
	}

	sol := &Solution{X: make([]float64, len(p.vars))}

	// Phase 1: minimize the sum of artificial variables.
	if nArt > 0 {
		for j := 0; j <= n; j++ {
			var s float64
			for i := 0; i < m; i++ {
				if t.basis[i] >= t.artLo {
					s += t.a[i*t.stride+j]
				}
			}
			t.cost[j] = -s
		}
		// Artificial columns themselves have phase-1 cost 1; their reduced
		// cost is 1 - (column sum over artificial-basic rows). For the
		// identity artificial columns this is exactly 0.
		for j := t.artLo; j < n; j++ {
			t.cost[j] += 1
		}
		st, err := t.iterate(&sol.Iterations, opt, true)
		if err != nil {
			return nil, err
		}
		if st == IterationLimit {
			sol.Status = IterationLimit
			return sol, nil
		}
		if -t.cost[n] > opt.FeasTol { // phase-1 objective = -cost[n]
			sol.Status = Infeasible
			return sol, nil
		}
		t.expelArtificials()
	}

	// Phase 2: original objective. Build reduced costs from the current
	// basis: cost[j] = c_j − Σ_i c_{basis(i)}·T[i][j].
	sign := 1.0
	if p.dir == Maximize {
		sign = -1
	}
	structCost := func(j int) float64 {
		if j >= nStruct {
			return 0
		}
		return sign * p.vars[cols[j].orig].obj * cols[j].sign
	}
	for j := 0; j <= n; j++ {
		c := 0.0
		if j < n {
			c = structCost(j)
		}
		for i := 0; i < m; i++ {
			if cb := structCost(t.basis[i]); cb != 0 {
				c -= cb * t.a[i*t.stride+j]
			}
		}
		t.cost[j] = c
	}

	st, err := t.iterate(&sol.Iterations, opt, false)
	if err != nil {
		return nil, err
	}
	switch st {
	case IterationLimit, Unbounded:
		sol.Status = st
		return sol, nil
	}

	// Extract the solution, mapping columns back through shifts and splits.
	colVal := make([]float64, n)
	for i := 0; i < m; i++ {
		v := t.a[i*t.stride+n]
		if v < 0 && v > -opt.FeasTol {
			v = 0
		}
		colVal[t.basis[i]] = v
	}
	for j := range p.vars {
		x := shift[j]
		ci := colOf[j]
		x += colVal[ci]
		if math.IsInf(p.vars[j].lo, -1) {
			x -= colVal[ci+1]
			x -= shift[j] // no shift applied for free vars
		}
		sol.X[j] = x
	}
	obj := 0.0
	for j, v := range p.vars {
		obj += v.obj * sol.X[j]
	}
	sol.Objective = obj
	sol.Status = Optimal
	// Dual extraction. After phase 2, cost[idCol[i]] is the reduced cost
	// of row i's identity column; since that column is a unit vector with
	// zero objective coefficient, its reduced cost is −ŷ_i, the internal
	// (minimization-form, b≥0-normalized) dual of row i. Map back to the
	// problem's orientation: undo the row flip (σ = −1 if the row was
	// negated) and the min/max sign. Only the first len(p.cons) rows are
	// user constraints — the trailing upper-bound rows stay internal.
	//
	// This holds for EVERY row, including rows zeroed as redundant by
	// expelArtificials: pivots keep the whole cost row of the form
	// cost[j] = c_j − φ(A_j) for one linear functional φ, so reading φ at
	// the identity columns recovers a dual vector that satisfies the same
	// identities the simplex exit test guarantees for structural columns.
	// A numerically-redundant row can carry a genuinely nonzero dual
	// weight this way (the basis may express an active row's multiplier
	// through the dependent one); forcing it to 0 would break the
	// reduced-cost identity on instances with near-dependent rows.
	sol.Y = make([]float64, len(p.cons))
	for i := range p.cons {
		yhat := -t.cost[idCol[i]]
		if flip[i] {
			yhat = -yhat
		}
		sol.Y[i] = sign * yhat
	}
	sol.ReducedCost = make([]float64, len(p.vars))
	for j, v := range p.vars {
		sol.ReducedCost[j] = v.obj
	}
	for i, c := range p.cons {
		y := sol.Y[i]
		if y == 0 {
			continue
		}
		for _, tm := range c.terms {
			sol.ReducedCost[tm.Var] -= y * tm.Coef
		}
	}
	return sol, nil
}

// tableau is a dense simplex tableau. Row i occupies
// a[i*stride : i*stride+n+1] with the rhs in the final slot; cost is the
// reduced-cost row with the negated objective value in cost[n].
type tableau struct {
	m, n   int
	artLo  int // columns ≥ artLo are artificial
	stride int
	a      []float64
	basis  []int
	cost   []float64
	tol    float64
}

// iterate pivots until optimality, unboundedness, the iteration budget is
// exhausted, or opt.Budget trips (returned as the error). phase1 permits
// artificial columns to enter (they never improve phase-1 cost, but keeping
// the rule uniform is harmless); in phase 2 they are barred. Dantzig's rule
// is used until the objective stalls for 2*(m+n)+20 consecutive pivots,
// after which Bland's rule guarantees termination.
func (t *tableau) iterate(iters *int, opt Options, phase1 bool) (Status, error) {
	stallLimit := 2*(t.m+t.n) + 20
	stall := 0
	lastObj := math.Inf(1)
	bland := false
	enterLimit := t.n
	if !phase1 {
		enterLimit = t.artLo
	}
	for {
		if *iters >= opt.MaxIterations {
			return IterationLimit, nil
		}
		if err := opt.Budget.Charge(1); err != nil {
			return IterationLimit, err
		}
		// Entering column.
		enter := -1
		if bland {
			for j := 0; j < enterLimit; j++ {
				if t.cost[j] < -t.tol {
					enter = j
					break
				}
			}
		} else {
			best := -t.tol
			for j := 0; j < enterLimit; j++ {
				if t.cost[j] < best {
					best = t.cost[j]
					enter = j
				}
			}
		}
		if enter < 0 {
			return Optimal, nil
		}
		// Ratio test; ties broken by smallest basis index (lexicographic-ish
		// anti-cycling helper).
		leave := -1
		var minRatio float64
		for i := 0; i < t.m; i++ {
			aij := t.a[i*t.stride+enter]
			if aij <= t.tol {
				continue
			}
			r := t.a[i*t.stride+t.n] / aij
			if leave < 0 || r < minRatio-t.tol ||
				(r < minRatio+t.tol && t.basis[i] < t.basis[leave]) {
				leave = i
				minRatio = r
			}
		}
		if leave < 0 {
			return Unbounded, nil
		}
		t.pivot(leave, enter)
		*iters++

		obj := -t.cost[t.n]
		if obj < lastObj-t.tol {
			lastObj = obj
			stall = 0
		} else {
			stall++
			if stall > stallLimit {
				bland = true
			}
		}
	}
}

// pivot makes column enter basic in row leave by Gauss–Jordan elimination.
func (t *tableau) pivot(leave, enter int) {
	base := leave * t.stride
	pv := t.a[base+enter]
	inv := 1 / pv
	prow := t.a[base : base+t.n+1]
	for j := range prow {
		prow[j] *= inv
	}
	prow[enter] = 1 // exact
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		rbase := i * t.stride
		f := t.a[rbase+enter]
		if f == 0 {
			continue
		}
		row := t.a[rbase : rbase+t.n+1]
		for j := range row {
			row[j] -= f * prow[j]
		}
		row[enter] = 0 // exact
	}
	f := t.cost[enter]
	if f != 0 {
		for j := range t.cost {
			t.cost[j] -= f * prow[j]
		}
		t.cost[enter] = 0
	}
	t.basis[leave] = enter
}

// expelArtificials pivots basic artificial variables out of the basis after
// phase 1. Rows where no non-artificial pivot exists are redundant and are
// zeroed so they can never bind again.
func (t *tableau) expelArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artLo {
			continue
		}
		base := i * t.stride
		pivotCol := -1
		for j := 0; j < t.artLo; j++ {
			if math.Abs(t.a[base+j]) > t.tol {
				pivotCol = j
				break
			}
		}
		if pivotCol >= 0 {
			t.pivot(i, pivotCol)
			continue
		}
		// Redundant row (the artificial is basic at value ~0 and the row is
		// numerically zero over real columns): clear it.
		for j := 0; j <= t.n; j++ {
			t.a[base+j] = 0
		}
		// Keep the artificial basic in the zero row; since artificial
		// columns are barred from entering in phase 2 and the row is zero,
		// it never affects ratio tests.
	}
}
