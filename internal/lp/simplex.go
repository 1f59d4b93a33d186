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
	// Budget, when non-nil, is charged one work unit per pricing pass
	// (every pivot, plus the closing pass of each phase) and can stop the
	// solve cooperatively. Unlike MaxIterations (which
	// terminates with Status IterationLimit), a budget stop is returned
	// as a typed error wrapping one of the budget sentinels, so callers
	// can tell bounded truncation from caller cancellation.
	Budget *budget.Meter
}

func (o Options) withDefaults(m, n int) Options {
	if o.MaxIterations == 0 {
		o.MaxIterations = 200*(m+n) + 1000
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

// Solve runs a two-phase revised primal simplex and returns the solution.
// An error is returned only for structurally invalid problems or a tripped
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

	// Rows: user constraints plus one internal row per finite upper
	// bound. A row keeps only its sense and rhs; entries(i, visit) walks
	// its structural coefficients, which go straight into the
	// column-major matrix below.
	var ubVar []VarID
	for j, v := range p.vars {
		if !math.IsInf(v.hi, 1) {
			ubVar = append(ubVar, VarID(j))
		}
	}
	m := len(p.cons) + len(ubVar)
	entries := func(i int, visit func(col int, a float64)) {
		term := func(v VarID, a float64) {
			visit(colOf[v], a)
			if math.IsInf(p.vars[v].lo, -1) {
				visit(colOf[v]+1, -a)
			}
		}
		if i < len(p.cons) {
			for _, t := range p.cons[i].terms {
				term(t.Var, t.Coef)
			}
			return
		}
		term(ubVar[i-len(p.cons)], 1)
	}
	sense := make([]Sense, m)
	rhs := make([]float64, m)
	for i, c := range p.cons {
		sense[i], rhs[i] = c.sense, c.rhs
		for _, t := range c.terms {
			rhs[i] -= t.Coef * shift[t.Var]
		}
	}
	for k, v := range ubVar {
		i := len(p.cons) + k
		sense[i], rhs[i] = LE, p.vars[v].hi-shift[v]
	}
	opt := opts.withDefaults(m, nStruct)

	// Normalize to b ≥ 0 and count auxiliary columns. flip remembers which
	// rows were negated so dual values can be mapped back to the original
	// row orientation after the solve.
	flip := make([]bool, m)
	nSlack, nArt := 0, 0
	for i := range rhs {
		if rhs[i] < 0 {
			flip[i] = true
			rhs[i] = -rhs[i]
			switch sense[i] {
			case LE:
				sense[i] = GE
			case GE:
				sense[i] = LE
			}
		}
		switch sense[i] {
		case LE:
			nSlack++
		case GE:
			nSlack++ // surplus
			nArt++
		case EQ:
			nArt++
		}
	}

	n := nStruct + nSlack + nArt
	// start counts each structural column's entries one slot up, so its
	// prefix sum gives the column starts; it then serves as the fill
	// cursor. Rows are filled in order, so each column's entries come out
	// in ascending row order.
	start := make([]int, nStruct+1)
	for i := 0; i < m; i++ {
		entries(i, func(col int, _ float64) { start[col+1]++ })
	}
	for j := 1; j <= nStruct; j++ {
		start[j] += start[j-1]
	}
	nnzStruct := start[nStruct]
	s := newSimplex(m, n, nStruct+nSlack, nnzStruct+nSlack+nArt, PivotTol)
	copy(s.rhs, rhs)
	copy(s.colStart, start)
	for i := 0; i < m; i++ {
		entries(i, func(col int, a float64) {
			if flip[i] {
				a = -a
			}
			k := start[col]
			start[col]++
			s.rowIdx[k], s.val[k] = int32(i), a
		})
	}

	// Auxiliary columns, one entry each: a slack (+1) for each LE row, a
	// surplus (−1) and an artificial (+1) for each GE row, an artificial
	// for each EQ row. The starting basis is the +1 column of every row,
	// the identity matrix.
	for j := nStruct; j <= n; j++ {
		s.colStart[j] = nnzStruct + j - nStruct
	}
	aux := func(col, row int, a float64) {
		k := s.colStart[col]
		s.rowIdx[k], s.val[k] = int32(row), a
	}
	slackAt, artAt := nStruct, s.artLo
	for i := range sense {
		switch sense[i] {
		case LE:
			aux(slackAt, i, 1)
			s.setBasic(i, slackAt)
			slackAt++
		case GE:
			aux(slackAt, i, -1)
			slackAt++
			aux(artAt, i, 1)
			s.setBasic(i, artAt)
			artAt++
		case EQ:
			aux(artAt, i, 1)
			s.setBasic(i, artAt)
			artAt++
		}
	}
	copy(s.xB, rhs)

	sol := &Solution{X: make([]float64, len(p.vars))}

	// Phase 1: minimize the sum of artificial variables.
	if nArt > 0 {
		for j := s.artLo; j < n; j++ {
			s.cost[j] = 1
		}
		st, err := s.iterate(&sol.Iterations, opt, true)
		if err != nil {
			return nil, err
		}
		if st == IterationLimit {
			sol.Status = IterationLimit
			return sol, nil
		}
		if s.basicCost() > FeasTol {
			sol.Status = Infeasible
			return sol, nil
		}
		s.expelArtificials()
	}

	// Phase 2: original objective, artificials barred from entering.
	sign := 1.0
	if p.dir == Maximize {
		sign = -1
	}
	clear(s.cost)
	for j, c := range cols {
		s.cost[j] = sign * p.vars[c.orig].obj * c.sign
	}
	st, err := s.iterate(&sol.Iterations, opt, false)
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
	for r, v := range s.xB {
		if v < 0 && v > -FeasTol {
			v = 0
		}
		colVal[s.basis[r]] = v
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
	// Dual extraction. The last pricing pass left y = c_Bᵀ B⁻¹ from BTRAN:
	// the internal (minimization-form, b≥0-normalized) duals that the exit
	// test checked every c_j − yᵀa_j ≥ −tol against. A redundant row's
	// dead artificial costs 0, so its dual is whatever weight the basis
	// gives it; forcing it to 0 would break the reduced-cost identity on
	// near-dependent rows. Map back to the problem's orientation: undo the
	// row flip (σ = −1 if the row was negated) and the min/max sign. Only
	// the first len(p.cons) rows are user constraints — the trailing
	// upper-bound rows stay internal.
	sol.Y = make([]float64, len(p.cons))
	for i := range p.cons {
		yhat := s.y[i]
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

// refactorEvery is the number of basis changes after which the eta file
// is dropped and the basis factorized afresh. Each change appends one eta
// as long as the FTRAN'd entering column, so BTRAN and FTRAN slow down as
// the file grows; refactorizing also resets the basic values from
// B⁻¹b, shedding the rounding the incremental updates accumulated.
const refactorEvery = 64

// simplex is the working state of a revised simplex solve over the
// b ≥ 0 normalized standard form  min cᵀx, Ax = b, x ≥ 0. Columns
// [0, artLo) are structural then slack/surplus; [artLo, n) are
// artificial. A is stored by columns and never changes; the basis lives
// in lu as a product-form factorization of B⁻¹.
type simplex struct {
	m, n  int
	artLo int
	tol   float64

	// Column j's entries are rowIdx/val[colStart[j]:colStart[j+1]], in
	// ascending row order.
	colStart []int
	rowIdx   []int32
	val      []float64
	rhs      []float64

	cost   []float64 // the current phase's objective, by column
	basis  []int     // basis[r]: the column basic in slot r
	slotOf []int     // slotOf[j]: column j's slot, or −1 when nonbasic
	dead   []bool    // artificials left basic in rows found redundant
	xB     []float64 // basic values, by slot

	lu, spare factor
	re        reinversion
	y, alpha  []float64 // BTRAN and FTRAN results
}

func newSimplex(m, n, artLo, nnz int, tol float64) *simplex {
	s := &simplex{
		m: m, n: n, artLo: artLo, tol: tol,
		colStart: make([]int, n+1),
		rowIdx:   make([]int32, nnz),
		val:      make([]float64, nnz),
		rhs:      make([]float64, m),
		cost:     make([]float64, n),
		basis:    make([]int, m),
		slotOf:   make([]int, n),
		dead:     make([]bool, n),
		xB:       make([]float64, m),
		y:        make([]float64, m),
		alpha:    make([]float64, m),
	}
	for j := range s.slotOf {
		s.slotOf[j] = -1
	}
	return s
}

func (s *simplex) setBasic(r, j int) {
	if old := s.basis[r]; s.slotOf[old] == r {
		s.slotOf[old] = -1
	}
	s.basis[r] = j
	s.slotOf[j] = r
}

// basicCost is c_Bᵀ x_B at the current basis.
func (s *simplex) basicCost() float64 {
	var c float64
	for r, v := range s.xB {
		if cb := s.cost[s.basis[r]]; cb != 0 {
			c += cb * v
		}
	}
	return c
}

// iterate pivots until optimality, unboundedness, the iteration budget is
// exhausted, or opt.Budget trips (returned as the error). Each pass
// computes the duals by BTRAN, prices every nonbasic column against them,
// and FTRANs the entering column for the ratio test. phase1 permits
// artificial columns to enter (they never improve phase-1 cost, but keeping
// the rule uniform is harmless); in phase 2 they are barred. Dantzig's rule
// is used until the objective stalls for 2*(m+n)+20 consecutive pivots,
// after which Bland's rule guarantees termination.
func (s *simplex) iterate(iters *int, opt Options, phase1 bool) (Status, error) {
	stallLimit := 2*(s.m+s.n) + 20
	stall := 0
	obj, lastObj := s.basicCost(), math.Inf(1)
	bland := false
	enterLimit := s.n
	if !phase1 {
		enterLimit = s.artLo
	}
	for {
		if *iters >= opt.MaxIterations {
			return IterationLimit, nil
		}
		if err := opt.Budget.Charge(1); err != nil {
			return IterationLimit, err
		}
		for r, j := range s.basis {
			s.y[r] = s.cost[j]
		}
		s.lu.btran(s.y)
		enter, d := s.price(enterLimit, bland)
		if enter < 0 {
			return Optimal, nil
		}
		s.ftranColumn(enter)
		leave := s.ratioTest()
		if leave < 0 {
			return Unbounded, nil
		}
		theta := s.pivot(leave, enter)
		*iters++

		obj += d * theta
		if obj < lastObj-s.tol {
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

// price returns the entering column among the nonbasic columns below
// limit and its reduced cost c_j − yᵀa_j, or −1 when none is below −tol.
// Dantzig's rule takes the most negative, the lowest index on ties;
// Bland's rule takes the first.
func (s *simplex) price(limit int, bland bool) (int, float64) {
	enter, best := -1, -s.tol
	for j := 0; j < limit; j++ {
		if s.slotOf[j] >= 0 {
			continue
		}
		d := s.cost[j]
		for k := s.colStart[j]; k < s.colStart[j+1]; k++ {
			d -= s.y[s.rowIdx[k]] * s.val[k]
		}
		if d < best {
			enter, best = j, d
			if bland {
				break
			}
		}
	}
	return enter, best
}

// ftranColumn sets alpha = B⁻¹a_j.
func (s *simplex) ftranColumn(j int) {
	clear(s.alpha)
	for k := s.colStart[j]; k < s.colStart[j+1]; k++ {
		s.alpha[s.rowIdx[k]] = s.val[k]
	}
	s.lu.ftran(s.alpha)
}

// ratioTest returns the slot that leaves when alpha's column enters, or −1
// when no entry of alpha is positive. Ties are broken by the smallest
// basic column index. Redundant rows never take part.
func (s *simplex) ratioTest() int {
	leave := -1
	var minRatio float64
	for i, a := range s.alpha {
		if a <= s.tol || s.dead[s.basis[i]] {
			continue
		}
		r := s.xB[i] / a
		if leave < 0 || r < minRatio-s.tol ||
			(r < minRatio+s.tol && s.basis[i] < s.basis[leave]) {
			leave = i
			minRatio = r
		}
	}
	return leave
}

// pivot makes column enter basic in slot leave, alpha holding B⁻¹a_enter,
// and returns the entering value.
func (s *simplex) pivot(leave, enter int) float64 {
	theta := s.xB[leave] * (1 / s.alpha[leave])
	for i, a := range s.alpha {
		if a != 0 && i != leave && !s.dead[s.basis[i]] {
			s.xB[i] -= a * theta
		}
	}
	s.xB[leave] = theta
	s.setBasic(leave, enter)
	s.lu.push(leave, s.alpha)
	if len(s.lu.etas)-s.lu.fresh >= refactorEvery {
		s.refactor()
	}
	return theta
}

// expelArtificials pivots basic artificial variables out of the basis after
// phase 1. A row where no non-artificial column has a nonzero entry of
// B⁻¹A is redundant: its artificial stays basic at zero, marked dead, and
// never takes part in a ratio test again.
func (s *simplex) expelArtificials() {
	for q := s.artLo; q < s.n; q++ {
		r := s.slotOf[q]
		if r < 0 {
			continue
		}
		clear(s.y)
		s.y[r] = 1
		s.lu.btran(s.y) // row r of B⁻¹
		enter := -1
		for j := 0; j < s.artLo && enter < 0; j++ {
			if s.slotOf[j] >= 0 {
				continue
			}
			var a float64
			for k := s.colStart[j]; k < s.colStart[j+1]; k++ {
				a += s.y[s.rowIdx[k]] * s.val[k]
			}
			if math.Abs(a) > s.tol {
				enter = j
			}
		}
		if enter < 0 {
			s.dead[q] = true
			s.xB[r] = 0
			continue
		}
		s.ftranColumn(enter)
		s.pivot(r, enter)
	}
}
