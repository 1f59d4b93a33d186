package lp

import (
	"math"
	"sort"
)

// factor holds B⁻¹ in product form, B⁻¹ = E_k⁻¹ ⋯ E_1⁻¹: each eta E_t is the
// identity with column r replaced by a column whose entry in row r is piv
// and whose other nonzeros are idx/val[start:end]. The etas written by the
// last refactorization come first (fresh of them); every basis change
// since appends one more.
type factor struct {
	etas  []eta
	idx   []int32
	val   []float64
	fresh int
}

type eta struct {
	r          int32
	start, end int32
	piv        float64
}

func (f *factor) reset() {
	f.etas, f.idx, f.val, f.fresh = f.etas[:0], f.idx[:0], f.val[:0], 0
}

// push appends the eta for column v pivoted in row r, keeping v's nonzeros.
func (f *factor) push(r int, v []float64) {
	start := len(f.idx)
	for i, a := range v {
		if a != 0 && i != r {
			f.idx = append(f.idx, int32(i))
			f.val = append(f.val, a)
		}
	}
	f.etas = append(f.etas, eta{r: int32(r), start: int32(start), end: int32(len(f.idx)), piv: v[r]})
}

// pushSparse appends the eta for a column given by its nonzeros, pivoted
// in row r. A unit column (a slack, or an artificial) needs none.
func (f *factor) pushSparse(r int, rows []int32, vals []float64) {
	if len(rows) == 1 && vals[0] == 1 {
		return
	}
	start := len(f.idx)
	piv := 0.0
	for k, i := range rows {
		if int(i) == r {
			piv = vals[k]
			continue
		}
		f.idx = append(f.idx, i)
		f.val = append(f.val, vals[k])
	}
	f.etas = append(f.etas, eta{r: int32(r), start: int32(start), end: int32(len(f.idx)), piv: piv})
}

// ftran overwrites v with B⁻¹v.
func (f *factor) ftran(v []float64) {
	for _, e := range f.etas {
		xr := v[e.r]
		if xr == 0 {
			continue
		}
		xr /= e.piv
		v[e.r] = xr
		idx, val := f.idx[e.start:e.end], f.val[e.start:e.end]
		for k, i := range idx {
			v[i] -= val[k] * xr
		}
	}
}

// btran overwrites v with (vᵀB⁻¹)ᵀ.
func (f *factor) btran(v []float64) {
	for t := len(f.etas) - 1; t >= 0; t-- {
		e := &f.etas[t]
		s := v[e.r]
		idx, val := f.idx[e.start:e.end], f.val[e.start:e.end]
		for k, i := range idx {
			s -= val[k] * v[i]
		}
		v[e.r] = s / e.piv
	}
}

// reinversion is the scratch space of refactor, kept across calls.
type reinversion struct {
	rowStart, rowCol []int // B by rows: the basis positions with an entry in each row
	rowCnt, colCnt   []int // active entries per row / per basis position
	rowOff, colOff   []bool
	queue, order     []int
	pivRow           []int // pivRow[k]: the row basis position k is pivoted in
	kernel, prev     []int
	taken            []bool
}

// refactor factorizes the current basis afresh into spare, swaps it in, and
// recomputes the basic values. The basis is ordered so that as much of it
// as possible is triangular: row singletons come first and column
// singletons last, and neither fills in; only the remaining kernel is
// eliminated with FTRAN, pivoting each column on its largest entry. After
// the swap each basic column's slot is the row it was pivoted in. If the
// kernel turns out numerically singular the old factorization is kept.
func (s *simplex) refactor() {
	m, re := s.m, &s.re
	if re.rowCnt == nil {
		re.rowStart = make([]int, m+1)
		re.rowCnt = make([]int, m)
		re.colCnt = make([]int, m)
		re.rowOff = make([]bool, m)
		re.colOff = make([]bool, m)
		re.pivRow = make([]int, m)
		re.taken = make([]bool, m)
	}
	col := func(k int) (rows []int32, vals []float64) {
		j := s.basis[k]
		return s.rowIdx[s.colStart[j]:s.colStart[j+1]], s.val[s.colStart[j]:s.colStart[j+1]]
	}

	// The row pattern of B, and the active counts.
	clear(re.rowStart)
	for k := 0; k < m; k++ {
		rows, _ := col(k)
		re.colCnt[k] = len(rows)
		for _, i := range rows {
			re.rowStart[i+1]++
		}
	}
	for i := 0; i < m; i++ {
		re.rowCnt[i] = re.rowStart[i+1]
		re.rowStart[i+1] += re.rowStart[i]
	}
	re.rowCol = growInts(re.rowCol, re.rowStart[m])
	fill := append(re.queue[:0], re.rowStart[:m]...)
	for k := 0; k < m; k++ {
		rows, _ := col(k)
		for _, i := range rows {
			re.rowCol[fill[i]] = k
			fill[i]++
		}
	}
	clear(re.rowOff)
	clear(re.colOff)
	clear(re.taken)
	order := re.order[:0]

	// Row singletons, in the order found: each pivots on the one active
	// column left in its row.
	queue := fill[:0]
	for i := 0; i < m; i++ {
		if re.rowCnt[i] == 1 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if re.rowOff[i] || re.rowCnt[i] != 1 {
			continue
		}
		k := -1
		for _, c := range re.rowCol[re.rowStart[i]:re.rowStart[i+1]] {
			if !re.colOff[c] {
				k = c
				break
			}
		}
		re.rowOff[i], re.colOff[k], re.pivRow[k] = true, true, i
		order = append(order, k)
		rows, _ := col(k)
		for _, i2 := range rows {
			if !re.rowOff[i2] {
				if re.rowCnt[i2]--; re.rowCnt[i2] == 1 {
					queue = append(queue, int(i2))
				}
			}
		}
	}
	nRow := len(order)

	// Column singletons among what is left, pivoted last in reverse order
	// of discovery.
	for k := 0; k < m; k++ {
		if re.colOff[k] {
			continue
		}
		cnt := 0
		rows, _ := col(k)
		for _, i := range rows {
			if !re.rowOff[i] {
				cnt++
			}
		}
		re.colCnt[k] = cnt
		if cnt == 1 {
			queue = append(queue, k)
		}
	}
	for len(queue) > 0 {
		k := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if re.colOff[k] || re.colCnt[k] != 1 {
			continue
		}
		i := -1
		rows, _ := col(k)
		for _, r := range rows {
			if !re.rowOff[r] {
				i = int(r)
				break
			}
		}
		re.rowOff[i], re.colOff[k], re.pivRow[k] = true, true, i
		order = append(order, k)
		for _, c := range re.rowCol[re.rowStart[i]:re.rowStart[i+1]] {
			if !re.colOff[c] {
				if re.colCnt[c]--; re.colCnt[c] == 1 {
					queue = append(queue, c)
				}
			}
		}
	}
	re.queue = queue
	nCol := len(order) - nRow

	// The kernel: sparsest columns first.
	kernel := re.kernel[:0]
	for k := 0; k < m; k++ {
		if !re.colOff[k] {
			kernel = append(kernel, k)
		}
	}
	sort.SliceStable(kernel, func(a, b int) bool { return re.colCnt[kernel[a]] < re.colCnt[kernel[b]] })
	re.kernel = kernel

	f := &s.spare
	f.reset()
	for _, k := range order[:nRow] {
		rows, vals := col(k)
		f.pushSparse(re.pivRow[k], rows, vals)
	}
	v := s.alpha
	clear(v)
	for _, k := range kernel {
		rows, vals := col(k)
		for t, i := range rows {
			v[i] = vals[t]
		}
		f.ftran(v)
		best, p := 0.0, -1
		for i, a := range v {
			if !re.rowOff[i] && !re.taken[i] && math.Abs(a) > best {
				best, p = math.Abs(a), i
			}
		}
		if p < 0 || best <= s.tol {
			clear(v)
			s.lu.fresh = len(s.lu.etas) // singular: keep the old factor
			re.order = order
			return
		}
		re.taken[p], re.pivRow[k] = true, p
		f.push(p, v)
		clear(v)
	}
	for t := nRow + nCol - 1; t >= nRow; t-- {
		k := order[t]
		rows, vals := col(k)
		f.pushSparse(re.pivRow[k], rows, vals)
	}
	f.fresh = len(f.etas)
	re.order = order
	s.lu, s.spare = s.spare, s.lu

	// Re-slot the basis: the column pivoted in row p sits in slot p.
	re.prev = append(re.prev[:0], s.basis...)
	for k, j := range re.prev {
		s.basis[re.pivRow[k]] = j
		s.slotOf[j] = re.pivRow[k]
	}
	copy(s.xB, s.rhs)
	s.lu.ftran(s.xB)
	for r, j := range s.basis {
		if s.dead[j] {
			s.xB[r] = 0
		}
	}
}

func growInts(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	return b[:n]
}
