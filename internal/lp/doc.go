// Package lp implements a self-contained linear-programming solver.
//
// The paper "Automatic Volume Management for Programmable Microfluidics"
// (PLDI 2008) solves its Rational Volume Management (RVol) formulation with
// Matlab's linprog (LIPSOL). This repository is stdlib-only, so this package
// provides the substitute: a sparse two-phase revised primal simplex over
// float64. The tests cross-validate it against an exact mirror over
// math/big.Rat.
//
// The solver handles problems of the form
//
//	min (or max)  cᵀx
//	subject to    aᵢᵀx  {≤, ≥, =}  bᵢ      for each constraint i
//	              lo_j ≤ x_j ≤ hi_j        for each variable j
//
// Finite lower bounds are eliminated by shifting and free variables are
// split into positive and negative parts, so the core simplex only ever
// sees x ≥ 0. A finite upper bound still becomes one extra row; the RVol
// formulation sets none, only internal/ilp's branching does.
//
// Design. RVol rows touch few variables (about 2.4 nonzeros per row on the
// enzyme assays), so Solve keeps the constraint matrix by columns, built
// straight from the merged terms, and never forms B⁻¹A. The basis is held
// as a product-form factorization of B⁻¹ (factor.go): a refactorization
// orders the basis into row singletons, a small kernel and column
// singletons, so only the kernel fills in, and each later basis change
// appends one eta column. Every iteration computes the duals by BTRAN,
// prices the nonbasic columns against them, and FTRANs the entering
// column for the ratio test. After refactorEvery changes the eta file is
// dropped, the basis refactorized and the basic values recomputed from
// B⁻¹b. Memory is O(nonzeros) plus the eta file, where a dense tableau
// needed O(m·(n+m)).
//
// Determinism: given the same Problem, Solve always performs the same pivot
// sequence (Dantzig's rule, lowest index on ties, with a Bland's-rule
// anti-cycling fallback), so results are reproducible across runs. The
// duals of an optimal solve are c_Bᵀ B⁻¹ from the last BTRAN, so Solution.Y
// and Solution.ReducedCost certify exactly the basis the exit test
// checked.
package lp
