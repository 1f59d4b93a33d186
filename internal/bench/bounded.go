package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"aquavol/internal/assays"
	"aquavol/internal/budget"
	"aquavol/internal/core"
	"aquavol/internal/faults"
	"aquavol/internal/ilp"
	"aquavol/internal/lp"
	recovery "aquavol/internal/recover"
	"aquavol/internal/vfs"
)

// E15: bounded execution. The cancel-at-every-boundary chaos matrix for
// the budget layer, the work-budget analogue of E12's kill-at-every-
// boundary durability matrix. Two halves:
//
//   - solver: each certified planning path (DAGSolve, LP, ILP) runs once
//     with a counting meter to learn its work-unit count W, then is
//     cancelled at a sweep of charge boundaries k; every cancelled run
//     must stop with the typed caller-cancelled cause after exactly k
//     work units, and a budget of exactly W must complete.
//   - exec: a journaled reference run learns its instruction count U and
//     final-state fingerprint, then fresh runs are cancelled at a sweep
//     of instruction boundaries; each must abort with the typed cause,
//     leave a journal with NO outcome record (fail-stop, crash-
//     equivalent), and resume from that journal bit-identical to the
//     uninterrupted run.
//
// The trichotomy — completed / clean typed cancel within bounded work /
// salvaged journal resumes bit-identically — is the table; wall-clock
// cancellation latency and budget-polling overhead are measured
// separately and appear only in the JSON report (BENCH_bounded.json),
// keeping the table deterministic.

// BoundedSolverCase is one planning path of the solver half.
type BoundedSolverCase struct {
	Solver string `json:"solver"`
	Assay  string `json:"assay"`
	// WorkUnits is the reference run's total charge count W.
	WorkUnits int64 `json:"workUnits"`
	// CancelPoints is how many charge boundaries k were swept.
	CancelPoints int `json:"cancelPoints"`
	// CleanCancels counts sweeps that stopped with the typed
	// caller-cancelled cause (errors.Is budget.ErrCancelled).
	CleanCancels int `json:"cleanCancels"`
	// ExactStops counts sweeps whose meter read exactly k work units
	// after the stop: no work at all happens past the cancel boundary.
	ExactStops int `json:"exactStops"`
	// CompletedAtBudget reports that a budget of exactly W work units
	// admitted the whole solve (the boundary is off-by-one tight).
	CompletedAtBudget bool `json:"completedAtBudget"`
}

// BoundedExecCell is one assay of the exec half.
type BoundedExecCell struct {
	Assay   string `json:"assay"`
	Profile string `json:"profile"`
	// WorkUnits is the reference run's instruction count U (the machine
	// charges one unit per instruction, retries included).
	WorkUnits int64 `json:"workUnits"`
	// CancelPoints is how many instruction boundaries were swept.
	CancelPoints int `json:"cancelPoints"`
	// CleanCancels counts sweeps that aborted with the typed cause and
	// wrote NO outcome record — the journal fail-stopped like a crash.
	CleanCancels int `json:"cleanCancels"`
	// Resumed counts sweeps whose salvaged journal resumed to a machine
	// state bit-identical to the uninterrupted reference run's.
	Resumed int `json:"resumed"`
	// CompletedAtBudget reports that a budget of exactly U instructions
	// admitted the whole run.
	CompletedAtBudget bool `json:"completedAtBudget"`
}

// BoundedReport is the JSON shape of BENCH_bounded.json. The latency
// and overhead numbers are wall-clock measurements and live only here,
// never in the deterministic table.
type BoundedReport struct {
	Schema string              `json:"schema"`
	Solver []BoundedSolverCase `json:"solver"`
	Exec   []BoundedExecCell   `json:"exec"`
	// Cancellation latency: time from a sibling goroutine's Cancel()
	// call to the in-flight solve returning with the typed cause.
	CancelLatencySamples   int     `json:"cancelLatencySamples"`
	CancelLatencyP50Micros float64 `json:"cancelLatencyP50Micros"`
	CancelLatencyP99Micros float64 `json:"cancelLatencyP99Micros"`
	// Budget-polling overhead: DAGSolve throughput with no meter vs with
	// an armed counting meter, same assay, paired measurement.
	BaselinePlansPerSec float64 `json:"baselinePlansPerSec"`
	MeteredPlansPerSec  float64 `json:"meteredPlansPerSec"`
	OverheadPct         float64 `json:"overheadPct"`
}

// boundedSeed fixes the exec matrix; the whole table is reproducible.
const boundedSeed = 42

// boundedSweep returns up to max cancel points covering 1..n, always
// including both ends: the first charge and the final one.
func boundedSweep(n int64, max int) []int64 {
	if n <= 0 {
		return nil
	}
	if int64(max) >= n {
		points := make([]int64, 0, n)
		for k := int64(1); k <= n; k++ {
			points = append(points, k)
		}
		return points
	}
	stride := (n + int64(max) - 1) / int64(max) // ceil: never collides with 1 or n
	points := []int64{1}
	for k := 1 + stride; k < n; k += stride {
		points = append(points, k)
	}
	return append(points, n)
}

// boundedSolverCases sweeps cancellation across every certified planning
// path. Each runCase builds its problem from scratch so runs are
// independent; the meter is the only shared state.
func boundedSolverCases() ([]BoundedSolverCase, error) {
	c := cfg()
	unitCfg := core.Config{
		MaxCapacity: c.MaxCapacity / c.LeastCount,
		LeastCount:  1,
		OutputSkew:  c.OutputSkew,
	}
	paths := []struct {
		solver, assay string
		run           func(m *budget.Meter) error
	}{
		{"dagsolve", "glucose", func(m *budget.Meter) error {
			cc := c
			cc.Budget = m
			_, err := core.DAGSolve(assays.GlucoseDAG(), cc, nil)
			return err
		}},
		{"lp", "enzyme4", func(m *budget.Meter) error {
			f, err := core.Formulate(assays.EnzymeDAG(4), c, core.FormulateOptions{}, nil)
			if err != nil {
				return err
			}
			_, err = f.Prob.Solve(lp.Options{Budget: m})
			return err
		}},
		{"ilp", "glucose", func(m *budget.Meter) error {
			f, err := core.Formulate(assays.GlucoseDAG(), unitCfg, core.FormulateOptions{}, nil)
			if err != nil {
				return err
			}
			_, err = ilp.Solve(f.Prob, ilp.Options{MaxNodes: 20000, Budget: m})
			return err
		}},
	}

	var cases []BoundedSolverCase
	for _, pc := range paths {
		// Reference: a counting meter (no limits) learns the work count.
		ref := budget.New(0)
		if err := pc.run(ref); err != nil {
			return nil, fmt.Errorf("%s/%s reference: %w", pc.solver, pc.assay, err)
		}
		cse := BoundedSolverCase{Solver: pc.solver, Assay: pc.assay, WorkUnits: ref.Used()}
		for _, k := range boundedSweep(cse.WorkUnits, 24) {
			m := budget.New(0).CancelAfter(k)
			err := pc.run(m)
			cse.CancelPoints++
			if !errors.Is(err, budget.ErrCancelled) {
				return nil, fmt.Errorf("%s/%s cancel at %d: err = %w, want caller-cancelled",
					pc.solver, pc.assay, k, err)
			}
			cse.CleanCancels++
			if m.Used() == k {
				cse.ExactStops++
			}
		}
		// The boundary is tight: exactly W work units complete the solve.
		if err := pc.run(budget.New(cse.WorkUnits)); err != nil {
			return nil, fmt.Errorf("%s/%s with budget %d: %w", pc.solver, pc.assay, cse.WorkUnits, err)
		}
		cse.CompletedAtBudget = true
		cases = append(cases, cse)
	}
	return cases, nil
}

// boundedExecCell runs the exec half for one assay: cancel at a sweep of
// instruction boundaries, assert fail-stop + bit-identical resume.
func boundedExecCell(ca *compiledAssay, pname string, snapshotEvery int, dir string) (*BoundedExecCell, error) {
	p, ok := faults.Preset(pname)
	if !ok {
		return nil, fmt.Errorf("unknown fault preset %q", pname)
	}
	opts := recovery.Options{SnapshotEvery: snapshotEvery}
	cell := &BoundedExecCell{Assay: ca.name, Profile: pname}

	budgeted := func(meter *budget.Meter) recovery.Options {
		o := opts
		o.Budget = meter
		return o
	}

	// Reference: uninterrupted, unjournaled run with a counting meter.
	refMeter := budget.New(0)
	refOut, want, err := ca.runJournaled(nil, "", p, boundedSeed, budgeted(refMeter))
	if err != nil {
		return nil, err
	}
	if refOut.Status == recovery.Aborted {
		return nil, fmt.Errorf("reference run aborted: %w", refOut.Err)
	}
	cell.WorkUnits = refMeter.Used()

	// Cancel at a sweep of instruction boundaries; each must fail-stop
	// (typed cause, no outcome record) and resume bit-identically. A
	// journal that gained an outcome record did not fail-stop: resume
	// refuses it as closed, and the sweep counts it as neither.
	cancelPath := filepath.Join(dir, ca.name+"-"+pname+"-bounded-cancel.aqj")
	for _, k := range boundedSweep(cell.WorkUnits, 24) {
		out, _, err := ca.runJournaled(vfs.OS{}, cancelPath, p, boundedSeed, budgeted(budget.New(0).CancelAfter(k)))
		if err != nil {
			return nil, fmt.Errorf("cancel at %d: %w", k, err)
		}
		cell.CancelPoints++
		if out.Status != recovery.Aborted || !errors.Is(out.Err, budget.ErrCancelled) {
			return nil, fmt.Errorf("cancel at %d: status %v err %w, want aborted/caller-cancelled",
				k, out.Status, out.Err)
		}
		r, err := ca.resumeJournal(cancelPath, p, boundedSeed, opts)
		if errors.Is(err, recovery.ErrJournalClosed) {
			continue
		}
		if err == nil {
			err = r.fromNewest()
		}
		if err != nil {
			return nil, fmt.Errorf("resume after cancel at %d: %w", k, err)
		}
		cell.CleanCancels++
		if r.fp == want {
			cell.Resumed++
		}
	}

	// Exactly U instructions of budget admit the whole run.
	out, _, err := ca.runJournaled(nil, "", p, boundedSeed, budgeted(budget.New(cell.WorkUnits)))
	if err != nil {
		return nil, err
	}
	cell.CompletedAtBudget = out.Status != recovery.Aborted
	return cell, nil
}

// BoundedOutcomes runs the full deterministic matrix: every solver path
// and every shipped assay. No wall-clock measurement happens here.
func BoundedOutcomes(snapshotEvery int) ([]BoundedSolverCase, []BoundedExecCell, error) {
	if snapshotEvery <= 0 {
		snapshotEvery = 4
	}
	solver, err := boundedSolverCases()
	if err != nil {
		return nil, nil, err
	}
	cas, err := robustnessAssays()
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp("", "aquavol-bounded")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	var exec []BoundedExecCell
	for _, ca := range cas {
		cell, err := boundedExecCell(ca, "mild", snapshotEvery, dir)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", ca.name, err)
		}
		exec = append(exec, *cell)
	}
	return solver, exec, nil
}

// cancelLatency measures the wall-clock gap between a sibling
// goroutine's Cancel() and the in-flight solve returning with the typed
// cause. The worker loops full DAGSolves against a shared meter; the
// measuring side waits for the loop to be hot, then cancels and times
// the detection. Reported in the JSON only.
func cancelLatency(trials int) (p50, p99 float64, n int, err error) {
	c := cfg()
	var lats []time.Duration
	for i := 0; i < trials; i++ {
		meter := budget.New(0)
		started := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			first := true
			for {
				cc := c
				cc.Budget = meter
				_, serr := core.DAGSolve(assays.EnzymeDAG(10), cc, nil)
				if serr != nil {
					done <- serr
					return
				}
				if first {
					close(started)
					first = false
				}
			}
		}()
		<-started
		t0 := time.Now() //fluidvet:allow determinism wall-clock timing is the benchmark's measurement, reported not replayed
		meter.Cancel()
		serr := <-done
		lat := time.Since(t0) //fluidvet:allow determinism wall-clock timing is the benchmark's measurement, reported not replayed
		if !errors.Is(serr, budget.ErrCancelled) {
			return 0, 0, 0, fmt.Errorf("latency trial %d: err = %w, want caller-cancelled", i, serr)
		}
		lats = append(lats, lat)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(q float64) float64 {
		idx := int(q*float64(len(lats))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(lats) {
			idx = len(lats) - 1
		}
		return float64(lats[idx].Nanoseconds()) / 1000
	}
	return pct(0.50), pct(0.99), len(lats), nil
}

// budgetOverhead compares DAGSolve throughput without a meter against
// the same solve with an armed counting meter. Glucose DAGSolve is the
// worst case for polling overhead (the highest charges-per-second of
// any path), so each sample batches solves to amortize timer noise, the
// two arms interleave, and each takes its best rep. The returned
// numbers are batch rates — only their ratio is meaningful.
func budgetOverhead() (base, metered float64, err error) {
	c := cfg()
	const (
		reps  = 3
		batch = 64
	)
	mc := c
	mc.Budget = budget.New(0) // one armed counting meter, reused: pure polling cost
	for i := 0; i < reps; i++ {
		st, merr := measure("glucose", "dagsolve-nometer", func() error {
			for j := 0; j < batch; j++ {
				if _, err := core.DAGSolve(assays.GlucoseDAG(), c, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if merr != nil {
			return 0, 0, merr
		}
		if st.PlansPerSec > base {
			base = st.PlansPerSec
		}
		st, merr = measure("glucose", "dagsolve-meter", func() error {
			for j := 0; j < batch; j++ {
				if _, err := core.DAGSolve(assays.GlucoseDAG(), mc, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if merr != nil {
			return 0, 0, merr
		}
		if st.PlansPerSec > metered {
			metered = st.PlansPerSec
		}
	}
	return base, metered, nil
}

// Bounded renders the E15 matrix and assembles the JSON report. The
// table is byte-for-byte deterministic (ci runs it twice and diffs);
// latency and overhead are measured after the matrix and appear only in
// the report.
func Bounded() (*Table, *BoundedReport, error) {
	solver, exec, err := BoundedOutcomes(4)
	if err != nil {
		return nil, nil, err
	}
	report := &BoundedReport{Schema: "aquavol/bench-bounded/v1", Solver: solver, Exec: exec}
	t := &Table{
		ID:    "E15/Bounded",
		Title: "bounded execution: cancel at every boundary, typed stop, bit-identical resume",
		Header: []string{"stage", "case", "work units", "cancel points",
			"clean typed cancels", "exact stops / identical resumes", "completes at budget"},
	}
	yes := func(ok bool) string {
		if ok {
			return "yes"
		}
		return "NO"
	}
	for _, s := range solver {
		t.Rows = append(t.Rows, []string{
			"solver", s.Solver + "/" + s.Assay,
			fmt.Sprintf("%d", s.WorkUnits),
			fmt.Sprintf("%d", s.CancelPoints),
			fmt.Sprintf("%d/%d", s.CleanCancels, s.CancelPoints),
			fmt.Sprintf("%d/%d", s.ExactStops, s.CancelPoints),
			yes(s.CompletedAtBudget),
		})
	}
	for _, e := range exec {
		t.Rows = append(t.Rows, []string{
			"exec", e.Assay + "/" + e.Profile,
			fmt.Sprintf("%d", e.WorkUnits),
			fmt.Sprintf("%d", e.CancelPoints),
			fmt.Sprintf("%d/%d", e.CleanCancels, e.CancelPoints),
			fmt.Sprintf("%d/%d", e.Resumed, e.CancelPoints),
			yes(e.CompletedAtBudget),
		})
	}
	t.Notes = append(t.Notes,
		"solver: cancel at charge k must stop with the typed cause after exactly k work units; a budget of exactly W completes",
		"exec: cancel at instruction k fail-stops the journal (typed cause, no outcome record) and the salvaged prefix resumes bit-identical to the uninterrupted run",
		fmt.Sprintf("snapshot cadence 4 boundaries; fixed seed %d; cancellation latency and polling overhead are wall-clock and live in the JSON report only", boundedSeed))

	p50, p99, n, err := cancelLatency(32)
	if err != nil {
		return nil, nil, err
	}
	report.CancelLatencyP50Micros, report.CancelLatencyP99Micros, report.CancelLatencySamples = p50, p99, n
	base, metered, err := budgetOverhead()
	if err != nil {
		return nil, nil, err
	}
	report.BaselinePlansPerSec, report.MeteredPlansPerSec = base, metered
	if metered > 0 {
		report.OverheadPct = 100 * (base/metered - 1)
	}
	return t, report, nil
}
