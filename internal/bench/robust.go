package bench

import (
	"fmt"

	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/budget"
	"aquavol/internal/faults"
	"aquavol/internal/journal"
	"aquavol/internal/pipeline"
	recovery "aquavol/internal/recover"
)

// compiledAssay is a named assay taken through the compile pipeline,
// ready to execute: every run gets a fresh machine and volume source.
type compiledAssay struct {
	name string
	*pipeline.Compiled
}

// compileForRun compiles an assay exactly as fluidvm does, with safety
// margin margin.
func compileForRun(name, src string, margin float64) (*compiledAssay, error) {
	c, err := pipeline.Compile(src, pipeline.Options{Margin: margin})
	if err != nil {
		return nil, err
	}
	return &compiledAssay{name: name, Compiled: c}, nil
}

// newMachine builds a fresh machine for one run under profile p and seed,
// charging execution to meter (nil for unbounded runs; the E15
// cancellation matrix passes one).
func (ca *compiledAssay) newMachine(p faults.Profile, seed int64, meter *budget.Meter) (*aquacore.Machine, error) {
	mc := aquacore.Config{Budget: meter}
	if p.Enabled() {
		mc.Faults = faults.New(p, seed)
	}
	return ca.NewMachine(mc)
}

// runRecovered executes one seeded run under the recovery runtime,
// returning the machine too so callers can fingerprint its final state.
func (ca *compiledAssay) runRecovered(p faults.Profile, seed int64, opts recovery.Options) (*recovery.Outcome, *aquacore.Machine, error) {
	m, err := ca.newMachine(p, seed, nil)
	if err != nil {
		return nil, nil, err
	}
	return recovery.Run(m, ca.Code.Prog, ca.Recovery(), opts), m, nil
}

// resumeRecovered restores snap onto a fresh machine and continues the
// run — the bench side of the chaos harness.
func (ca *compiledAssay) resumeRecovered(p faults.Profile, seed int64, opts recovery.Options,
	snap *journal.Snapshot) (*recovery.Outcome, *aquacore.Machine, error) {
	m, err := ca.newMachine(p, seed, nil)
	if err != nil {
		return nil, nil, err
	}
	out, err := recovery.Resume(m, ca.Code.Prog, ca.Recovery(), opts, snap)
	if err != nil {
		return nil, nil, err
	}
	return out, m, nil
}

// robustnessAssays compiles the three paper assays for fault sweeps.
func robustnessAssays() ([]*compiledAssay, error) {
	specs := []struct{ name, src string }{
		{"glucose", assays.GlucoseSource},
		{"glycomics", assays.GlycomicsSource},
		{"enzyme", assays.EnzymeSource(2)},
	}
	var out []*compiledAssay
	for _, s := range specs {
		ca, err := compileForRun(s.name, s.src, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		out = append(out, ca)
	}
	return out, nil
}

// Robustness is the Monte-Carlo fault sweep: every paper assay × every
// fault preset × seeds runs under the recovery runtime, reporting how
// often execution completes (cleanly or degraded), how much repair it
// took, and what the faults cost in fluid and time.
func Robustness(seeds int) *Table {
	if seeds <= 0 {
		seeds = 5
	}
	cas, err := robustnessAssays()
	if err != nil {
		panic(err)
	}
	t := &Table{
		ID:    "E10/Robust",
		Title: fmt.Sprintf("fault injection + recovery, %d seeds per cell", seeds),
		Header: []string{"assay", "profile", "completed", "degraded", "aborted",
			"retries", "regens", "fault loss", "wet time"},
	}
	for _, ca := range cas {
		for _, pname := range faults.Presets() {
			p, _ := faults.Preset(pname)
			var completed, degraded, aborted int
			var retries, regens, loss, wet float64
			for s := 0; s < seeds; s++ {
				out, _, err := ca.runRecovered(p, int64(1000*s+7), recovery.Options{})
				if err != nil {
					panic(err)
				}
				switch out.Status {
				case recovery.Completed:
					completed++
				case recovery.CompletedDegraded:
					degraded++
				default:
					aborted++
				}
				retries += float64(out.Retries)
				regens += float64(out.Regens)
				loss += out.Result.FaultLoss()
				wet += out.Result.WetSeconds
			}
			n := float64(seeds)
			t.Rows = append(t.Rows, []string{
				ca.name, pname,
				fmt.Sprintf("%d/%d", completed, seeds),
				fmt.Sprintf("%d/%d", degraded, seeds),
				fmt.Sprintf("%d/%d", aborted, seeds),
				fmt.Sprintf("%.1f", retries/n),
				fmt.Sprintf("%.1f", regens/n),
				fmtVol(loss / n),
				fmt.Sprintf("%.0f s", wet/n),
			})
		}
	}
	t.Notes = append(t.Notes,
		"recovery: bounded in-place retries + backward-slice regeneration (internal/recover)",
		"reproducible: each cell is a fixed seed sequence; rerunning the table is bit-identical")
	return t
}

// marginSweepProfile is the deterministic loss-only profile MarginSweep
// uses: dead volume and evaporation deplete fluids, but nothing is random
// (no jitter, no failures), so each margin either always or never
// completes.
func marginSweepProfile() faults.Profile {
	return faults.Profile{DeadVolume: 0.15, EvapRate: 2e-5}
}

// MarginEpsilons is the sweep range of the safety-margin experiment.
var MarginEpsilons = []float64{0, 0.05, 0.1, 0.2}

// MarginOutcome reports one margin-sweep cell.
type MarginOutcome struct {
	Margin    float64
	Status    recovery.Status
	RanOut    int
	FaultLoss float64
}

// MarginSweepOutcomes runs the glucose assay under the deterministic
// loss-only profile with recovery DISABLED at each safety margin: the
// margin alone must absorb the losses. Completion is monotonically
// non-decreasing in the margin.
func MarginSweepOutcomes() ([]MarginOutcome, error) {
	var out []MarginOutcome
	for _, eps := range MarginEpsilons {
		ca, err := compileForRun("glucose", assays.GlucoseSource, eps)
		if err != nil {
			return nil, err
		}
		o, _, err := ca.runRecovered(marginSweepProfile(), 0,
			recovery.Options{DisableRetry: true, DisableRegen: true})
		if err != nil {
			return nil, err
		}
		ranOut := 0
		for _, e := range o.Result.Events {
			if e.Kind == aquacore.EventRanOut {
				ranOut++
			}
		}
		out = append(out, MarginOutcome{
			Margin: eps, Status: o.Status, RanOut: ranOut,
			FaultLoss: o.Result.FaultLoss(),
		})
	}
	return out, nil
}

// MarginSweep renders MarginSweepOutcomes as a table.
func MarginSweep() *Table {
	outs, err := MarginSweepOutcomes()
	if err != nil {
		panic(err)
	}
	t := &Table{
		ID:     "E11/Margin",
		Title:  "safety-margin sweep, glucose, deterministic loss-only faults, recovery off",
		Header: []string{"margin", "status", "ran-out events", "fault loss"},
	}
	for _, o := range outs {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", 100*o.Margin),
			o.Status.String(),
			fmt.Sprintf("%d", o.RanOut),
			fmtVol(o.FaultLoss),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("profile %s: losses are deterministic, so completion depends only on the margin", marginSweepProfile()),
		"over-provisioning by (1+margin) absorbs dead-volume and evaporation losses without replanning")
	return t
}
