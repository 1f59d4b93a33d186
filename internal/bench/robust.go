package bench

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/budget"
	"aquavol/internal/faults"
	"aquavol/internal/journal"
	"aquavol/internal/pipeline"
	recovery "aquavol/internal/recover"
	"aquavol/internal/vfs"
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

// errNoJournal wraps a refused journal creation in runJournaled: the
// run never started, which the E14 matrix counts as an outcome of its
// own.
var errNoJournal = errors.New("journal creation refused")

// runJournaled executes one seeded run of ca under the recovery runtime
// and fingerprints the final machine state. opts.Budget, when set,
// bounds the machine as well as the loop. A non-empty path journals the
// run there through fsys, replacing any earlier journal; a run with
// opts.Crash set must abort.
//
// The journal file's close error is not reported: every append is
// fsynced before it returns, so a failed close loses nothing the run
// journaled, and under an injected fault it is a strike site the E14
// matrix classifies, not a harness failure.
func (ca *compiledAssay) runJournaled(fsys vfs.FS, path string, p faults.Profile, seed int64,
	opts recovery.Options) (*recovery.Outcome, string, error) {
	m, err := ca.newMachine(p, seed, opts.Budget)
	if err != nil {
		return nil, "", err
	}
	if path != "" {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, "", err
		}
		jw, f, err := journal.Create(fsys, path, false)
		if err != nil {
			return nil, "", fmt.Errorf("%w: %w", errNoJournal, err)
		}
		defer f.Close() //fluidvet:allow syncerr every append was already fsynced; a close strike is a classified E14 fault
		opts.Journal = jw
	}
	out := recovery.Run(m, ca.Code.Prog, ca.Recovery(), opts)
	if opts.Crash != nil && out.Status != recovery.Aborted {
		return nil, "", fmt.Errorf("crash run finished with status %s", out.Status)
	}
	fp, err := machineFP(m)
	return out, fp, err
}

// resumed is what one harness resume reports.
type resumed struct {
	out *recovery.Outcome
	// fp fingerprints the final machine state.
	fp string
	// rung is the snapshot the ladder ran from, nil for a restart.
	rung *journal.Snapshot
	// notes are the ladder's rejected-rung and chosen-rung lines.
	notes []string
	// newest is the last snapshot in the salvaged journal, nil if none.
	newest *journal.Snapshot
}

// fromNewest errors unless the ladder ran from the journal's newest
// snapshot. Determinism lands an older rung or a restart on the same
// fingerprint, so a gate that counts only matching fingerprints would
// pass even with snapshot writing or restoring broken; the gates whose
// journals always end in a good snapshot (a run writes one at its
// starting boundary) demand this as well.
func (r *resumed) fromNewest() error {
	if r.rung == nil || r.rung != r.newest {
		return fmt.Errorf("ladder did not resume from the newest snapshot: %s", strings.Join(r.notes, "; "))
	}
	return nil
}

// resumeJournal salvages the journal at path and resumes it with
// recovery.Resume, appending to the same journal, exactly as fluidvm
// -resume does. A storage strike can leave a journal that is only its
// header: nothing is salvageable to append after, so that resume is an
// unjournaled restart from the beginning.
func (ca *compiledAssay) resumeJournal(path string, p faults.Profile, seed int64, opts recovery.Options) (*resumed, error) {
	recs, _, w, f, err := journal.OpenAppend(vfs.OS{}, path)
	if err != nil {
		var rerr error
		if recs, _, rerr = journal.Recover(vfs.OS{}, path); rerr != nil || len(recs) > 0 {
			return nil, err
		}
	} else {
		defer f.Close() //fluidvet:allow syncerr every append was already fsynced
		opts.Journal = w
	}
	r := &resumed{}
	for _, rec := range recs {
		if rec.Kind == journal.KindSnapshot {
			r.newest = rec.Snapshot
		}
	}
	var m *aquacore.Machine
	r.out, r.rung, err = recovery.Resume(
		func() (*aquacore.Machine, error) {
			mm, merr := ca.newMachine(p, seed, nil)
			m = mm
			return mm, merr
		},
		ca.Code.Prog, ca.Recovery(), opts, recs,
		func(s string) { r.notes = append(r.notes, s) })
	if err != nil {
		return nil, err
	}
	r.fp, err = machineFP(m)
	return r, err
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
				out, _, err := ca.runJournaled(nil, "", p, int64(1000*s+7), recovery.Options{})
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
		o, _, err := ca.runJournaled(nil, "", marginSweepProfile(), 0,
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
