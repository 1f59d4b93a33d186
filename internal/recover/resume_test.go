package recovery_test

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"aquavol/internal/ais"
	"aquavol/internal/aquacore"
	"aquavol/internal/faults"
	"aquavol/internal/journal"
	recovery "aquavol/internal/recover"
	"aquavol/internal/vfs"
)

// ladderFixture is a crashed journaled run with several snapshot rungs,
// plus everything a resume needs and the uninterrupted run's reference
// fingerprint.
type ladderFixture struct {
	prog *ais.Program
	comp *recovery.Compiled
	mk   func() *aquacore.Machine
	recs []*journal.Record
	// snaps are the snapshot bodies of recs, oldest first; poisoning one
	// poisons the journal the resume reads.
	snaps []*journal.Snapshot
	want  string
}

// newLadderFixture kills a journaled glucose run late under a tight
// snapshot cadence, leaving at least three rungs to fall back across.
func newLadderFixture(t *testing.T) *ladderFixture {
	t.Helper()
	ep, plan, cg := compileGlucose(t)
	profile, _ := faults.Preset("moderate")
	const seed = 42
	fx := &ladderFixture{
		prog: cg.Prog,
		comp: &recovery.Compiled{Graph: ep.Graph, Clusters: cg.Clusters, VesselOf: cg.VesselOf},
		mk:   func() *aquacore.Machine { return newMachine(ep, plan, profile, seed, nil) },
	}

	ref := fx.mk()
	refOut := recovery.Run(ref, fx.prog, fx.comp, recovery.Options{})
	if refOut.Status == recovery.Aborted {
		t.Fatalf("reference run aborted: %v", refOut.Err)
	}
	fx.want = machineFingerprint(t, ref)

	path := filepath.Join(t.TempDir(), "crash.aqj")
	jw, f, err := journal.Create(vfs.OS{}, path, false)
	if err != nil {
		t.Fatal(err)
	}
	out := recovery.Run(fx.mk(), fx.prog, fx.comp,
		recovery.Options{SnapshotEvery: 2, Journal: jw, Crash: faults.CrashAt(9)})
	f.Close()
	if out.Status != recovery.Aborted {
		t.Fatalf("crash run status %s, want aborted", out.Status)
	}
	if fx.recs, _, err = journal.Recover(vfs.OS{}, path); err != nil {
		t.Fatal(err)
	}
	for _, r := range fx.recs {
		if r.Kind == journal.KindSnapshot {
			fx.snaps = append(fx.snaps, r.Snapshot)
		}
	}
	if len(fx.snaps) < 3 {
		t.Fatalf("need at least 3 snapshot rungs for the ladder, got %d", len(fx.snaps))
	}
	return fx
}

// resume walks the fixture's ladder, returning the machine that ran and
// the notes the ladder emitted.
func (fx *ladderFixture) resume(t *testing.T, opts recovery.Options) (*recovery.Outcome, *journal.Snapshot, *aquacore.Machine, []string) {
	t.Helper()
	var notes []string
	var m *aquacore.Machine
	out, used, err := recovery.Resume(
		func() (*aquacore.Machine, error) { m = fx.mk(); return m, nil },
		fx.prog, fx.comp, opts, fx.recs,
		func(s string) { notes = append(notes, s) })
	if err != nil {
		t.Fatal(err)
	}
	if out.Status == recovery.Aborted {
		t.Fatalf("resume aborted: %v", out.Err)
	}
	return out, used, m, notes
}

// The ladder: when the newest snapshots are unrestorable (CRC-valid
// frames, poisoned machine state), resume falls back to the first usable
// one and — by determinism — still finishes bit-identical to the
// uninterrupted run.
func TestResumeFallbackLadder(t *testing.T) {
	fx := newLadderFixture(t)

	// Poison the two newest rungs in distinct ways.
	fx.snaps[len(fx.snaps)-1].Machine.Vessels = nil
	fx.snaps[len(fx.snaps)-2].PC = len(fx.prog.Instrs) + 7

	_, used, m, notes := fx.resume(t, recovery.Options{SnapshotEvery: 2})
	if used == nil {
		t.Fatal("ladder restarted from scratch though a good rung existed")
	}
	if used != fx.snaps[len(fx.snaps)-3] {
		t.Errorf("ladder resumed from boundary %d, want the third-newest snapshot (boundary %d)",
			used.Boundary, fx.snaps[len(fx.snaps)-3].Boundary)
	}
	if len(notes) < 3 || !strings.Contains(notes[0], "unusable") || !strings.Contains(notes[1], "unusable") {
		t.Errorf("ladder notes missing rejected-rung diagnostics: %q", notes)
	}
	if got := machineFingerprint(t, m); got != fx.want {
		t.Errorf("ladder resume diverged from uninterrupted run\n got: %s\nwant: %s", got, fx.want)
	}
}

// With every snapshot poisoned, the bottom rung restarts from the
// beginning — and determinism still lands the identical final state.
// A journal with no snapshot at all restarts the same way.
func TestResumeFallbackRestartsWhenAllRungsFail(t *testing.T) {
	fx := newLadderFixture(t)
	for _, s := range fx.snaps {
		s.Machine = nil
	}
	beginOnly := []*journal.Record{{Kind: journal.KindBegin, Begin: &journal.Begin{Program: "glucose"}}}
	for _, tc := range []struct {
		name string
		recs []*journal.Record
		note string
	}{
		{"all poisoned", fx.recs, "no usable snapshot among"},
		{"begin only", beginOnly, "no snapshot in journal; restarting from the beginning"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx.recs = tc.recs
			_, used, m, notes := fx.resume(t, recovery.Options{})
			if used != nil {
				t.Fatalf("ladder claims it resumed from boundary %d with no usable rung", used.Boundary)
			}
			if len(notes) == 0 || !strings.Contains(notes[len(notes)-1], tc.note) {
				t.Errorf("restart note %q missing: %q", tc.note, notes)
			}
			if got := machineFingerprint(t, m); got != fx.want {
				t.Errorf("restarted run diverged from reference\n got: %s\nwant: %s", got, fx.want)
			}
		})
	}
}

// Resume validates each snapshot before running from it: a rung with no
// machine state and one whose pc lies outside the program are each
// reported unusable, and the ladder moves on.
func TestResumeValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		poison func(s *journal.Snapshot, instrs int)
		want   string
	}{
		{"nil machine", func(s *journal.Snapshot, _ int) { s.Machine = nil }, "no machine state"},
		{"pc out of range", func(s *journal.Snapshot, instrs int) { s.PC = instrs + 1 }, "out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newLadderFixture(t)
			tc.poison(fx.snaps[len(fx.snaps)-1], len(fx.prog.Instrs))
			_, used, _, notes := fx.resume(t, recovery.Options{SnapshotEvery: 2})
			if len(notes) == 0 || !strings.Contains(notes[0], "unusable") || !strings.Contains(notes[0], tc.want) {
				t.Errorf("poisoned newest rung not reported unusable (%q): %q", tc.want, notes)
			}
			if used != fx.snaps[len(fx.snaps)-2] {
				t.Errorf("ladder did not fall back to the second-newest snapshot")
			}
		})
	}
}

// A journal that ends in an outcome record belongs to a run that already
// ended: Resume refuses it with a typed error and builds no machine.
func TestResumeRefusesClosedJournal(t *testing.T) {
	fx := newLadderFixture(t)
	closed := append(fx.recs, &journal.Record{Kind: journal.KindOutcome,
		Outcome: &journal.Outcome{Status: recovery.Completed.String(), Boundaries: 29}})
	built := false
	_, _, err := recovery.Resume(
		func() (*aquacore.Machine, error) { built = true; return fx.mk(), nil },
		fx.prog, fx.comp, recovery.Options{}, closed, nil)
	if !errors.Is(err, recovery.ErrJournalClosed) {
		t.Fatalf("closed journal: err = %v, want ErrJournalClosed", err)
	}
	if built {
		t.Error("Resume built a machine for a closed journal")
	}
}
