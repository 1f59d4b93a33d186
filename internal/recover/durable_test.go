package recovery_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/faults"
	"aquavol/internal/journal"
	recovery "aquavol/internal/recover"
	"aquavol/internal/vfs"
)

// machineFingerprint marshals the machine's snapshot: deterministic
// bytes for deterministic state (JSON sorts keys, float64 round-trips
// exactly), so equality here is bit-identity of the whole machine.
func machineFingerprint(t *testing.T, m *aquacore.Machine) string {
	t.Helper()
	b, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The chaos contract: a journaled run killed at EVERY instruction
// boundary must, after resume from its newest snapshot, finish with
// machine state and outcome bit-identical to the uninterrupted run.
func TestCrashAtEveryBoundaryResumesBitIdentical(t *testing.T) {
	ep, plan, cg := compileGlucose(t)
	profile, _ := faults.Preset("moderate")
	const seed = 42
	opts := recovery.Options{SnapshotEvery: 4}

	// Reference: uninterrupted journaled run.
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.aqj")
	jw, f, err := journal.Create(vfs.OS{}, refPath, false)
	if err != nil {
		t.Fatal(err)
	}
	refOpts := opts
	refOpts.Journal = jw
	ref := newMachine(ep, plan, profile, seed, nil)
	refOut := recovery.Run(ref, cg.Prog, &recovery.Compiled{Graph: ep.Graph, Clusters: cg.Clusters, VesselOf: cg.VesselOf}, refOpts)
	f.Close()
	if refOut.Status == recovery.Aborted {
		t.Fatalf("reference run aborted: %v", refOut.Err)
	}
	want := machineFingerprint(t, ref)

	refRecs, tail, err := journal.Recover(vfs.OS{}, refPath)
	if err != nil {
		t.Fatal(err)
	}
	if tail.Truncated {
		t.Fatalf("clean run left a bad tail: %s", tail.Reason)
	}
	boundaries := 0
	for _, r := range refRecs {
		if r.Kind == journal.KindStep {
			boundaries++
		}
	}
	if boundaries == 0 {
		t.Fatal("no step records journaled")
	}
	if last := refRecs[len(refRecs)-1]; last.Kind != journal.KindOutcome {
		t.Fatalf("clean journal must close with an outcome record, got %s", last.Kind)
	}

	for k := 0; k < boundaries; k++ {
		path := filepath.Join(dir, fmt.Sprintf("crash%d.aqj", k))
		jw, f, err := journal.Create(vfs.OS{}, path, true)
		if err != nil {
			t.Fatal(err)
		}
		crashOpts := opts
		crashOpts.Journal = jw
		crashOpts.Crash = faults.CrashAt(k)
		m1 := newMachine(ep, plan, profile, seed, nil)
		out1 := recovery.Run(m1, cg.Prog, &recovery.Compiled{Graph: ep.Graph, Clusters: cg.Clusters, VesselOf: cg.VesselOf}, crashOpts)
		f.Close()
		if out1.Status != recovery.Aborted {
			t.Fatalf("crash at %d: status %s, want aborted", k, out1.Status)
		}
		if !errors.Is(out1.Err, recovery.ErrAborted) || !errors.Is(out1.Err, faults.ErrCrash) {
			t.Fatalf("crash at %d: error %v must wrap ErrAborted and ErrCrash", k, out1.Err)
		}

		recs, tail, w2, f2, err := journal.OpenAppend(vfs.OS{}, path)
		if err != nil {
			t.Fatalf("crash at %d: reopening journal: %v", k, err)
		}
		if tail.Truncated {
			t.Fatalf("crash at %d: between-append kill left a bad tail: %s", k, tail.Reason)
		}
		if last := recs[len(recs)-1]; last.Kind == journal.KindOutcome {
			t.Fatalf("crash at %d: crashed journal must not contain an outcome record", k)
		}
		var lastSnap *journal.Snapshot
		for _, r := range recs {
			if r.Kind == journal.KindSnapshot {
				lastSnap = r.Snapshot
			}
		}
		resumeOpts := opts
		resumeOpts.Journal = w2
		var m2 *aquacore.Machine
		var notes []string
		out2, snap, err := recovery.Resume(
			func() (*aquacore.Machine, error) { m2 = newMachine(ep, plan, profile, seed, nil); return m2, nil },
			cg.Prog, &recovery.Compiled{Graph: ep.Graph, Clusters: cg.Clusters, VesselOf: cg.VesselOf}, resumeOpts, recs,
			func(s string) { notes = append(notes, s) })
		f2.Close()
		if err != nil {
			t.Fatalf("crash at %d: resume: %v", k, err)
		}
		if snap == nil || snap != lastSnap {
			t.Fatalf("crash at %d: did not resume from the journal's newest snapshot (notes: %q)", k, notes)
		}
		if snap.Boundary > k {
			t.Fatalf("crash at %d: snapshot boundary %d is past the crash", k, snap.Boundary)
		}
		if out2.Status != refOut.Status {
			t.Fatalf("crash at %d: resumed status %s, want %s", k, out2.Status, refOut.Status)
		}
		if got := machineFingerprint(t, m2); got != want {
			t.Errorf("crash at %d: resumed final state differs from uninterrupted run\n got: %s\nwant: %s", k, got, want)
		}
		if out2.Retries != refOut.Retries || out2.Regens != refOut.Regens ||
			out2.RegenInstrs != refOut.RegenInstrs || len(out2.Incidents) != len(refOut.Incidents) {
			t.Errorf("crash at %d: resumed accounting (%d retries, %d regens, %d replayed, %d incidents) differs from reference (%d, %d, %d, %d)",
				k, out2.Retries, out2.Regens, out2.RegenInstrs, len(out2.Incidents),
				refOut.Retries, refOut.Regens, refOut.RegenInstrs, len(refOut.Incidents))
		}

		// The continued journal must now close cleanly.
		final, tail, err := journal.Recover(vfs.OS{}, path)
		if err != nil || tail.Truncated {
			t.Fatalf("crash at %d: resumed journal unreadable: %v (%s)", k, err, tail.Reason)
		}
		if last := final[len(final)-1]; last.Kind != journal.KindOutcome {
			t.Fatalf("crash at %d: resumed journal must close with an outcome record, got %s", k, last.Kind)
		}
	}
}

// failAfter is an io.Writer that accepts n bytes then fails: a disk
// that fills up mid-run.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// A journal append failure must abort the run (a WAL that silently
// stops logging is worse than none), wrapping ErrAborted.
func TestJournalWriteFailureAborts(t *testing.T) {
	ep, plan, cg := compileGlucose(t)
	jw, err := journal.NewWriter(&failAfter{n: 8}) // header fits, nothing else
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(ep, plan, faults.Profile{}, 0, nil)
	out := recovery.Run(m, cg.Prog, &recovery.Compiled{Graph: ep.Graph, Clusters: cg.Clusters, VesselOf: cg.VesselOf}, recovery.Options{Journal: jw})
	if out.Status != recovery.Aborted {
		t.Fatalf("status %s, want aborted", out.Status)
	}
	if !errors.Is(out.Err, recovery.ErrAborted) {
		t.Fatalf("abort error %v must wrap ErrAborted", out.Err)
	}
	if errors.Is(out.Err, faults.ErrCrash) {
		t.Fatal("a journal write failure is not a simulated crash")
	}
	if out.Result == nil {
		t.Fatal("aborted outcome must still carry the partial result")
	}
}

// Unrepaired incidents classify as sentinel error chains: exhausted
// retries are ErrFUUnavailable, unrepaired shortfalls ErrShortfall.
func TestIncidentErrTaxonomy(t *testing.T) {
	fu := recovery.Incident{Event: aquacore.Event{Kind: aquacore.EventFUFailure, Instr: "mix"}, Retries: 3}
	if !errors.Is(fu.Err(), aquacore.ErrFUUnavailable) {
		t.Errorf("FU-failure incident error %v must wrap ErrFUUnavailable", fu.Err())
	}
	ran := recovery.Incident{Event: aquacore.Event{Kind: aquacore.EventRanOut, Instr: "input"}}
	if !errors.Is(ran.Err(), aquacore.ErrShortfall) {
		t.Errorf("ran-out incident error %v must wrap ErrShortfall", ran.Err())
	}
	if errors.Is(ran.Err(), aquacore.ErrFUUnavailable) {
		t.Error("shortfall incident must not match ErrFUUnavailable")
	}
}

// Degradation path under a hostile profile: with every FU attempt
// failing and retries capped, the run must complete degraded — never
// abort — and record the exhausted-retry incidents.
func TestDegradedRunUnderHarshFaults(t *testing.T) {
	ep, plan, cg := compileGlucose(t)
	profile := faults.Profile{FailRate: 1} // every attempt fails
	m := newMachine(ep, plan, profile, 7, nil)
	out := recovery.Run(m, cg.Prog, &recovery.Compiled{Graph: ep.Graph, Clusters: cg.Clusters, VesselOf: cg.VesselOf}, recovery.Options{RetriesPerInstr: 2, TotalRetries: 8})
	if out.Status != recovery.CompletedDegraded {
		t.Fatalf("status %s, want completed-degraded", out.Status)
	}
	if len(out.Incidents) == 0 {
		t.Fatal("degraded run must record incidents")
	}
	for _, inc := range out.Incidents {
		if inc.Event.Kind == aquacore.EventFUFailure && !errors.Is(inc.Err(), aquacore.ErrFUUnavailable) {
			t.Errorf("incident %v must classify as ErrFUUnavailable", inc.Event)
		}
	}
	if out.Err != nil {
		t.Errorf("degraded (non-aborted) run must not set Err: %v", out.Err)
	}
	if out.Result == nil {
		t.Error("degraded run must still produce a result")
	}
}

var _ io.Writer = (*failAfter)(nil)
