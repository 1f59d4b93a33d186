package recovery

import (
	"errors"
	"fmt"

	"aquavol/internal/ais"
	"aquavol/internal/aquacore"
	"aquavol/internal/journal"
)

// ErrJournalClosed is what Resume refuses a journal with when its last
// record is an outcome: that run already ended, so there is nothing to
// continue.
var ErrJournalClosed = errors.New("recovery: journal is already closed")

// Resume continues a journaled run from its salvaged records (the good
// prefix journal.OpenAppend or journal.Recover returns). It walks the
// snapshot ladder newest-first: the first snapshot that restores onto a
// fresh machine — fault-PRNG position, measurement log and recovery
// counters included — re-enters the recovery loop at its (pc,
// boundary). A snapshot that will not restore (CRC-valid frame,
// poisoned contents: no machine state, an out-of-range pc, a vanished
// vessel table, an impossible PRNG position) is skipped for the next
// older one. The bottom rung restarts the run from the beginning, also
// when the journal holds no snapshot at all, so the ladder fails only
// when no machine can be built. Determinism makes every rung
// equivalent: an older rung replays more boundaries and lands on the
// bit-identical result of a run that was never interrupted.
//
// newMachine must construct a fresh machine per attempt (Restore
// demands one that has executed nothing). note, when non-nil, receives
// one line per rejected rung and one announcing the chosen rung, each
// before execution starts. opts.Journal, when set, should append to the
// same journal. The returned snapshot is the rung that ran, nil for a
// restart.
func Resume(newMachine func() (*aquacore.Machine, error), prog *ais.Program, c *Compiled,
	opts Options, recs []*journal.Record, note func(string)) (*Outcome, *journal.Snapshot, error) {
	if n := len(recs); n > 0 && recs[n-1].Kind == journal.KindOutcome {
		o := recs[n-1].Outcome
		return nil, nil, fmt.Errorf("%w: run %s after %d boundaries", ErrJournalClosed, o.Status, o.Boundaries)
	}
	say := func(format string, a ...any) {
		if note != nil {
			note(fmt.Sprintf(format, a...))
		}
	}
	snaps := 0
	for i := len(recs) - 1; i >= 0; i-- {
		snap := recs[i].Snapshot
		if recs[i].Kind != journal.KindSnapshot || snap == nil {
			continue
		}
		snaps++
		m, err := newMachine()
		if err != nil {
			return nil, nil, fmt.Errorf("recovery: building machine for resume: %w", err)
		}
		out, err := restore(m, prog, snap)
		if err != nil {
			say("snapshot at boundary %d (pc %d) unusable: %v", snap.Boundary, snap.PC, err)
			continue
		}
		say("resuming at boundary %d (pc %d)", snap.Boundary, snap.PC)
		return run(m, prog, c, opts.withDefaults(), snap.PC, snap.Boundary, out), snap, nil
	}
	m, err := newMachine()
	if err != nil {
		return nil, nil, fmt.Errorf("recovery: building machine for restart: %w", err)
	}
	if snaps == 0 {
		say("no snapshot in journal; restarting from the beginning")
	} else {
		say("no usable snapshot among %d; restarting from the beginning", snaps)
	}
	return Run(m, prog, c, opts), nil, nil
}

// restore validates a snapshot, restores it onto the fresh machine m,
// and reconstructs the accumulated recovery counters: one rung of the
// ladder short of executing.
func restore(m *aquacore.Machine, prog *ais.Program, snap *journal.Snapshot) (*Outcome, error) {
	if snap.Machine == nil {
		return nil, fmt.Errorf("recovery: snapshot has no machine state")
	}
	if snap.PC < 0 || snap.PC > len(prog.Instrs) {
		return nil, fmt.Errorf("recovery: snapshot pc %d out of range [0,%d]", snap.PC, len(prog.Instrs))
	}
	if snap.Boundary < 0 {
		return nil, fmt.Errorf("recovery: snapshot boundary %d is negative: corrupt", snap.Boundary)
	}
	if err := m.Restore(snap.Machine); err != nil {
		return nil, fmt.Errorf("recovery: restoring machine state: %w", err)
	}
	out := &Outcome{}
	if rs := snap.Recovery; rs != nil {
		out.Retries = rs.Retries
		out.Regens = rs.Regens
		out.RegenInstrs = rs.RegenInstrs
		out.Replans = rs.Replans
		out.ReplanInstrs = rs.ReplanInstrs
		out.ReplanBoundaries = append([]int(nil), rs.ReplanBoundaries...)
		out.BackoffSeconds = rs.BackoffSeconds
		for _, inc := range rs.Incidents {
			out.Incidents = append(out.Incidents, Incident{
				Event: aquacore.Event{
					Kind: aquacore.EventKind(inc.Kind), PC: inc.PC,
					Instr: inc.Instr, Detail: inc.Detail,
				},
				Retries: inc.Retries,
			})
		}
	}
	return out, nil
}
