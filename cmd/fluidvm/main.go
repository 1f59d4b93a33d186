// Command fluidvm compiles an assay and executes it on the AquaCore PLoC
// simulator with the runtime volume manager in the loop: static plans are
// applied directly; assays with unknown volumes are re-planned partition
// by partition as the simulated separations report their measured outputs
// (§3.5). The compile is internal/pipeline, so without -margin the
// program executed is the listing fluidc ships for the same source.
//
// Usage:
//
//	fluidvm [-yield F] [-trace] [-faults PROFILE] [-seed N] [-margin F]
//	        [-recover] [-replan] [-retries N] [-journal PATH]
//	        [-snapshot-every N] [-crash-at N] [-budget N] [-deadline D]
//	        assay.asy
//	fluidvm -ais prog.ais -voltab prog.vol       # run a shipped listing
//	fluidvm -resume run.aqj assay.asy            # continue a crashed run
//
// -trace streams one line per executed instruction to stderr with the
// pre→post volume of every vessel the instruction touches — the concrete
// replay channel for aisverify findings.
//
// -faults injects imperfect fluidics: a preset (none, mild, moderate,
// harsh) or a comma list like "jitter=0.02,dead=0.05,evap=5e-5,
// noise=0.02,fail=0.01". The run is reproducible from -seed. -margin
// over-provisions every planned volume by (1+F). -recover wraps execution
// in the recovery runtime (bounded retries, capped by -retries per
// instruction, plus backward-slice regeneration of depleted fluids);
// shipped listings (-ais) recover with retries only, having no DAG.
// -replan (implies -recover) additionally lets a volume shortfall
// re-solve the residual DAG around the live vessel volumes and rescale
// the remaining instructions, consuming no fresh reagent; regeneration
// stays the fallback. Replan counts appear in the recovery summary line
// and, under -trace, each repair event streams to stderr as it happens.
//
// -journal makes the run durable: a write-ahead log of execution records
// and periodic machine snapshots (cadence -snapshot-every boundaries).
// Creating a journal over an existing non-empty one is refused — it may
// be the only crash evidence of an interrupted run — unless
// -force-journal is given. -resume restores the newest usable snapshot
// from such a journal and continues, falling back to earlier snapshots
// (and ultimately a restart) when the newest is unrestorable; the run
// configuration (profile, seed, margin, yield, retry budget, cadence) is
// taken from the journal's opening record, not from flags, and the
// recompiled program must hash-match the journaled one. Because
// execution is deterministic, a resumed run finishes bit-identical to
// one that was never interrupted. -crash-at N simulates a process kill
// after instruction boundary N (chaos testing). All three imply -recover.
//
// -fsfaults injects storage faults underneath the journal (chaos
// testing): either a deterministic strike list like "sync@3:lying" or
// "write@5:enospc:sticky" (see internal/vfs.ParseStrikes), or a
// rate-based profile like "write=0.01,sync=0.005" drawn from the
// -fsfault-seed PRNG. The fluidic machine is untouched — only the
// journal's filesystem misbehaves.
//
// -budget N bounds the run to N work units (planning charges solver
// pivots and DAG node visits, execution one unit per instruction);
// -deadline D adds a wall-clock bound. Either trip stops the run
// cooperatively with a typed cause and exit code 5. Under -journal a
// cancelled run fail-stops exactly like a crash — the journal keeps no
// outcome record and -resume completes it bit-identically (budgets are
// resource guards, never replayed state). Both flags also bound a
// -resume itself.
//
// Every solved plan is certified by the independent checker
// (internal/certify) before a single instruction executes: the static
// plan at build time, each staged partition as it is solved (including
// at run time, from measurements), and every residual replan before its
// patches apply. A certification failure refuses to run with exit code
// 6 and, under -journal, leaves no outcome record. Journaled runs
// record the plan's certificate hash in the begin record; -resume
// recomputes the hash from the re-derived plan and refuses a mismatch
// with the same exit code — the journal's plan is not the plan that
// was certified. -no-certify skips all certification (and the resume
// hash check).
//
// Exit codes: 0 completed, 1 error, 2 completed-degraded (unrepaired
// faults), 3 aborted, 4 resume failure, 5 cancelled/deadline/budget
// exceeded, 6 plan certification failure, 64 usage.
package main

import (
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"strings"

	"aquavol/internal/ais"
	"aquavol/internal/aquacore"
	"aquavol/internal/budget"
	"aquavol/internal/certify"
	"aquavol/internal/faults"
	"aquavol/internal/journal"
	"aquavol/internal/pipeline"
	recovery "aquavol/internal/recover"
	"aquavol/internal/vfs"
)

// Structured exit codes: scripts branch on the terminal status without
// parsing output. Usage errors exit 64 (BSD EX_USAGE) so 2 can mean
// degraded-but-complete.
const (
	exitCompleted    = 0
	exitError        = 1
	exitDegraded     = 2
	exitAborted      = 3
	exitResumeFailed = 4
	exitCancelled    = 5
	exitCertFailed   = 6
	exitUsage        = 64
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fluidvm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	yield := fs.Float64("yield", 0.4, "separation effluent yield fraction")
	trace := fs.Bool("trace", false, "stream executed instructions with pre/post vessel volumes")
	aisFile := fs.String("ais", "", "execute a textual AIS listing (requires -voltab)")
	volFile := fs.String("voltab", "", "per-instruction volume table for -ais")
	faultSpec := fs.String("faults", "none", "fault profile: preset name or k=v list")
	seed := fs.Int64("seed", 0, "fault-injection PRNG seed")
	margin := fs.Float64("margin", 0, "safety margin: over-provision planned volumes by (1+F)")
	rec := fs.Bool("recover", false, "enable the recovery runtime (retry + regeneration)")
	replan := fs.Bool("replan", false, "enable adaptive replanning on shortfalls (implies -recover)")
	retries := fs.Int("retries", 3, "retry budget per failed instruction under -recover")
	journalPath := fs.String("journal", "", "write a durable-execution journal to PATH (implies -recover)")
	resumePath := fs.String("resume", "", "resume a crashed run from its journal (implies -recover)")
	crashAt := fs.Int("crash-at", -1, "simulate a process kill after instruction boundary N (implies -recover)")
	snapEvery := fs.Int("snapshot-every", 8, "journal snapshot cadence in instruction boundaries")
	forceJournal := fs.Bool("force-journal", false, "overwrite an existing non-empty journal at -journal PATH")
	fsFaults := fs.String("fsfaults", "", "inject storage faults under the journal: strike list (op@N[:mod]) or rate profile (k=v)")
	fsFaultSeed := fs.Int64("fsfault-seed", 0, "PRNG seed for rate-based -fsfaults profiles")
	budgetN := fs.Int64("budget", 0, "bound the run to N work units (0 = unlimited); tripping exits 5")
	deadline := fs.Duration("deadline", 0, "wall-clock deadline for the whole run (0 = none); tripping exits 5")
	noCertify := fs.Bool("no-certify", false, "skip independent plan certification (and the resume hash check)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	// One meter bounds the whole invocation — planning, execution, and
	// resume alike. Nil when unbounded, so the default path charges nothing.
	var meter *budget.Meter
	if *budgetN > 0 || *deadline > 0 {
		meter = budget.New(*budgetN).WithDeadline(*deadline)
	}
	fsys, err := buildFS(*fsFaults, *fsFaultSeed)
	if err != nil {
		return fail(stderr, err)
	}
	var traceFn func(aquacore.TraceEntry)
	var eventFn func(aquacore.Event)
	if *trace {
		traceFn = traceTo(stderr)
		eventFn = eventTo(stderr)
	}

	if *resumePath != "" {
		return doResume(fsys, *resumePath, fs.Args(), *aisFile, *volFile, *noCertify, meter, traceFn, eventFn, stdout, stderr)
	}

	prof, err := faults.ParseProfile(*faultSpec)
	if err != nil {
		return fail(stderr, err)
	}
	var inj *faults.Injector
	if prof.Enabled() {
		inj = faults.New(prof, *seed)
	}
	doRecover := *rec || *replan || *journalPath != "" || *crashAt >= 0
	ropts := recovery.Options{RetriesPerInstr: *retries, SnapshotEvery: *snapEvery, EnableReplan: *replan, Budget: meter, NoCertify: *noCertify}
	if *crashAt >= 0 {
		ropts.Crash = faults.CrashAt(*crashAt)
	}

	// Build the program and machine.
	name := *aisFile
	if name == "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: fluidvm [flags] assay.asy")
			return exitUsage
		}
		name = fs.Arg(0)
	}
	x, err := load(name, *aisFile != "", *volFile, *margin, *noCertify, meter)
	var m *aquacore.Machine
	if err == nil {
		m, err = x.newMachine(aquacore.Config{SeparationYield: *yield, Trace: traceFn, EventTrace: eventFn, Faults: inj, Budget: meter})
	}
	if err != nil {
		return fail(stderr, err)
	}
	prog := x.prog

	if *journalPath != "" {
		jw, jf, jerr := journal.Create(fsys, *journalPath, *forceJournal)
		if jerr != nil {
			return fail(stderr, jerr)
		}
		defer jf.Close()
		if jerr := jw.Append(&journal.Record{Kind: journal.KindBegin, Begin: &journal.Begin{
			Program: name,
			Hash:    crc32.ChecksumIEEE([]byte(prog.String())),
			Instrs:  len(prog.Instrs),
			Profile: prof, Seed: *seed,
			Margin: *margin, Yield: *yield,
			Retries: *retries, SnapshotEvery: *snapEvery,
			Replan:   *replan,
			CertHash: x.certHash,
		}}); jerr != nil {
			return fail(stderr, jerr)
		}
		ropts.Journal = jw
	}

	if doRecover {
		return finish(recovery.Run(m, prog, x.comp, ropts), stdout, stderr)
	}
	res, err := m.Run(prog)
	if err != nil {
		return fail(stderr, err)
	}
	report(stdout, res)
	return exitCompleted
}

// buildFS constructs the journal's filesystem from the -fsfaults spec:
// empty means the real OS, "@" terms select deterministic strikes, "="
// terms a rate-based disk profile drawn from seed. Both fault shapes can
// be combined in one comma list.
func buildFS(spec string, seed int64) (vfs.FS, error) {
	if spec == "" {
		return vfs.OS{}, nil
	}
	var strikeTerms, rateTerms []string
	for _, term := range strings.Split(spec, ",") {
		switch {
		case strings.TrimSpace(term) == "":
		case strings.Contains(term, "@"):
			strikeTerms = append(strikeTerms, term)
		default:
			rateTerms = append(rateTerms, term)
		}
	}
	strikes, err := vfs.ParseStrikes(strings.Join(strikeTerms, ","))
	if err != nil {
		return nil, err
	}
	var disk *faults.DiskInjector
	if len(rateTerms) > 0 {
		p, err := faults.ParseDiskProfile(strings.Join(rateTerms, ","))
		if err != nil {
			return nil, err
		}
		if p.Enabled() {
			disk = faults.NewDisk(p, seed)
		}
	}
	return vfs.NewFaulty(vfs.OS{}, strikes, disk), nil
}

// doResume restores a crashed journaled run and continues it to
// completion, appending to the recovered journal. Configuration comes
// from the journal's begin record; only the program source (and -trace)
// come from the command line. recovery.Resume walks the snapshot ladder
// newest-first, down to a deterministic restart, and refuses a journal
// whose run already ended. Notices go to stderr so stdout stays
// byte-identical to the uninterrupted run's.
func doResume(fsys vfs.FS, path string, args []string, aisFile, volFile string, noCertify bool, meter *budget.Meter,
	traceFn func(aquacore.TraceEntry), eventFn func(aquacore.Event), stdout, stderr io.Writer) int {
	resumeFail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "fluidvm: resume: "+format+"\n", a...)
		return exitResumeFailed
	}
	name := aisFile
	if name == "" {
		if len(args) != 1 {
			fmt.Fprintln(stderr, "usage: fluidvm -resume run.aqj assay.asy")
			return exitUsage
		}
		name = args[0]
	}
	recs, tail, w, f, err := journal.OpenAppend(fsys, path)
	if err != nil {
		return resumeFail("%v", err)
	}
	defer f.Close()
	if tail.Truncated {
		fmt.Fprintf(stderr, "fluidvm: resume: recovered journal tail: %s (kept %d good bytes)\n",
			tail.Reason, tail.GoodBytes)
	}
	if recs[0].Kind != journal.KindBegin {
		return resumeFail("journal does not start with a begin record")
	}
	begin := recs[0].Begin

	// Rebuild the run exactly as the original invocation configured it.
	x, err := load(name, aisFile != "", volFile, begin.Margin, noCertify, meter)
	if err != nil {
		return fail(stderr, err)
	}
	if h := crc32.ChecksumIEEE([]byte(x.prog.String())); h != begin.Hash || len(x.prog.Instrs) != begin.Instrs {
		return resumeFail("journal was recorded for a different program (journaled %08x/%d instrs, recompiled %08x/%d)",
			begin.Hash, begin.Instrs, h, len(x.prog.Instrs))
	}
	// Re-verify the certificate: the re-derived (and freshly re-certified)
	// plan must hash to exactly what the original run certified and
	// journaled. A mismatch means the journal would replay volumes from a
	// plan nobody certified — refuse before touching the machine, leaving
	// no outcome record so the journal stays crash-evidence.
	if !noCertify && begin.CertHash != 0 {
		if err := certify.VerifyHash(x.certHash, begin.CertHash); err != nil {
			fmt.Fprintln(stderr, "fluidvm: resume:", err)
			return exitCertFailed
		}
	}

	// The budget meter is per-invocation configuration, never journaled
	// state: a resume is bounded only by the flags of THIS invocation.
	ropts := recovery.Options{
		RetriesPerInstr: begin.Retries,
		SnapshotEvery:   begin.SnapshotEvery,
		EnableReplan:    begin.Replan,
		Journal:         w,
		Budget:          meter,
		NoCertify:       noCertify,
	}
	// Each ladder rung needs a fresh machine (Restore refuses a used one)
	// with its own fault injector.
	newMachine := func() (*aquacore.Machine, error) {
		mcfg := aquacore.Config{SeparationYield: begin.Yield, Trace: traceFn, EventTrace: eventFn, Budget: meter}
		if begin.Profile.Enabled() {
			mcfg.Faults = faults.New(begin.Profile, begin.Seed)
		}
		return x.newMachine(mcfg)
	}
	out, _, err := recovery.Resume(newMachine, x.prog, x.comp, ropts, recs,
		func(s string) { fmt.Fprintf(stderr, "fluidvm: resume: %s\n", s) })
	if err != nil {
		return resumeFail("%v", err)
	}
	return finish(out, stdout, stderr)
}

// executable is what fluidvm runs: the listing, what the recovery
// runtime needs from its compile (nil for a shipped listing), the
// certified static plan's hash, and a factory for fresh machines.
type executable struct {
	prog       *ais.Program
	comp       *recovery.Compiled
	certHash   uint32
	newMachine func(aquacore.Config) (*aquacore.Machine, error)
}

// load builds the executable from name: a shipped (listing, volume
// table) pair — the artifact fluidc -o/-voltab produces — when shipped,
// otherwise an assay source taken through the compile pipeline. Unless
// noCertify, every solved plan passes the independent checker: static
// plans here, staged partitions through the machine's volume source
// (including those solved later from measurements). A shipped listing
// has no source or DAG, so its runs recover with retries only.
func load(name string, shipped bool, volFile string, margin float64, noCertify bool, meter *budget.Meter) (*executable, error) {
	src, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if !shipped {
		c, err := pipeline.Compile(string(src), pipeline.Options{Margin: margin, Budget: meter, NoCertify: noCertify})
		if err != nil {
			return nil, err
		}
		return &executable{prog: c.Code.Prog, comp: c.Recovery(), certHash: c.CertHash, newMachine: c.NewMachine}, nil
	}
	prog, err := ais.Assemble(string(src))
	if err != nil {
		return nil, err
	}
	var tab ais.VolumeTable
	if volFile != "" {
		vsrc, err := os.ReadFile(volFile)
		if err != nil {
			return nil, err
		}
		if tab, err = ais.ParseVolumeTable(string(vsrc)); err != nil {
			return nil, err
		}
	}
	return &executable{prog: prog, newMachine: func(mc aquacore.Config) (*aquacore.Machine, error) {
		m := aquacore.New(mc, nil, nil)
		m.SetVolumeTable(tab)
		return m, nil
	}}, nil
}

// finish renders a recovered outcome and maps its status to an exit code.
func finish(out *recovery.Outcome, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "recovery: %s\n", out.Summary())
	report(stdout, out.Result)
	switch out.Status {
	case recovery.Completed:
		return exitCompleted
	case recovery.CompletedDegraded:
		return exitDegraded
	default:
		fmt.Fprintln(stderr, "fluidvm:", out.Err)
		// Budget/deadline/cancellation stops get their own exit code so
		// scripts can tell a bounded stop from a genuine abort. errors.Is
		// sees the typed cause through the ErrAborted wrap.
		if budget.IsStop(out.Err) {
			return exitCancelled
		}
		return exitAborted
	}
}

func report(w io.Writer, res *aquacore.Result) {
	fmt.Fprintf(w, "executed %d wet + %d dry instructions\n", res.WetInstrs, res.DryInstrs)
	fmt.Fprintf(w, "fluidic time %.1f s, electronic time %.3g s\n", res.WetSeconds, res.DrySeconds)
	if res.Clean() {
		fmt.Fprintln(w, "no underflow/overflow/ran-out events")
	} else {
		fmt.Fprintf(w, "%d volume events:\n", len(res.Events))
		for _, e := range res.Events {
			fmt.Fprintln(w, " ", e)
		}
	}
	if res.VolumeDrift != nil {
		fmt.Fprintf(w, "injected-fault loss %.4g nl; expected-vs-actual drift:\n", res.FaultLoss())
		names := make([]string, 0, len(res.VolumeDrift))
		for name := range res.VolumeDrift {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if d := res.VolumeDrift[name]; d != 0 {
				fmt.Fprintf(w, "  %s %+.4g nl\n", name, d)
			}
		}
	}
	if len(res.Dry) > 0 {
		fmt.Fprintln(w, "sensed/dry values:")
		keys := make([]string, 0, len(res.Dry))
		for k := range res.Dry {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %s = %.4g\n", k, res.Dry[k])
		}
	}
	for _, o := range res.Outputs {
		fmt.Fprintf(w, "output %s: %.3f nl\n", o.Port, o.Volume)
	}
}

// traceTo renders one executed instruction as a stderr line:
//
//	step 4 pc 4: move-abs mixer1, s1, 300 | s1 100→70 mixer1 0→30
func traceTo(w io.Writer) func(aquacore.TraceEntry) {
	return func(e aquacore.TraceEntry) {
		fmt.Fprintf(w, "step %d pc %d: %s", e.Step, e.PC, e.Instr)
		for i, d := range e.Vessels {
			if i == 0 {
				fmt.Fprint(w, " |")
			}
			fmt.Fprintf(w, " %s %.4g→%.4g", d.Name, d.Pre, d.Post)
		}
		fmt.Fprintln(w)
	}
}

// eventTo streams each recorded machine event — faults, repairs,
// replans — to stderr as it happens, interleaved with the instruction
// trace.
func eventTo(w io.Writer) func(aquacore.Event) {
	return func(e aquacore.Event) {
		fmt.Fprintln(w, "event:", e)
	}
}

// fail reports err and maps it to an exit code. A budget/deadline trip
// (vnorm sweeps, LP pivots, ILP nodes, executed instructions) is a
// bounded stop, and a certification failure a refused plan, not a broken
// build: each gets its own exit code so scripts can tell them apart.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "fluidvm:", err)
	switch {
	case budget.IsStop(err):
		return exitCancelled
	case errors.Is(err, certify.ErrCertificate):
		return exitCertFailed
	default:
		return exitError
	}
}
