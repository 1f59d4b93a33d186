package main

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aquavol/internal/journal"
	"aquavol/internal/vfs"
)

const glucose = "../../testdata/glucose.asy"

// runCLI invokes the command in-process and returns (exit, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// Exit codes are the scripting contract: each terminal status maps to a
// distinct, documented code.
func TestExitCodes(t *testing.T) {
	// 0: clean run.
	if code, _, errw := runCLI(t, glucose); code != exitCompleted {
		t.Fatalf("clean run exit %d, want %d (stderr: %s)", code, exitCompleted, errw)
	}
	// 2: completed degraded — every FU attempt fails, budget exhausted.
	code, out, _ := runCLI(t, "-faults", "fail=1", "-seed", "1", "-recover", "-retries", "1", glucose)
	if code != exitDegraded {
		t.Fatalf("degraded run exit %d, want %d", code, exitDegraded)
	}
	if !strings.Contains(out, "completed-degraded") {
		t.Fatalf("degraded summary missing: %s", out)
	}
	// 3: aborted (simulated crash).
	dir := t.TempDir()
	if code, _, _ := runCLI(t, "-journal", filepath.Join(dir, "c.aqj"), "-crash-at", "2", glucose); code != exitAborted {
		t.Fatalf("crashed run exit %d, want %d", code, exitAborted)
	}
	// 1: general error (unreadable input).
	if code, _, _ := runCLI(t, filepath.Join(dir, "missing.asy")); code != exitError {
		t.Fatalf("missing input exit %d, want %d", code, exitError)
	}
	// 64: usage.
	if code, _, _ := runCLI(t); code != exitUsage {
		t.Fatalf("no-args exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-bogus-flag"); code != exitUsage {
		t.Fatalf("bad-flag exit %d, want %d", code, exitUsage)
	}
}

// The durability contract end to end: a journaled run killed mid-flight
// resumes to a stdout byte-identical to the uninterrupted run's.
func TestJournalCrashResume(t *testing.T) {
	dir := t.TempDir()

	refCode, refOut, _ := runCLI(t, "-faults", "moderate", "-seed", "42",
		"-journal", filepath.Join(dir, "ref.aqj"), glucose)
	if refCode != exitCompleted {
		t.Fatalf("reference run exit %d", refCode)
	}

	crashPath := filepath.Join(dir, "crash.aqj")
	code, _, errw := runCLI(t, "-faults", "moderate", "-seed", "42",
		"-journal", crashPath, "-crash-at", "5", glucose)
	if code != exitAborted {
		t.Fatalf("crash run exit %d, want %d (stderr: %s)", code, exitAborted, errw)
	}

	code, out, errw := runCLI(t, "-resume", crashPath, glucose)
	if code != refCode {
		t.Fatalf("resume exit %d, want %d (stderr: %s)", code, refCode, errw)
	}
	if out != refOut {
		t.Errorf("resumed stdout differs from uninterrupted run\n got: %q\nwant: %q", out, refOut)
	}
	if !strings.Contains(errw, "resuming at boundary") {
		t.Errorf("resume notice missing from stderr: %s", errw)
	}

	// A second resume finds the journal closed: nothing to do.
	if code, _, errw := runCLI(t, "-resume", crashPath, glucose); code != exitResumeFailed {
		t.Fatalf("resume of closed journal exit %d, want %d (stderr: %s)", code, exitResumeFailed, errw)
	}
}

// writeJournal encodes recs as a fresh journal at path: the frame CRCs
// are valid, so any damage in recs is semantic, the way an attacker or a
// buggy tool would leave it.
func writeJournal(t *testing.T, path string, recs []*journal.Record) {
	t.Helper()
	w, f, err := journal.Create(vfs.OS{}, path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// writeFile writes b to path.
func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// readJournal reads every record of the journal at path.
func readJournal(t *testing.T, path string) []*journal.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := journal.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// Every way -resume can go: each case derives a journal from one crashed
// run (or the uninterrupted reference run's closed journal) and checks
// the exit code, stdout against the reference run's, and the stderr
// diagnostics. A resume that finishes must print the uninterrupted
// run's stdout byte for byte; a refused one prints nothing to stdout.
func TestResume(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.aqj")
	refCode, refOut, _ := runCLI(t, "-faults", "moderate", "-seed", "42", "-journal", refPath, glucose)
	if refCode != exitCompleted {
		t.Fatalf("reference run exit %d", refCode)
	}
	crashPath := filepath.Join(dir, "crash.aqj")
	if code, _, _ := runCLI(t, "-faults", "moderate", "-seed", "42",
		"-journal", crashPath, "-crash-at", "5", glucose); code != exitAborted {
		t.Fatal("setup crash run did not abort")
	}
	crash, err := os.ReadFile(crashPath)
	if err != nil {
		t.Fatal(err)
	}
	crashRecs := readJournal(t, crashPath)
	if crashRecs[0].Kind != journal.KindBegin || crashRecs[0].Begin.CertHash == 0 {
		t.Fatalf("crashed journal has no certificate hash in its begin record: %+v", crashRecs[0])
	}

	table := []struct {
		name string
		// journal writes the journal to resume at path (nil: leave path
		// missing).
		journal func(t *testing.T, path string)
		assay   string
		code    int
		// finishes: stdout must equal the reference run's; otherwise
		// stdout must be empty.
		finishes bool
		stderr   []string
		// after runs extra checks on the journal once the resume returned.
		after func(t *testing.T, path string)
	}{
		{
			name:     "torn tail",
			journal:  func(t *testing.T, path string) { writeFile(t, path, crash[:len(crash)-4]) },
			code:     refCode,
			finishes: true,
			stderr:   []string{"recovered journal tail", "good bytes", "resuming at boundary"},
		},
		{
			name:     "begin record only",
			journal:  func(t *testing.T, path string) { writeJournal(t, path, crashRecs[:1]) },
			code:     refCode,
			finishes: true,
			stderr:   []string{"no snapshot in journal; restarting from the beginning"},
		},
		{
			name: "closed journal",
			journal: func(t *testing.T, path string) {
				ref, err := os.ReadFile(refPath)
				if err != nil {
					t.Fatal(err)
				}
				writeFile(t, path, ref)
			},
			code:   exitResumeFailed,
			stderr: []string{"journal is already closed"},
		},
		{
			name:    "different program",
			journal: func(t *testing.T, path string) { writeFile(t, path, crash) },
			assay:   "../../testdata/glycomics.asy",
			code:    exitResumeFailed,
			stderr:  []string{"different program"},
		},
		{
			name: "missing journal",
			code: exitResumeFailed,
		},
		{
			// Exit code 6 is the proof-carrying-plans contract: a journal
			// whose certificate hash does not match the re-derived (and
			// freshly re-certified) plan executes nothing and gains no
			// outcome record, so it stays intact as crash evidence.
			// -no-certify is the documented escape hatch.
			name: "corrupted certificate",
			journal: func(t *testing.T, path string) {
				forged := *crashRecs[0].Begin
				forged.CertHash ^= 0xdeadbeef
				writeJournal(t, path, append([]*journal.Record{{Kind: journal.KindBegin, Begin: &forged}}, crashRecs[1:]...))
			},
			code:   exitCertFailed,
			stderr: []string{"certificate hash mismatch"},
			after: func(t *testing.T, path string) {
				after := readJournal(t, path)
				if len(after) != len(crashRecs) {
					t.Errorf("refused resume changed the journal: %d records, want %d", len(after), len(crashRecs))
				}
				if last := after[len(after)-1]; last.Kind == journal.KindOutcome {
					t.Errorf("refused resume left an outcome record: %+v", last.Outcome)
				}
				if code, _, errw := runCLI(t, "-no-certify", "-resume", path, glucose); code != exitCompleted {
					t.Fatalf("-no-certify resume exit %d, want %d (stderr: %s)", code, exitCompleted, errw)
				}
			},
		},
	}

	for _, tt := range table {
		t.Run(tt.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.aqj")
			if tt.journal != nil {
				tt.journal(t, path)
			}
			assay := glucose
			if tt.assay != "" {
				assay = tt.assay
			}
			code, out, errw := runCLI(t, "-resume", path, assay)
			if code != tt.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tt.code, errw)
			}
			want := ""
			if tt.finishes {
				want = refOut
			}
			if out != want {
				t.Errorf("stdout differs\n got: %q\nwant: %q", out, want)
			}
			for _, s := range tt.stderr {
				if !strings.Contains(errw, s) {
					t.Errorf("stderr lacks %q: %s", s, errw)
				}
			}
			if tt.after != nil {
				tt.after(t, path)
			}
		})
	}
}

// -journal refuses to clobber an existing non-empty journal — it may be
// the only crash evidence of an interrupted run — unless -force-journal
// overrides.
func TestJournalNoClobber(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.aqj")
	if code, _, errw := runCLI(t, "-journal", path, glucose); code != exitCompleted {
		t.Fatalf("first journaled run exit %d (stderr: %s)", code, errw)
	}
	code, _, errw := runCLI(t, "-journal", path, glucose)
	if code != exitError {
		t.Fatalf("clobbering run exit %d, want %d", code, exitError)
	}
	if !strings.Contains(errw, "refusing to clobber") {
		t.Errorf("no-clobber diagnostic missing: %s", errw)
	}
	if code, _, errw := runCLI(t, "-journal", path, "-force-journal", glucose); code != exitCompleted {
		t.Fatalf("forced journaled run exit %d (stderr: %s)", code, errw)
	}
}

// -fsfaults puts an injected filesystem under the journal: a lying fsync
// on the first append poisons the writer and aborts the run (fail-stop),
// while a malformed spec is a usage-level error.
func TestFSFaultsFlag(t *testing.T) {
	dir := t.TempDir()
	// sync #0 is the header sync inside Create, #1 the begin record; #2 is
	// the first record the recovery loop appends.
	code, _, errw := runCLI(t, "-fsfaults", "sync@2:lying",
		"-journal", filepath.Join(dir, "j.aqj"), glucose)
	if code != exitAborted {
		t.Fatalf("lying-fsync run exit %d, want %d (stderr: %s)", code, exitAborted, errw)
	}
	if code, _, _ := runCLI(t, "-fsfaults", "sync@x", glucose); code != exitError {
		t.Fatalf("bad strike spec exit %d, want %d", code, exitError)
	}
	if code, _, _ := runCLI(t, "-fsfaults", "frob=0.5", glucose); code != exitError {
		t.Fatalf("bad rate spec exit %d, want %d", code, exitError)
	}
	// A rate profile with a seed parses and runs (zero faults at rate 0 is
	// not expressible — use a tiny rate over a short run).
	if code, _, errw := runCLI(t, "-fsfaults", "write=0.0001", "-fsfault-seed", "7",
		"-journal", filepath.Join(dir, "r.aqj"), glucose); code != exitCompleted {
		t.Fatalf("low-rate fsfaults run exit %d (stderr: %s)", code, errw)
	}
}

// The listing fluidc ships is the program fluidvm executes. The staged
// glycomics assay is the case that once differed: a staged partition may
// fall back on LP at run time, so neither CLI forwards FU to FU (55
// instructions, not 47). The journal's begin record pins the executed
// program by hash and length.
func TestShippedListingIsExecutedProgram(t *testing.T) {
	listing, err := os.ReadFile("../fluidc/testdata/glycomics.ais")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.aqj")
	if code, _, errw := runCLI(t, "-journal", path, "../../testdata/glycomics.asy"); code != exitCompleted {
		t.Fatalf("glycomics run exit %d (stderr: %s)", code, errw)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := journal.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	begin := recs[0].Begin
	if want := crc32.ChecksumIEEE(listing); begin.Hash != want || begin.Instrs != 55 {
		t.Fatalf("executed program %08x/%d instrs, fluidc listing %08x/55", begin.Hash, begin.Instrs, want)
	}
}
