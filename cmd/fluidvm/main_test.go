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

// Resume refuses a program that does not hash-match the journaled one.
func TestResumeRejectsDifferentProgram(t *testing.T) {
	dir := t.TempDir()
	crashPath := filepath.Join(dir, "crash.aqj")
	if code, _, _ := runCLI(t, "-faults", "moderate", "-seed", "42",
		"-journal", crashPath, "-crash-at", "3", glucose); code != exitAborted {
		t.Fatal("setup crash run did not abort")
	}
	code, _, errw := runCLI(t, "-resume", crashPath, "../../testdata/glycomics.asy")
	if code != exitResumeFailed {
		t.Fatalf("hash-mismatched resume exit %d, want %d", code, exitResumeFailed)
	}
	if !strings.Contains(errw, "different program") {
		t.Errorf("mismatch diagnostic missing: %s", errw)
	}
	if code, _, _ := runCLI(t, "-resume", filepath.Join(dir, "missing.aqj"), glucose); code != exitResumeFailed {
		t.Fatalf("missing journal resume exit %d, want %d", code, exitResumeFailed)
	}
}

// Exit code 6 is the proof-carrying-plans contract: a resume whose
// journal carries a certificate hash that does not match the re-derived
// (and freshly re-certified) plan refuses to execute a single
// instruction and appends no outcome record — the journal stays intact
// as crash evidence. -no-certify is the documented escape hatch.
func TestResumeRejectsCorruptedCertificate(t *testing.T) {
	dir := t.TempDir()
	crashPath := filepath.Join(dir, "crash.aqj")
	if code, _, _ := runCLI(t, "-faults", "moderate", "-seed", "42",
		"-journal", crashPath, "-crash-at", "5", glucose); code != exitAborted {
		t.Fatal("setup crash run did not abort")
	}

	// Forge a journal identical to the crashed one except for the begin
	// record's certificate hash (the frame CRCs protect against bit rot,
	// so the corruption must be re-encoded like an attacker or a buggy
	// tool would).
	f, err := os.Open(crashPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := journal.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Kind != journal.KindBegin || recs[0].Begin.CertHash == 0 {
		t.Fatalf("crashed journal has no certificate hash in its begin record: %+v", recs[0])
	}
	recs[0].Begin.CertHash ^= 0xdeadbeef
	forgedPath := filepath.Join(dir, "forged.aqj")
	w, ff, err := journal.Create(vfs.OS{}, forgedPath, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	ff.Close()

	code, out, errw := runCLI(t, "-resume", forgedPath, glucose)
	if code != exitCertFailed {
		t.Fatalf("corrupted-certificate resume exit %d, want %d (stderr: %s)", code, exitCertFailed, errw)
	}
	if out != "" {
		t.Errorf("refused resume produced stdout: %q", out)
	}
	if !strings.Contains(errw, "certificate hash mismatch") {
		t.Errorf("certificate diagnostic missing from stderr: %s", errw)
	}
	// No outcome record: the journal is still open, exactly as the crash
	// left it, so a corrected binary (or -no-certify) can still resume it.
	f, err = os.Open(forgedPath)
	if err != nil {
		t.Fatal(err)
	}
	after, err := journal.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(recs) {
		t.Errorf("refused resume changed the journal: %d records, want %d", len(after), len(recs))
	}
	for _, r := range after {
		if r.Kind == journal.KindOutcome {
			t.Errorf("refused resume left an outcome record: %+v", r.Outcome)
		}
	}

	// The escape hatch skips the hash check and completes the run.
	if code, _, errw := runCLI(t, "-no-certify", "-resume", forgedPath, glucose); code != exitCompleted {
		t.Fatalf("-no-certify resume exit %d, want %d (stderr: %s)", code, exitCompleted, errw)
	}
}

// A resume over a torn journal tail (process died mid-append) reports
// the truncation on stderr — the reason and how many good bytes
// survived — and still finishes with the uninterrupted run's exit code
// and stdout.
func TestResumeReportsTornTail(t *testing.T) {
	dir := t.TempDir()
	refCode, refOut, _ := runCLI(t, "-faults", "moderate", "-seed", "42",
		"-journal", filepath.Join(dir, "ref.aqj"), glucose)

	crashPath := filepath.Join(dir, "crash.aqj")
	if code, _, _ := runCLI(t, "-faults", "moderate", "-seed", "42",
		"-journal", crashPath, "-crash-at", "6", glucose); code != exitAborted {
		t.Fatal("setup crash run did not abort")
	}
	b, err := os.ReadFile(crashPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(crashPath, b[:len(b)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	code, out, errw := runCLI(t, "-resume", crashPath, glucose)
	if code != refCode {
		t.Fatalf("torn-tail resume exit %d, want %d (stderr: %s)", code, refCode, errw)
	}
	if out != refOut {
		t.Errorf("torn-tail resume stdout differs from uninterrupted run\n got: %q\nwant: %q", out, refOut)
	}
	if !strings.Contains(errw, "recovered journal tail") || !strings.Contains(errw, "good bytes") {
		t.Errorf("torn-tail warning missing from stderr: %s", errw)
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
