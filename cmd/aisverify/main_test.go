package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aquavol/internal/diag"
)

// record is the JSON shape of one finding, as consumers parse it.
type record struct {
	File       string        `json:"file"`
	Line       int           `json:"line,omitempty"`
	Col        int           `json:"col,omitempty"`
	Severity   diag.Severity `json:"severity"`
	Code       string        `json:"code,omitempty"`
	Message    string        `json:"message"`
	Suggestion string        `json:"suggestion,omitempty"`
}

func writeFile(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const cleanListing = `input s1, ip1
move-abs mixer1, s1, 500
mix mixer1, 10
move sensor1, mixer1
sense.OD sensor1, r
halt
`

const ranOutListing = `input s1, ip1
move-abs mixer1, s2, 10
halt
`

// warnListing senses an empty chamber — a warning-only finding.
const warnListing = `sense.OD sensor1, r0
halt
`

const badAsmListing = `frobnicate s1, s2
halt
`

func runVerify(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCodes(t *testing.T) {
	clean := writeFile(t, "clean.ais", cleanListing)
	bad := writeFile(t, "bad.ais", ranOutListing)
	warm := writeFile(t, "warm.ais", warnListing)

	if code, out, _ := runVerify(t, clean); code != 0 || out != "" {
		t.Errorf("clean listing: exit %d, output %q; want 0 and no findings", code, out)
	}
	if code, out, _ := runVerify(t, bad); code != 1 || !strings.Contains(out, "AIS001") {
		t.Errorf("ran-out listing: exit %d, output %q; want 1 with AIS001", code, out)
	}
	if code, out, _ := runVerify(t, warm); code != 0 || !strings.Contains(out, "AIS011") {
		t.Errorf("warning listing: exit %d, output %q; want 0 with AIS011", code, out)
	}
	if code, _, _ := runVerify(t, "-Werror", warm); code != 1 {
		t.Errorf("-Werror on warning listing: exit %d, want 1", code)
	}
	if code, _, _ := runVerify(t); code != 2 {
		t.Errorf("no arguments: exit %d, want 2", code)
	}
	if code, _, _ := runVerify(t, filepath.Join(t.TempDir(), "missing.ais")); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

func TestAssemblerErrorsAreFindings(t *testing.T) {
	bad := writeFile(t, "bad.ais", badAsmListing)
	code, out, stderr := runVerify(t, bad)
	if code != 1 {
		t.Fatalf("exit %d (stderr %q), want 1", code, stderr)
	}
	if !strings.Contains(out, "ASM001") || !strings.Contains(out, "bad.ais:1:1") {
		t.Errorf("output %q; want positioned ASM001 finding", out)
	}
}

func TestJSONOutput(t *testing.T) {
	bad := writeFile(t, "bad.ais", ranOutListing)
	code, out, _ := runVerify(t, "-json", bad)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var records []record
	if err := json.Unmarshal([]byte(out), &records); err != nil {
		t.Fatalf("invalid JSON %q: %v", out, err)
	}
	if len(records) == 0 || records[0].Code != "AIS001" || records[0].Line != 2 {
		t.Errorf("records = %+v; want AIS001 at line 2", records)
	}
}

func TestVoltabOption(t *testing.T) {
	// A planned 120 nl draw from a 100 nl reservoir only shows up when
	// the volume table is supplied.
	listing := writeFile(t, "prog.ais", "input s1, ip1\nmove mixer1, s1, 1\nhalt\n")
	tab := writeFile(t, "prog.vol", "aquavol-voltab v1\n1 120\n")
	if code, out, _ := runVerify(t, listing); code != 0 {
		t.Fatalf("without table: exit %d, output %q; want 0", code, out)
	}
	code, out, _ := runVerify(t, "-voltab", tab, listing)
	if code != 1 || !strings.Contains(out, "AIS001") {
		t.Errorf("with table: exit %d, output %q; want 1 with AIS001", code, out)
	}
	two := writeFile(t, "other.ais", cleanListing)
	if code, _, stderr := runVerify(t, "-voltab", tab, listing, two); code != 2 || !strings.Contains(stderr, "single listing") {
		t.Errorf("-voltab with two listings: exit %d, stderr %q; want 2", code, stderr)
	}
}

// TestJSONGolden pins the -json bytes of one run over a verifier error,
// a verifier warning and an assembler error against testdata/json.golden.
func TestJSONGolden(t *testing.T) {
	code, out, stderr := runVerify(t, "-json", "testdata/ranout.ais", "testdata/warn.ais", "testdata/badasm.ais")
	if code != 1 {
		t.Fatalf("exit %d, stderr %q; want 1", code, stderr)
	}
	want, err := os.ReadFile("testdata/json.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("-json output differs from testdata/json.golden:\n got: %s\nwant: %s", out, want)
	}
}
