package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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

func writeAssay(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const cleanSrc = `ASSAY clean START
fluid stock, buffer, dil, out;
VAR r[2];
dil = MIX stock AND buffer IN RATIOS 1:8 FOR 10;
SENSE OPTICAL dil INTO r[1];
out = MIX stock AND buffer IN RATIOS 1:4 FOR 10;
SENSE OPTICAL out INTO r[2];
END`

const errorSrc = `ASSAY hot START
NOEXCESS fluid toxin;
fluid water, d;
VAR r;
d = MIX toxin AND water IN RATIOS 1:1200 FOR 10;
SENSE OPTICAL d INTO r;
END`

// warnSrc draws warnings only: the 1:1200 ratio exceeds MaxSkew but is
// repairable by a depth-2 cascade, so nothing reaches error severity.
const warnSrc = `ASSAY warm START
fluid acid, water, d;
VAR r;
d = MIX acid AND water IN RATIOS 1:1200 FOR 10;
SENSE OPTICAL d INTO r;
END`

func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCodes(t *testing.T) {
	clean := writeAssay(t, "clean.asy", cleanSrc)
	hot := writeAssay(t, "hot.asy", errorSrc)
	warm := writeAssay(t, "warm.asy", warnSrc)

	if code, out, _ := runLint(t, clean); code != 0 || out != "" {
		t.Errorf("clean assay: exit %d, output %q; want 0 and no findings", code, out)
	}
	if code, out, _ := runLint(t, hot); code != 1 || out == "" {
		t.Errorf("uncascadable assay: exit %d, output %q; want 1 with findings", code, out)
	}
	// Warnings alone do not fail the build...
	if code, out, _ := runLint(t, warm); code != 0 || out == "" {
		t.Errorf("cascade-repairable assay: exit %d, output %q; want 0 with findings", code, out)
	}
	// ...unless promoted by -Werror.
	if code, _, _ := runLint(t, "-Werror", warm); code != 1 {
		t.Errorf("-Werror should promote warnings to exit 1")
	}
	if code, _, stderr := runLint(t); code != 2 || stderr == "" {
		t.Errorf("no arguments: exit %d; want 2 with usage on stderr", code)
	}
	if code, _, _ := runLint(t, filepath.Join(t.TempDir(), "missing.asy")); code != 2 {
		t.Errorf("missing file: want exit 2")
	}
}

func TestJSONOutput(t *testing.T) {
	hot := writeAssay(t, "hot.asy", errorSrc)
	code, out, stderr := runLint(t, "-json", hot)
	if code != 1 {
		t.Fatalf("exit %d, stderr %q; want 1", code, stderr)
	}
	var records []record
	if err := json.Unmarshal([]byte(out), &records); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if len(records) == 0 {
		t.Fatal("no findings in JSON output")
	}
	sawError := false
	for _, r := range records {
		if r.File != hot {
			t.Errorf("record file = %q, want %q", r.File, hot)
		}
		if r.Line == 0 || r.Code == "" || r.Message == "" {
			t.Errorf("incomplete record: %+v", r)
		}
		if r.Severity.String() == "error" {
			sawError = true
		}
	}
	if !sawError {
		t.Error("exit 1 but no error-severity record in JSON output")
	}

	// The clean assay still emits a well-formed (empty) array.
	clean := writeAssay(t, "clean.asy", cleanSrc)
	if code, out, _ := runLint(t, "-json", clean); code != 0 {
		t.Errorf("clean assay: exit %d", code)
	} else if err := json.Unmarshal([]byte(out), &records); err != nil || len(records) != 0 {
		t.Errorf("clean assay JSON = %q (err %v); want empty array", out, err)
	}
}

// TestJSONGolden pins the -json bytes of one run over an error-only and
// a warning-only assay against testdata/json.golden.
func TestJSONGolden(t *testing.T) {
	code, out, stderr := runLint(t, "-json", "testdata/hot.asy", "testdata/warm.asy")
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
