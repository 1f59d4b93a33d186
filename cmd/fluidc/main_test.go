package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

const (
	glucose   = "../../testdata/glucose.asy"
	glycomics = "../../testdata/glycomics.asy"
	lintDir   = "../../internal/analysis/testdata/lint/"
)

// cliCase is one fluidc invocation: arguments in, exit code, stdout and
// written files compared against golden files, stderr checked for
// substrings. "$TMP" in an argument expands to the case's temp dir.
type cliCase struct {
	name   string
	args   []string
	code   int
	stdout string   // golden file under testdata; "" means stdout must be empty
	stderr []string // substrings stderr must contain
	// files maps a file the run may write under $TMP to its golden file;
	// "" means the file must not be written.
	files map[string]string
}

func TestCLI(t *testing.T) {
	cases := []cliCase{
		{name: "glucose", args: []string{glucose}, stdout: "glucose.ais"},
		{name: "glucose-o-voltab", args: []string{"-o", "$TMP/g.ais", "-voltab", "$TMP/g.vol", glucose},
			files: map[string]string{"g.ais": "glucose.ais", "g.vol": "glucose.vol"}},
		{name: "glucose-plan", args: []string{"-plan", glucose}, stdout: "glucose.plan"},
		{name: "glucose-dot", args: []string{"-dot", glucose}, stdout: "glucose.dot"},
		{name: "glucose-no-manage", args: []string{"-no-manage", glucose}, stdout: "glucose.ais"},
		{name: "glucose-lint-clean", args: []string{"-lint", "-Werror", glucose}, stdout: "glucose.ais"},
		{name: "lint-error", args: []string{"-lint", lintDir + "vol001_yield_squeeze.asy"}, code: 1,
			stderr: []string{"vol001_yield_squeeze.asy:6:1: error[VOL001]"}},
		{name: "lint-warning", args: []string{"-lint", "-o", "$TMP/w.ais", lintDir + "vol020_dead_fluid.asy"},
			stderr: []string{"warning[VOL020]"}, files: map[string]string{"w.ais": "vol020.ais"}},
		{name: "Werror", args: []string{"-Werror", "-o", "$TMP/w.ais", lintDir + "vol020_dead_fluid.asy"}, code: 1,
			stderr: []string{"error[VOL020]"}, files: map[string]string{"w.ais": ""}},
		{name: "glycomics-staged", args: []string{glycomics}, stdout: "glycomics.ais",
			stderr: []string{"statically-unknown volumes: 4 partitions, 1 solvable at compile time"}},
		{name: "mutate-plan", args: []string{"-mutate-plan", "-o", "$TMP/m.ais", glucose}, code: 1,
			stderr: []string{"managed plan rejected", "failed certification"}, files: map[string]string{"m.ais": ""}},
		{name: "mutate-plan-staged", args: []string{"-mutate-plan", "-o", "$TMP/m.ais", glycomics}, code: 1,
			stderr: []string{"partition 0 plan rejected", "failed certification"}, files: map[string]string{"m.ais": ""}},
		{name: "mutate-plan-no-certify", args: []string{"-mutate-plan", "-no-certify", "-o", "$TMP/m.ais", glucose}, code: 1,
			stderr: []string{"aisverify: error[AIS001]"}, files: map[string]string{"m.ais": ""}},
		{name: "no-args", code: 2, stderr: []string{"usage: fluidc"}},
		{name: "bad-flag", args: []string{"-bogus", glucose}, code: 2, stderr: []string{"-bogus"}},
		{name: "missing-file", args: []string{"$TMP/missing.asy"}, code: 1, stderr: []string{"fluidc:", "missing.asy"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runCase(t, tc) })
	}
}

func runCase(t *testing.T, tc cliCase) {
	t.Helper()
	tmp := t.TempDir()
	args := make([]string, len(tc.args))
	for i, a := range tc.args {
		args[i] = strings.ReplaceAll(a, "$TMP", tmp)
	}
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if code != tc.code {
		t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
	}
	for _, want := range tc.stderr {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
	checkGolden(t, "stdout", stdout.Bytes(), tc.stdout)
	for file, golden := range tc.files {
		got, err := os.ReadFile(filepath.Join(tmp, file))
		if golden == "" {
			if err == nil {
				t.Errorf("%s was written (%d bytes), want no file", file, len(got))
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, file, got, golden)
	}
}

// checkGolden compares got against testdata/golden, rewriting the golden
// file under -update. An empty golden name requires got to be empty.
func checkGolden(t *testing.T, what string, got []byte, golden string) {
	t.Helper()
	if golden == "" {
		if len(got) != 0 {
			t.Errorf("%s: got %d bytes, want none:\n%s", what, len(got), got)
		}
		return
	}
	path := filepath.Join("testdata", golden)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from %s\n got:\n%s\nwant:\n%s", what, path, got, want)
	}
}
