// Command fluidlint is the standalone compile-time volume-safety linter:
// it parses, checks, and elaborates assay sources, then runs the
// internal/analysis passes (volume intervals, mix skew, dead fluid/waste,
// least-count divisibility) without invoking any solver or generating
// code.
//
// Usage:
//
//	fluidlint [-json] [-Werror] [-waste-threshold F] assay.asy...
//
// Findings print one per line as file:line:col: severity[CODE]: message;
// suggestion. With -json a machine-readable array of findings is emitted
// instead. The exit status is 1 if and only if any finding has error
// severity (after -Werror promotion), 2 on usage or I/O failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"aquavol/internal/analysis"
	"aquavol/internal/core"
	"aquavol/internal/diag"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fluidlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	wError := fs.Bool("Werror", false, "treat warnings as errors")
	threshold := fs.Float64("waste-threshold", 0, "statically-discarded input fraction that triggers VOL021 (default 0.25)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: fluidlint [-json] [-Werror] [-waste-threshold F] assay.asy...")
		return 2
	}

	cfg := core.DefaultConfig()
	opts := analysis.Options{DiscardThreshold: *threshold}
	report := diag.Report{Werror: *wError}
	for _, file := range fs.Args() {
		src, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(stderr, "fluidlint:", err)
			return 2
		}
		findings, _, err := analysis.LintSource(string(src), cfg, opts)
		if err != nil {
			fmt.Fprintln(stderr, "fluidlint:", err)
			return 2
		}
		report.Add(file, findings)
	}
	return report.Finish("fluidlint", stdout, stderr, *jsonOut)
}
