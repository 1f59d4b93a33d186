// Command aisverify is the instruction-level volume-safety verifier for
// compiled AIS listings — the artifact-level counterpart of cmd/fluidlint.
// It assembles each listing, runs internal/aisverify's abstract
// interpretation (per-vessel volume intervals, dry-register definedness,
// functional-unit port protocol), and reports findings with stable AIS0xx
// codes; assembler errors report as ASM0xx findings through the same
// channel.
//
// Usage:
//
//	aisverify [-json] [-Werror] [-voltab prog.vol] [-yield F] prog.ais...
//
// Findings print one per line as file:line:col: severity[CODE]: message.
// With -json a machine-readable array of findings is emitted instead.
// -voltab supplies the shipped per-instruction volume table (single
// listing only). The exit status is 1 if and only if any finding has
// error severity (after -Werror promotion), 2 on usage or I/O failure.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"aquavol/internal/ais"
	"aquavol/internal/aisverify"
	"aquavol/internal/diag"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aisverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	wError := fs.Bool("Werror", false, "treat warnings as errors")
	volFile := fs.String("voltab", "", "per-instruction volume table for the listing")
	yield := fs.Float64("yield", 0, fmt.Sprintf("separation effluent yield fraction (default %g)", ais.SeparationYield))
	unknown := fs.Bool("unknown-volumes", false, "volumes are assigned at run time (staged assays)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: aisverify [-json] [-Werror] [-voltab prog.vol] [-yield F] prog.ais...")
		return 2
	}
	if *volFile != "" && fs.NArg() != 1 {
		fmt.Fprintln(stderr, "aisverify: -voltab applies to a single listing")
		return 2
	}

	var tab ais.VolumeTable
	if *volFile != "" {
		vsrc, err := os.ReadFile(*volFile)
		if err != nil {
			fmt.Fprintln(stderr, "aisverify:", err)
			return 2
		}
		tab, err = ais.ParseVolumeTable(string(vsrc))
		if err != nil {
			fmt.Fprintln(stderr, "aisverify:", err)
			return 2
		}
	}

	report := diag.Report{Werror: *wError}
	for _, file := range fs.Args() {
		src, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(stderr, "aisverify:", err)
			return 2
		}
		var findings diag.List
		prog, err := ais.Assemble(string(src))
		if err != nil {
			// Assembler diagnostics are findings; anything else is I/O-grade.
			var dl diag.List
			if !errors.As(err, &dl) {
				fmt.Fprintln(stderr, "aisverify:", err)
				return 2
			}
			findings = dl
		} else {
			findings = aisverify.Verify(prog, aisverify.Options{
				Volumes:         tab,
				UnknownVolumes:  *unknown,
				SeparationYield: *yield,
			})
		}
		report.Add(file, findings)
	}
	return report.Finish("aisverify", stdout, stderr, *jsonOut)
}
