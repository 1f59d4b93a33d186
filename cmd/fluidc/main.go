// Command fluidc compiles an assay-language source file to AquaCore
// Instruction Set code with an automatically-managed volume plan: the full
// pipeline of the paper (parse → check → elaborate/unroll → volume
// management hierarchy → code generation). The stages after elaboration
// are internal/pipeline, the same pipeline fluidvm executes, so the
// listing fluidc ships is the program fluidvm runs.
//
// Usage:
//
//	fluidc [-plan] [-dot] [-lint] [-Werror] [-no-manage] [-no-verify] [-no-certify] [-o FILE] [-voltab FILE] assay.asy
//
// -plan prints the volume plan alongside the listing, -dot emits the
// (transformed) assay DAG in Graphviz format, -lint runs the compile-time
// volume-safety analyzer (see cmd/fluidlint) before volume management and
// fails on error findings, -Werror additionally promotes lint warnings to
// errors, -no-manage skips the cascading/replication hierarchy (plain
// DAGSolve only). -o writes the listing to a file; -voltab writes the
// per-instruction volume table of a static assay (the pair fluidvm -ais
// and aisverify -voltab read back).
//
// Every solved plan (including each statically-solved partition of a
// staged assay) is certified by the independent checker
// (internal/certify) before code generation; a certification failure
// fails the compile. -no-certify skips this pass. -mutate-plan perturbs
// the solved plan before certification, to prove the gate fires (used by
// CI; a mutated compile must exit non-zero).
//
// After code generation the emitted listing is checked by the
// instruction-level verifier (internal/aisverify) against the volume plan;
// error findings fail the compile. -no-verify skips this pass.
//
// Exit codes: 0 compiled, 1 error (including lint, certification and
// verifier rejections), 2 usage.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"aquavol/internal/analysis"
	"aquavol/internal/core"
	"aquavol/internal/diag"
	"aquavol/internal/lang"
	"aquavol/internal/pipeline"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fluidc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	showPlan := fs.Bool("plan", false, "print the volume plan")
	showDot := fs.Bool("dot", false, "emit the assay DAG in Graphviz dot")
	lint := fs.Bool("lint", false, "run the volume-safety analyzer before compiling")
	wError := fs.Bool("Werror", false, "treat lint warnings as errors (implies -lint)")
	noManage := fs.Bool("no-manage", false, "skip the cascading/replication hierarchy")
	noVerify := fs.Bool("no-verify", false, "skip the post-codegen instruction-level verifier")
	noCertify := fs.Bool("no-certify", false, "skip the independent plan-certification pass")
	mutatePlan := fs.Bool("mutate-plan", false, "perturb the solved plan before certification (CI gate check)")
	outFile := fs.String("o", "", "write the AIS listing to this file instead of stdout")
	volFile := fs.String("voltab", "", "write the per-instruction volume table to this file (static assays only)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: fluidc [flags] assay.asy")
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "fluidc:", err)
		return 1
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fatal(err)
	}
	ep, err := lang.Compile(string(src))
	if err != nil {
		return fatal(err)
	}

	if *lint || *wError {
		findings, err := analysis.Analyze(ep, core.DefaultConfig(), analysis.Options{})
		if err != nil {
			return fatal(err)
		}
		report := diag.Report{Werror: *wError}
		report.Add(fs.Arg(0), findings)
		report.WriteText(stderr)
		if report.Failed() {
			return 1
		}
	}

	c, err := pipeline.Plan(ep, pipeline.Options{
		NoManage: *noManage, NoCertify: *noCertify, MutatePlan: *mutatePlan, NoVerify: *noVerify,
	})
	if err != nil {
		return fatal(err)
	}
	switch {
	case c.Staged != nil:
		solved := 0
		for _, p := range c.Staged.Plans {
			if p != nil {
				solved++
			}
		}
		fmt.Fprintf(stderr, "assay has statically-unknown volumes: %d partitions, %d solvable at compile time\n",
			c.Staged.NumParts(), solved)
	case !c.Plan.Feasible():
		fmt.Fprintf(stderr, "warning: DAGSolve underflows (%d); rerun without -no-manage\n", len(c.Plan.Underflows))
	case c.Managed != nil:
		for _, tr := range c.Managed.Transforms {
			fmt.Fprintf(stderr, "applied %s\n", tr)
		}
	}
	if *showDot {
		fmt.Fprint(stdout, c.Graph.DOT(ep.Name))
		return 0
	}
	if err := c.Generate(); err != nil {
		return fatal(err)
	}
	for _, d := range c.Findings {
		fmt.Fprintf(stderr, "aisverify: %s\n", d.Error())
	}
	if c.Findings.HasErrors() {
		return 1
	}

	listing := c.Code.Prog.String()
	if *outFile != "" {
		if err := os.WriteFile(*outFile, []byte(listing), 0o644); err != nil {
			return fatal(err)
		}
	} else {
		fmt.Fprint(stdout, listing)
	}
	if *volFile != "" {
		if c.Plan == nil {
			return fatal(fmt.Errorf("-voltab requires a statically-solvable assay"))
		}
		if err := os.WriteFile(*volFile, []byte(c.Volumes.String()), 0o644); err != nil {
			return fatal(err)
		}
	}
	if *showPlan && c.Plan != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, c.Plan)
	}
	return 0
}
