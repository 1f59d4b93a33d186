package aisverify_test

import (
	"testing"

	"aquavol/internal/ais"
	"aquavol/internal/aisverify"
	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/core"
	"aquavol/internal/diag"
	"aquavol/internal/lang"
	"aquavol/internal/pipeline"
)

// The differential contract of the verifier, direction one: a program the
// verifier passes must simulate event-free. Every example assay compiles
// through the pipeline, verifies with zero findings, and runs on the
// machine with zero volume events.
func TestVerifierCleanProgramsSimulateClean(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"glucose", assays.GlucoseSource},
		{"glycomics", assays.GlycomicsSource},
		{"enzyme2", assays.EnzymeSource(2)},
		{"enzyme4", assays.EnzymeSource(4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ep, err := lang.Compile(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			opts := pipeline.Options{}
			if tc.name == "enzyme4" {
				// enzyme4's LP plan needs more than the chip's 64
				// reservoirs once forwarding is off. Keep the LP-free
				// plan instead: the graph the volume manager reaches
				// without the LP fallback, which plain DAGSolve solves.
				res, err := core.Manage(ep.Graph, core.DefaultConfig(), core.ManageOptions{SkipLP: true})
				if err != nil {
					t.Fatal(err)
				}
				managed := *ep
				managed.Graph = res.Graph
				ep, opts.NoManage = &managed, true
			}
			c, err := pipeline.Plan(ep, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Generate(); err != nil {
				t.Fatal(err)
			}
			if len(c.Findings) != 0 {
				t.Fatalf("verifier findings on %s:\n%v", tc.name, c.Findings)
			}
			m, err := c.NewMachine(aquacore.Config{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(c.Code.Prog)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Clean() {
				t.Fatalf("simulation events (%d): first %v", len(res.Events), res.Events[0])
			}
		})
	}
}

// Direction two: every error-severity AIS0xx code has a witness program
// that the verifier flags and whose simulation actually faults (a volume
// event or a machine error). Warning codes flag conditions the machine
// tolerates and so have no fault obligation.
func TestErrorCodesHaveFaultingWitnesses(t *testing.T) {
	witnesses := []struct {
		code diag.Code
		src  string
		tab  ais.VolumeTable
	}{
		{aisverify.CodeRanOut, // draw from a never-filled reservoir
			"input s1, ip1\nmove-abs mixer1, s2, 10\nhalt", nil},
		{aisverify.CodeOverflow, // 60 nl + 60 nl into one 100 nl mixer
			"input s1, ip1\nmove-abs mixer1, s1, 600\ninput s1, ip1\nmove-abs mixer1, s1, 600\nhalt", nil},
		{aisverify.CodeLeastCount, // half a least-count unit
			"input s1, ip1\nmove-abs mixer1, s1, 0.5\nhalt", nil},
		{aisverify.CodeOccupiedPort, // refill an output port that still holds fluid
			"input s1, ip1\nmove-abs separator1.out1, s1, 600\nmove-abs separator1.out1, s1, 600\nhalt", nil},
		{aisverify.CodeUseBeforeDef, // dry arithmetic on an unset register
			"dry-add r0, 1\nhalt", nil},
		{aisverify.CodeMalformed, // a register where a vessel belongs
			"move s1, r0\nhalt", nil},
	}
	for _, w := range witnesses {
		t.Run(w.code.ID, func(t *testing.T) {
			prog, err := ais.Assemble(w.src)
			if err != nil {
				t.Fatal(err)
			}
			flagged := false
			for _, d := range aisverify.Verify(prog, aisverify.Options{Volumes: w.tab}) {
				if d.Code == w.code.ID && d.Severity == diag.Error {
					flagged = true
				}
			}
			if !flagged {
				t.Fatalf("verifier does not flag %s on its witness", w.code)
			}

			m := aquacore.New(aquacore.Config{}, nil, nil)
			if w.tab != nil {
				m.SetVolumeTable(w.tab)
			}
			res, err := m.Run(prog)
			if err == nil && res.Clean() {
				t.Fatalf("witness for %s simulates clean — no fault to predict", w.code)
			}
		})
	}
}
