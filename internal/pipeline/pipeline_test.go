package pipeline_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/budget"
	"aquavol/internal/certify"
	"aquavol/internal/core"
	"aquavol/internal/lang"
	"aquavol/internal/pipeline"
)

func plan(t *testing.T, src string, opts pipeline.Options) *pipeline.Compiled {
	t.Helper()
	ep, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pipeline.Plan(ep, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The pipeline produces the plans the volume manager always has: every
// shipped assay's certified plans keep their pinned certify.PlanHash.
func TestPlanHashesPinned(t *testing.T) {
	cases := []struct {
		name, src string
		want      []uint32 // the static plan, or each compile-time staged partition
	}{
		{"glucose", assays.GlucoseSource, []uint32{0xdce0ec54}},
		{"glycomics", assays.GlycomicsSource, []uint32{0xd6cb3814}},
		{"enzyme2", assays.EnzymeSource(2), []uint32{0xcc809212}},
		{"enzyme3", assays.EnzymeSource(3), []uint32{0xc000bba8}},
		{"enzyme4", assays.EnzymeSource(4), []uint32{0xe8240821}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := plan(t, tc.src, pipeline.Options{})
			var got []uint32
			if c.Staged != nil {
				if c.CertHash != 0 {
					t.Errorf("staged assay pins a certificate hash %08x", c.CertHash)
				}
				for _, p := range c.Staged.Plans {
					if p != nil {
						got = append(got, certify.PlanHash(p))
					}
				}
			} else {
				got = []uint32{certify.PlanHash(c.Plan)}
				if c.CertHash != got[0] {
					t.Errorf("CertHash %08x, plan hash %08x", c.CertHash, got[0])
				}
			}
			if fmt.Sprintf("%08x", got) != fmt.Sprintf("%08x", tc.want) {
				t.Errorf("plan hashes %08x, want %08x", got, tc.want)
			}
		})
	}
}

// Forwarding is off exactly when a unit may be left holding excess: LP
// plans, staged plans and a positive margin.
func TestForwardingPolicy(t *testing.T) {
	instrs := func(src string, opts pipeline.Options) int {
		c, err := pipeline.Compile(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		return len(c.Code.Prog.Instrs)
	}
	static := instrs(assays.GlucoseSource, pipeline.Options{})
	margin := instrs(assays.GlucoseSource, pipeline.Options{Margin: 0.1})
	if margin <= static {
		t.Errorf("glucose with a margin has %d instructions, without %d: want forwarding off (more moves)", margin, static)
	}
	if n := instrs(assays.GlycomicsSource, pipeline.Options{}); n != 55 {
		t.Errorf("staged glycomics has %d instructions, want 55 (no forwarding)", n)
	}
	c := plan(t, assays.EnzymeSource(4), pipeline.Options{})
	if !c.Managed.UsedLP {
		t.Fatal("enzyme4 no longer plans through the LP fallback")
	}
	// enzyme4's LP plan, routed through reservoirs, outgrows the default
	// chip: the code generator says so instead of forwarding.
	if err := c.Generate(); err == nil || !strings.Contains(err.Error(), "out of reservoirs") {
		t.Errorf("enzyme4 codegen err = %v, want out of reservoirs", err)
	}
}

// The certification gate fires on a perturbed plan, static or staged,
// and with certification off the verifier still refuses the listing.
func TestMutatePlan(t *testing.T) {
	for _, src := range []string{assays.GlucoseSource, assays.GlycomicsSource} {
		_, err := pipeline.Compile(src, pipeline.Options{MutatePlan: true})
		if !errors.Is(err, certify.ErrCertificate) || !strings.Contains(err.Error(), "plan rejected") {
			t.Errorf("mutated compile err = %v, want a rejected plan", err)
		}
	}
	_, err := pipeline.Compile(assays.GlucoseSource, pipeline.Options{MutatePlan: true, NoCertify: true})
	if !errors.Is(err, pipeline.ErrVerify) {
		t.Errorf("mutated uncertified compile err = %v, want ErrVerify", err)
	}
	c := plan(t, assays.GlucoseSource, pipeline.Options{MutatePlan: true, NoCertify: true, NoVerify: true})
	if err := c.Generate(); err != nil || c.Findings != nil || c.CertHash != 0 {
		t.Errorf("NoCertify+NoVerify: err %v, findings %v, cert hash %08x; want none", err, c.Findings, c.CertHash)
	}
}

// Plain DAGSolve that underflows is returned uncertified for the caller
// to report; the verifier then catches the underflowing moves.
func TestNoManageUnderflow(t *testing.T) {
	c := plan(t, assays.EnzymeSource(4), pipeline.Options{NoManage: true})
	if c.Plan.Feasible() || c.Managed != nil || c.CertHash != 0 {
		t.Fatalf("feasible %v, managed %v, cert hash %08x; want an uncertified underflowing plan",
			c.Plan.Feasible(), c.Managed != nil, c.CertHash)
	}
	if err := c.Generate(); err != nil {
		t.Fatal(err)
	}
	if !c.Findings.HasErrors() {
		t.Error("verifier passes a listing with sub-least-count moves")
	}
}

// A refusal from the volume manager carries its decision trace.
func TestUnmanageableCarriesTrace(t *testing.T) {
	src := `ASSAY hot START
NOEXCESS fluid toxin;
fluid water, d;
VAR r;
d = MIX toxin AND water IN RATIOS 1:1200 FOR 10;
SENSE OPTICAL d INTO r;
END`
	_, err := pipeline.Compile(src, pipeline.Options{})
	if !errors.Is(err, core.ErrUnmanageable) || !strings.Contains(err.Error(), "trace:\n  attempt 1:") {
		t.Fatalf("err = %v, want ErrUnmanageable with its trace", err)
	}
}

// Every run gets a fresh machine and volume source: a staged assay
// replans from its first partition each time, so repeated runs agree.
func TestNewMachineIsFresh(t *testing.T) {
	c, err := pipeline.Compile(assays.GlycomicsSource, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var outs []string
	for i := 0; i < 2; i++ {
		m, err := c.NewMachine(aquacore.Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(c.Code.Prog)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Clean() {
			t.Fatalf("run %d: %d volume events, first %v", i, len(res.Events), res.Events[0])
		}
		outs = append(outs, fmt.Sprint(res.Outputs, res.Dry, res.WetSeconds))
	}
	if outs[0] != outs[1] {
		t.Errorf("second run differs:\n%s\n%s", outs[0], outs[1])
	}
	if rc := c.Recovery(); rc.Graph != c.Graph || rc.Clusters == nil {
		t.Error("recovery bundle does not carry the run graph and clusters")
	}
}

// A budget meters planning: one too small stops the compile with a
// typed cause.
func TestBudgetStopsPlanning(t *testing.T) {
	_, err := pipeline.Compile(assays.GlucoseSource, pipeline.Options{Budget: budget.New(1)})
	if !budget.IsStop(err) {
		t.Fatalf("err = %v, want a budget stop", err)
	}
}
