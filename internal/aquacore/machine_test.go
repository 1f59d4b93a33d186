package aquacore_test

import (
	"math"
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/codegen"
	"aquavol/internal/core"
	"aquavol/internal/lang"
	"aquavol/internal/lang/elab"
)

func compileAndPlan(t *testing.T, src string) (*elab.Program, *core.Plan, *codegen.Result) {
	t.Helper()
	ep, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.DAGSolve(ep.Graph, core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := codegen.Generate(ep, ep.Graph, codegen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return ep, plan, cg
}

// Glucose end to end: compile → DAGSolve → codegen → simulate. The run
// must be clean and the sensed readings (default sensor = volume) must
// equal the planned mix volumes.
func TestGlucoseEndToEnd(t *testing.T) {
	ep, plan, cg := compileAndPlan(t, assays.GlucoseSource)
	m := aquacore.New(aquacore.Config{}, ep.Graph, aquacore.PlanSource{Plan: plan})
	dry := map[string]float64{}
	for slot, v := range ep.Init {
		dry[ep.Slots[slot]] = v
	}
	m.SetDry(dry)
	res, err := m.Run(cg.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("events: %v", res.Events)
	}
	// Sensed values = planned volumes of mixes a..e.
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		n := ep.Graph.NodeByName(name)
		want := plan.NodeVolume[n.ID()]
		got := res.Dry[ep.Slots[ep.SlotIndex[fmtResult(i+1)]]]
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("Result[%d] = %v, want planned volume %v of %s", i+1, got, want, name)
		}
	}
	// Wet time dominates dry time by orders of magnitude.
	if res.WetSeconds < 1000*res.DrySeconds {
		t.Errorf("wet %.3gs vs dry %.3gs: expected wet >> dry", res.WetSeconds, res.DrySeconds)
	}
}

func fmtResult(i int) string {
	return "Result" + "[" + string(rune('0'+i)) + "]"
}

// The rounded IVol plan also executes cleanly, and the achieved mix
// composition error stays within the paper's 2% bound.
func TestGlucoseRoundedPlanExecutes(t *testing.T) {
	ep, plan, cg := compileAndPlan(t, assays.GlucoseSource)
	cfg := core.DefaultConfig()
	ip := core.Round(plan, cfg)
	if !ip.Feasible() {
		t.Fatal("rounded plan infeasible")
	}
	m := aquacore.New(aquacore.Config{}, ep.Graph, intPlanSource{plan: ip, cfg: cfg})
	res, err := m.Run(cg.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("events: %v", res.Events)
	}
}

// Enzyme after automatic management (cascade + replication): the
// transformed graph executes cleanly.
func TestEnzymeManagedEndToEnd(t *testing.T) {
	ep, err := lang.Compile(assays.EnzymeSource(4))
	if err != nil {
		t.Fatal(err)
	}
	mres, err := core.Manage(ep.Graph, core.DefaultConfig(), core.ManageOptions{SkipLP: true})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := codegen.Generate(ep, mres.Graph, codegen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := aquacore.New(aquacore.Config{}, mres.Graph, aquacore.PlanSource{Plan: mres.Plan})
	res, err := m.Run(cg.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("events (%d): first %v", len(res.Events), res.Events[0])
	}
	if res.WetInstrs < 400 {
		t.Errorf("wet instrs = %d, expected hundreds for the enzyme assay", res.WetInstrs)
	}
}

// The un-managed enzyme plan (with its 9.8 pl dispense) raises underflow
// events at run time — the failure volume management prevents.
func TestEnzymeUnmanagedUnderflows(t *testing.T) {
	ep, plan, cg := compileAndPlan(t, assays.EnzymeSource(4))
	m := aquacore.New(aquacore.Config{}, ep.Graph, aquacore.PlanSource{Plan: plan})
	res, err := m.Run(cg.Prog)
	if err != nil {
		t.Fatal(err)
	}
	under := 0
	for _, e := range res.Events {
		if e.Kind == aquacore.EventUnderflow {
			under++
		}
	}
	if under == 0 {
		t.Fatal("expected underflow events from the unmanaged 1:999 dilutions")
	}
}

// Glycomics end to end with run-time volume assignment: partitions are
// solved as separations are measured; execution is clean.
func TestGlycomicsStagedEndToEnd(t *testing.T) {
	ep, err := lang.Compile(assays.GlycomicsSource)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := core.NewStagedPlan(ep.Graph, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := aquacore.NewStagedSource(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := codegen.Generate(ep, ep.Graph, codegen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := aquacore.New(aquacore.Config{SeparationYield: 0.5}, ep.Graph, src)
	res, err := m.Run(cg.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("events: %v", res.Events)
	}
	// All four partitions got solved along the way.
	for i, p := range src.Plans() {
		if p == nil {
			t.Errorf("partition %d never solved", i)
		}
	}
}

// Guarded code: a run-time IF executes exactly one branch, driven by the
// sensed value.
func TestRuntimeBranchExecution(t *testing.T) {
	src := `ASSAY branch START
fluid a, b;
VAR x, y1, y2;
MIX a AND b FOR 1;
SENSE OPTICAL it INTO x;
IF x > 1000 START
  MIX a AND b FOR 10;
  SENSE OPTICAL it INTO y1;
ELSE
  MIX a AND b FOR 20;
  SENSE OPTICAL it INTO y2;
ENDIF
END`
	ep, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.DAGSolve(ep.Graph, core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := codegen.Generate(ep, ep.Graph, codegen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := aquacore.New(aquacore.Config{}, ep.Graph, aquacore.PlanSource{Plan: plan})
	res, err := m.Run(cg.Prog)
	if err != nil {
		t.Fatal(err)
	}
	// Sensed volume is tens of nl, well below 1000: else-branch runs.
	if _, ok := res.Dry["y1"]; ok {
		t.Error("then-branch should have been skipped")
	}
	if _, ok := res.Dry["y2"]; !ok {
		t.Error("else-branch should have executed")
	}
}

// While loop: runs until its sensed condition fails, within MAXITER.
func TestRuntimeWhileExecution(t *testing.T) {
	// Condition is false immediately (volume reading is small), so zero
	// iterations run despite MAXITER 3.
	src := `ASSAY w START
fluid a, b;
VAR x;
MIX a AND b FOR 1;
SENSE OPTICAL it INTO x;
WHILE x > 1000 MAXITER 3 START
  MIX a AND b FOR 10;
  SENSE OPTICAL it INTO x;
ENDWHILE
END`
	ep, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.DAGSolve(ep.Graph, core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := codegen.Generate(ep, ep.Graph, codegen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := aquacore.New(aquacore.Config{}, ep.Graph, aquacore.PlanSource{Plan: plan})
	res, err := m.Run(cg.Prog)
	if err != nil {
		t.Fatal(err)
	}
	// Setup only (2 inputs + 2 gather moves + mix + forward move + sense
	// = 7 wet instructions); the three guarded iterations were skipped.
	if res.WetInstrs != 7 {
		t.Errorf("wet instrs = %d, want 7; guarded loop iterations should be skipped", res.WetInstrs)
	}
}

// Composition tracking: the simulator preserves mix ratios. A 1:8
// glucose:reagent mix delivered to an output port carries those exact
// proportions.
func TestCompositionTracking(t *testing.T) {
	src := `ASSAY g START
fluid Glucose, Reagent, d;
d = MIX Glucose AND Reagent IN RATIOS 1 : 8 FOR 10;
OUTPUT d;
END`
	ep, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.DAGSolve(ep.Graph, core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := codegen.Generate(ep, ep.Graph, codegen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := aquacore.New(aquacore.Config{}, ep.Graph, aquacore.PlanSource{Plan: plan})
	res, err := m.Run(cg.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 {
		t.Fatalf("outputs = %d, want 1", len(res.Outputs))
	}
	out := res.Outputs[0]
	g := out.Composition["Glucose"]
	r := out.Composition["Reagent"]
	if math.Abs(r/g-8) > 1e-6 {
		t.Errorf("reagent:glucose = %v, want 8", r/g)
	}
}
