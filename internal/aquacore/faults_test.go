package aquacore_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"aquavol/internal/aquacore"
	"aquavol/internal/assays"
	"aquavol/internal/codegen"
	"aquavol/internal/core"
	"aquavol/internal/faults"
	"aquavol/internal/lang"
	"aquavol/internal/lang/elab"
)

// stagedGlycomics compiles the glycomics assay and wraps its staged plan
// in a runtime source (partitions beyond the static ones stay pending).
func stagedGlycomics(t *testing.T) (*elab.Program, *core.StagedPlan, *aquacore.StagedSource) {
	t.Helper()
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
	return ep, sp, src
}

func generate(t *testing.T, ep *elab.Program) *codegen.Result {
	t.Helper()
	cg, err := codegen.Generate(ep, ep.Graph, codegen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return cg
}

// runGlucose executes the glucose assay under the given fault profile and
// returns the result together with a rendered trace.
func runGlucose(t *testing.T, p faults.Profile, seed int64) (*aquacore.Result, []string) {
	t.Helper()
	ep, plan, cg := compileAndPlan(t, assays.GlucoseSource)
	var trace []string
	cfg := aquacore.Config{Trace: func(e aquacore.TraceEntry) {
		trace = append(trace, fmt.Sprintf("%+v", e))
	}}
	if p.Enabled() {
		cfg.Faults = faults.New(p, seed)
	}
	m := aquacore.New(cfg, ep.Graph, aquacore.PlanSource{Plan: plan})
	dry := map[string]float64{}
	for slot, v := range ep.Init {
		dry[ep.Slots[slot]] = v
	}
	m.SetDry(dry)
	res, err := m.Run(cg.Prog)
	if err != nil {
		t.Fatal(err)
	}
	return res, trace
}

// A disabled fault profile must leave execution bit-identical to a machine
// with no injector at all — the zero-overhead contract of Config.Faults.
func TestFaultsOffBitIdentical(t *testing.T) {
	resOff, traceOff := runGlucose(t, faults.Profile{}, 0)
	resZero, traceZero := runGlucose(t, faults.Profile{}, 99)
	if !reflect.DeepEqual(traceOff, traceZero) {
		t.Error("disabled-profile trace differs from no-injector trace")
	}
	if !reflect.DeepEqual(resOff, resZero) {
		t.Error("disabled-profile result differs from no-injector result")
	}
	if resOff.VolumeDrift != nil {
		t.Error("faults-off result must not carry a drift map")
	}
}

// Same profile and seed ⇒ identical trace and result; different seed ⇒
// different trace.
func TestFaultSeedDeterminism(t *testing.T) {
	prof, ok := faults.Preset("moderate")
	if !ok {
		t.Fatal("moderate preset missing")
	}
	res1, tr1 := runGlucose(t, prof, 5)
	res2, tr2 := runGlucose(t, prof, 5)
	if !reflect.DeepEqual(tr1, tr2) {
		t.Error("same seed produced different traces")
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Error("same seed produced different results")
	}
	_, tr3 := runGlucose(t, prof, 6)
	if reflect.DeepEqual(tr1, tr3) {
		t.Error("different seeds produced identical traces")
	}
}

// Dead-volume loss must show up in the drift accounting, the FaultLoss
// total, and as fault-loss events.
func TestDeadVolumeDrift(t *testing.T) {
	res, _ := runGlucose(t, faults.Profile{DeadVolume: 0.3}, 0)
	if len(res.VolumeDrift) == 0 {
		t.Fatal("dead volume must produce per-vessel drift")
	}
	if res.FaultLoss() <= 0 {
		t.Errorf("FaultLoss() = %g, want > 0", res.FaultLoss())
	}
	found := false
	for _, e := range res.Events {
		if e.Kind == aquacore.EventFaultLoss {
			found = true
			if !strings.Contains(e.Detail, "dead volume") {
				t.Errorf("unexpected fault-loss detail: %s", e.Detail)
			}
		}
	}
	if !found {
		t.Error("no EventFaultLoss recorded")
	}
}

// A unit that always fails must emit FU-failure events without crashing
// the run.
func TestAlwaysFailingUnits(t *testing.T) {
	res, _ := runGlucose(t, faults.Profile{FailRate: 1}, 0)
	n := 0
	for _, e := range res.Events {
		if e.Kind == aquacore.EventFUFailure {
			n++
		}
	}
	if n == 0 {
		t.Error("FailRate 1 must emit FU-failure events")
	}
}

// Sensor noise perturbs the dry results (sensed readings) and nothing
// else.
func TestSenseNoise(t *testing.T) {
	clean, _ := runGlucose(t, faults.Profile{}, 0)
	noisy, _ := runGlucose(t, faults.Profile{SenseNoise: 0.2}, 3)
	if reflect.DeepEqual(clean.Dry, noisy.Dry) {
		t.Error("20% sensor noise left every reading unchanged")
	}
	if clean.WetSeconds != noisy.WetSeconds {
		t.Error("sensor noise must not change timing")
	}
}

// Evaporation drains every vessel over wet time, producing drift without
// any PRNG use.
func TestEvaporationDrift(t *testing.T) {
	res, _ := runGlucose(t, faults.Profile{EvapRate: 1e-3}, 0)
	if res.FaultLoss() <= 0 {
		t.Errorf("evaporation over the run must lose volume; FaultLoss() = %g", res.FaultLoss())
	}
	res2, _ := runGlucose(t, faults.Profile{EvapRate: 1e-3}, 12345)
	if res.FaultLoss() != res2.FaultLoss() {
		t.Error("evaporation must be seed-independent (deterministic)")
	}
}

// Out-of-range ids on the plan-backed sources answer !ok instead of
// panicking.
func TestPlanSourceRangeChecks(t *testing.T) {
	_, plan, _ := compileAndPlan(t, assays.GlucoseSource)
	src := aquacore.PlanSource{Plan: plan}
	for _, id := range []int{-1, 1 << 30} {
		if _, ok := src.EdgeVolume(id); ok {
			t.Errorf("EdgeVolume(%d) = ok", id)
		}
		if _, ok := src.NodeVolume(id); ok {
			t.Errorf("NodeVolume(%d) = ok", id)
		}
	}
	isrc := intPlanSource{plan: core.Round(plan, core.DefaultConfig()), cfg: core.DefaultConfig()}
	for _, id := range []int{-1, 1 << 30} {
		if _, ok := isrc.EdgeVolume(id); ok {
			t.Errorf("intPlanSource.EdgeVolume(%d) = ok", id)
		}
		if _, ok := isrc.NodeVolume(id); ok {
			t.Errorf("intPlanSource.NodeVolume(%d) = ok", id)
		}
	}
}

// Before any measurement arrives, queries against partitions that await
// run-time measurements answer !ok (pending), not stale data.
func TestStagedSourcePendingQueries(t *testing.T) {
	ep, sp, src := stagedGlycomics(t)
	pendingEdges, pendingNodes := 0, 0
	for _, e := range ep.Graph.Edges() {
		if _, ok := src.EdgeVolume(e.ID()); !ok {
			pendingEdges++
		}
	}
	for _, n := range ep.Graph.Nodes() {
		if n == nil {
			continue
		}
		if _, ok := src.NodeVolume(n.ID()); !ok {
			pendingNodes++
		}
	}
	if pendingEdges == 0 {
		t.Error("glycomics has measurement-dependent partitions; some edge must be pending")
	}
	if pendingNodes == 0 {
		t.Error("some node volume must be pending before measurements")
	}
	if _, ok := src.EdgeVolume(-1); ok {
		t.Error("EdgeVolume(-1) = ok")
	}
	if _, ok := src.NodeVolume(1 << 30); ok {
		t.Error("NodeVolume(huge) = ok")
	}
	if got := len(src.SolveErrors()); got != 0 {
		t.Errorf("fresh staged source has %d solve errors", got)
	}
	if sp.NumParts() < 2 {
		t.Errorf("glycomics should partition into multiple parts, got %d", sp.NumParts())
	}
}

// An unknown event kind renders its numeric value.
func TestEventKindUnknownString(t *testing.T) {
	if got := aquacore.EventKind(99).String(); got != "EventKind(99)" {
		t.Errorf("String() = %q", got)
	}
}

// errSource reports no volumes but carries recorded solve errors; the
// machine must surface the latest in its "no volume" error instead of
// masking the root cause.
type errSource struct{ errs []error }

func (errSource) EdgeVolume(int) (float64, bool) { return 0, false }
func (errSource) NodeVolume(int) (float64, bool) { return 0, false }
func (errSource) Measured(int, string, float64)  {}
func (s errSource) SolveErrors() []error         { return s.errs }

func TestSolveErrorSurfacedInMoveError(t *testing.T) {
	ep, _, cg := compileAndPlan(t, assays.GlucoseSource)
	src := errSource{errs: []error{errors.New("part 1: LP infeasible (synthetic)")}}
	m := aquacore.New(aquacore.Config{}, ep.Graph, src)
	_, err := m.Run(cg.Prog)
	if err == nil {
		t.Fatal("run must fail without volumes")
	}
	if !strings.Contains(err.Error(), "runtime solve failed earlier") ||
		!strings.Contains(err.Error(), "LP infeasible (synthetic)") {
		t.Errorf("error must carry the recorded solve failure, got: %v", err)
	}
}

// A clean staged glycomics run records no solve errors and every
// partition solves (the satellite's good-path assertion).
func TestStagedRunRecordsNoSolveErrors(t *testing.T) {
	ep, _, src := stagedGlycomics(t)
	cg := generate(t, ep)
	m := aquacore.New(aquacore.Config{SeparationYield: 0.5}, ep.Graph, src)
	if _, err := m.Run(cg.Prog); err != nil {
		t.Fatal(err)
	}
	if errs := src.SolveErrors(); len(errs) != 0 {
		t.Fatalf("clean run recorded solve errors: %v", errs)
	}
	for _, e := range m.Events() {
		if e.Kind == aquacore.EventSolveFailed {
			t.Errorf("clean run emitted %v", e)
		}
	}
}
