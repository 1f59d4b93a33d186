package analysis_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aquavol/internal/analysis"
	"aquavol/internal/assays"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/diag"
)

// volumeCodes are the interval-pass predictions cross-checked against the
// solvers.
func hasCode(l diag.List, codes ...diag.Code) bool {
	for _, d := range l {
		for _, c := range codes {
			if d.Code == c.ID {
				return true
			}
		}
	}
	return false
}

func findCode(l diag.List, code diag.Code) (diag.Diagnostic, bool) {
	for _, d := range l {
		if d.Code == code.ID {
			return d, true
		}
	}
	return diag.Diagnostic{}, false
}

// TestPaperAssaysClean asserts the four paper benchmarks lint without a
// single error-severity finding at the default configuration — everything
// the analyzer reports on them is a condition the volume manager repairs
// automatically (warnings) or advisory (info).
func TestPaperAssaysClean(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"glucose", assays.GlucoseSource},
		{"glycomics", assays.GlycomicsSource},
		{"enzyme4", assays.EnzymeSource(4)},
		{"enzyme10", assays.EnzymeSource(10)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			findings, prog, err := analysis.LintSource(tc.src, core.DefaultConfig(), analysis.Options{})
			if err != nil {
				t.Fatalf("LintSource: %v", err)
			}
			if prog == nil {
				t.Fatalf("front end rejected the %s source:\n%s", tc.name, findings.Error())
			}
			for _, d := range findings {
				if d.Severity == diag.Error {
					t.Errorf("unexpected lint error: %s", d.Error())
				}
			}
			if tc.name == "glucose" && len(findings) != 0 {
				t.Errorf("glucose should lint perfectly clean, got:\n%s", render(findings))
			}
		})
	}
}

func render(l diag.List) string {
	var b strings.Builder
	for _, d := range l {
		b.WriteString(d.Error())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCraftedExtremeMixCascades is the analyzer's end-to-end acceptance
// check: a 1:(MaxSkew+1) two-part mix must be flagged with a cascade-depth
// suggestion, the as-written DAG must actually be DAGSolve-infeasible, and
// applying the suggested cascade must make DAGSolve feasible.
func TestCraftedExtremeMixCascades(t *testing.T) {
	cfg := core.DefaultConfig()
	ratio := cfg.MaxSkew() + 1 // 1001 at the default 100 nl / 0.1 nl

	build := func() *dag.Graph {
		g := dag.New()
		a := g.AddInput("acid")
		b := g.AddInput("water")
		m := g.AddMix("dilute", dag.Part{Source: a, Ratio: 1}, dag.Part{Source: b, Ratio: ratio})
		g.AddUnary(dag.Sense, "read", m)
		return g
	}

	findings, err := analysis.AnalyzeGraph(build(), cfg, analysis.Options{})
	if err != nil {
		t.Fatalf("AnalyzeGraph: %v", err)
	}
	under, ok := findCode(findings, analysis.CodeUnderflow)
	if !ok {
		t.Fatalf("no %s finding for a 1:%g mix, got:\n%s", analysis.CodeUnderflow.ID, ratio, render(findings))
	}
	if under.Severity != diag.Warning {
		t.Errorf("the underflow is cascade-repairable and should be a warning, got %s", under.Error())
	}
	wantDepth := dag.CascadeLevels(ratio, cfg.MaxSkew())
	if wantDepth != 2 {
		t.Fatalf("CascadeLevels(%g, %g) = %d, test assumes 2", ratio, cfg.MaxSkew(), wantDepth)
	}
	wantSuggestion := fmt.Sprintf("cascade depth %d", wantDepth)
	if !strings.Contains(under.Suggestion, wantSuggestion) {
		t.Errorf("underflow suggestion %q does not mention %q", under.Suggestion, wantSuggestion)
	}
	skew, ok := findCode(findings, analysis.CodeExtremeRatio)
	if !ok {
		t.Fatalf("no %s finding for a ratio beyond MaxSkew, got:\n%s", analysis.CodeExtremeRatio.ID, render(findings))
	}
	if !strings.Contains(skew.Suggestion, wantSuggestion) {
		t.Errorf("skew suggestion %q does not mention %q", skew.Suggestion, wantSuggestion)
	}

	// The prediction must match the solver: infeasible as written...
	plain := build()
	plan, err := core.DAGSolve(plain, cfg, nil)
	if err != nil {
		t.Fatalf("DAGSolve (as written): %v", err)
	}
	if plan.Feasible() {
		t.Fatalf("analyzer predicted underflow but DAGSolve found the as-written DAG feasible")
	}

	// ...and feasible after applying the suggested cascade depth.
	cascaded := build()
	if err := cascaded.Cascade(cascaded.NodeByName("dilute"), wantDepth); err != nil {
		t.Fatalf("Cascade: %v", err)
	}
	plan, err = core.DAGSolve(cascaded, cfg, nil)
	if err != nil {
		t.Fatalf("DAGSolve (cascaded): %v", err)
	}
	if !plan.Feasible() {
		t.Fatalf("suggested cascade depth %d is not actually feasible: %v", wantDepth, plan.Underflows)
	}
}

// TestVerdictsMatchDAGSolve cross-checks the interval pass against the real
// solver on the static corpus DAGs: the analyzer emits a volume prediction
// (VOL001/VOL002/VOL003) exactly when DAGSolve's proportional assignment
// underflows.
func TestVerdictsMatchDAGSolve(t *testing.T) {
	cfg := core.DefaultConfig()
	cases := []struct {
		name string
		g    *dag.Graph
	}{
		{"glucose", assays.GlucoseDAG()},
		{"fig2", assays.Fig2DAG()},
		{"enzyme4", assays.EnzymeDAG(4)},
		{"enzyme10", assays.EnzymeDAG(10)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			findings, err := analysis.AnalyzeGraph(tc.g, cfg, analysis.Options{})
			if err != nil {
				t.Fatalf("AnalyzeGraph: %v", err)
			}
			predicted := hasCode(findings, analysis.CodeUnderflow, analysis.CodeOverflow, analysis.CodeDAGSolveUnderflow)
			plan, err := core.DAGSolve(tc.g, cfg, nil)
			if err != nil {
				t.Fatalf("DAGSolve: %v", err)
			}
			if predicted == plan.Feasible() {
				t.Errorf("analyzer predicted underflow=%v but DAGSolve feasible=%v; findings:\n%s",
					predicted, plan.Feasible(), render(findings))
			}
		})
	}
}

// TestDefiniteVerdictsMatchLP cross-checks "definite" interval verdicts
// against the RVol LP on the lint corpus: whenever the analyzer reports
// VOL001 or VOL002 — bounds every solver shares — the LP must be
// infeasible on the as-written DAG, and when it reports neither (VOL003
// being DAGSolve-specific) the LP must be feasible. This is the
// no-false-positives guarantee: a definite verdict is never contradicted
// by the exact solver.
func TestDefiniteVerdictsMatchLP(t *testing.T) {
	cfg := core.DefaultConfig()
	files, err := filepath.Glob(filepath.Join("testdata", "lint", "*.asy"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".asy")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			findings, prog, err := analysis.LintSource(string(src), cfg, analysis.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if prog == nil {
				t.Fatalf("front end rejected %s:\n%s", file, findings.Error())
			}
			definite := hasCode(findings, analysis.CodeUnderflow, analysis.CodeOverflow)
			plan, err := core.SolveLP(prog.Graph, cfg, core.FormulateOptions{}, nil)
			switch {
			case errors.Is(err, core.ErrNeedsPartition):
				t.Skipf("unknown-volume nodes: LP needs partitioning")
			case errors.Is(err, core.ErrLPInfeasible):
				if !definite {
					t.Errorf("LP infeasible but analyzer reported no VOL001/VOL002; findings:\n%s", render(findings))
				}
			case err != nil:
				t.Fatalf("SolveLP: %v", err)
			default:
				if definite {
					t.Errorf("analyzer reported a definite verdict but the LP is feasible (plan feasible=%v); findings:\n%s",
						plan.Feasible(), render(findings))
				} else if !plan.Feasible() {
					t.Errorf("LP solved but plan has underflows: %v", plan.Underflows)
				}
			}
		})
	}
}
