package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// deterministic lists, per trace mode, the metrics that must repeat
// exactly across two runs with the same seed.
var deterministic = map[int][]string{
	0: {"code_instrs_per_op", "wet_s_per_op", "reagent_nl_per_op", "completed_frac"},
	1: {"lp.pivots", "core.work", "journal.bytes", "aquacore.instrs"},
}

func runOnce(t *testing.T, workload string, seed int64, trace int) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", "0.5",
		"--trace", fmt.Sprint(trace), "--spans", filepath.Join(t.TempDir(), "spans.jsonl")}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace %d: exit %d\n%s%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return res
}

func TestDeterministicMetricsRepeat(t *testing.T) {
	for _, w := range workloads {
		for trace, names := range deterministic {
			a := runOnce(t, w.name, 7, trace)
			b := runOnce(t, w.name, 7, trace)
			for _, name := range names {
				ma, okA := a.Metrics[name]
				mb, okB := b.Metrics[name]
				if !okA || !okB {
					t.Errorf("%s: metric %s missing", w.name, name)
					continue
				}
				if ma.Value != mb.Value {
					t.Errorf("%s: %s = %v then %v with the same seed", w.name, name, ma.Value, mb.Value)
				}
			}
		}
	}
}

func TestTail(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(100 - i)
	}
	v, pct, beyond := tail(vals)
	if v != 90 || pct != 90 || beyond != 10 {
		t.Errorf("tail = %v at p%v with %d above, want 90 at p90 with 10 above", v, pct, beyond)
	}
}
