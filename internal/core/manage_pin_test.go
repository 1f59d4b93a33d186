package core_test

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"aquavol/internal/assays"
	"aquavol/internal/certify"
	"aquavol/internal/core"
	"aquavol/internal/dag"
)

// TestManagePinned pins the Fig. 6 hierarchy's decisions on the shipped
// DAGs: attempts, LP use, the plan's certificate hash and the graph the
// last attempt solved, plus the transform list and decision trace in
// testdata/manage_pin.golden. The SkipLP cases drive up to 16
// cascade/replicate rounds, ending at the attempt cap on EnzymeDAG(7).
func TestManagePinned(t *testing.T) {
	cases := []struct {
		name     string
		g        *dag.Graph
		opts     core.ManageOptions
		attempts int
		usedLP   bool
		hash     uint32 // 0 when Manage fails
		nodes    int    // of ManageResult.Graph
		err      error
	}{
		{"glucose", assays.GlucoseDAG(), core.ManageOptions{}, 1, false, 0x331f2f15, 13, nil},
		{"enzyme2", assays.EnzymeDAG(2), core.ManageOptions{}, 1, false, 0x7af776b5, 34, nil},
		{"enzyme3", assays.EnzymeDAG(3), core.ManageOptions{}, 1, false, 0x0d5e5536, 94, nil},
		{"enzyme4", assays.EnzymeDAG(4), core.ManageOptions{}, 4, true, 0x731d3b37, 220, nil},
		{"enzyme4-skiplp", assays.EnzymeDAG(4), core.ManageOptions{SkipLP: true}, 7, false, 0x38968412, 226, nil},
		{"enzyme5-skiplp", assays.EnzymeDAG(5), core.ManageOptions{SkipLP: true}, 10, false, 0xac2e0463, 430, nil},
		{"enzyme6-skiplp", assays.EnzymeDAG(6), core.ManageOptions{SkipLP: true}, 14, false, 0x49a2ddc2, 731, nil},
		{"enzyme7-skiplp", assays.EnzymeDAG(7), core.ManageOptions{SkipLP: true}, 16, false, 0, 1144, core.ErrUnmanageable},
	}
	var log strings.Builder
	for _, tc := range cases {
		res, err := core.Manage(tc.g, cfg(), tc.opts)
		if !errors.Is(err, tc.err) || (err == nil) != (tc.err == nil) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.err)
		}
		if res == nil {
			t.Fatalf("%s: no result", tc.name)
		}
		var hash uint32
		if res.Plan != nil {
			hash = certify.PlanHash(res.Plan)
		}
		if res.Attempts != tc.attempts || res.UsedLP != tc.usedLP || hash != tc.hash || len(res.Graph.Nodes()) != tc.nodes {
			t.Errorf("%s: attempts %d, usedLP %v, hash %08x, nodes %d; want %d, %v, %08x, %d",
				tc.name, res.Attempts, res.UsedLP, hash, len(res.Graph.Nodes()),
				tc.attempts, tc.usedLP, tc.hash, tc.nodes)
		}
		fmt.Fprintf(&log, "%s\n", tc.name)
		for _, tr := range res.Transforms {
			fmt.Fprintf(&log, "  %s\n", tr)
		}
		for _, l := range res.Trace {
			fmt.Fprintf(&log, "    %s\n", l)
		}
	}
	want, err := os.ReadFile("testdata/manage_pin.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := log.String(); got != string(want) {
		t.Errorf("transforms and traces differ from testdata/manage_pin.golden; got:\n%s", got)
	}
}
