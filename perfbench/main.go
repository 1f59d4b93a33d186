// Command perfbench is the benchmark of the aquavol compiler and
// runtime. It runs one workload in one process with a single
// closed-loop client (one op in flight), checks every op's outputs
// outside the timed interval, and prints every metric by name and unit;
// the last line of standard output is one JSON object.
//
// Usage:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs every op input twice in a row, untraced and then traced, reports
// the per-layer metrics from the traced ops and the tracing overhead as
// the difference between the two, and writes the traced spans as JSON
// lines to --spans. The exit code is non-zero
// when any op fails or any output or coverage check fails.
//
// perfbench/run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// A run repeats the workload's setup at least setupReps times and for
// at least setupMin, and reports the median as setup_s.
const (
	setupReps = 9
	setupMin  = time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	spansPath := fs.String("spans", "", "where --trace 1 writes its spans (default .bench_build/spans/WORKLOAD-seedN.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || fs.NArg() != 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1; workloads:")
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", wl.name, *seed, *seconds, *traced)

	// Setup: repeat it, report the median, keep the last runner.
	var r runner
	var setups []float64
	for start := time.Now(); len(setups) < setupReps || time.Since(start) < setupMin; {
		t0 := time.Now()
		var err error
		if r, err = wl.setup(*seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: setup: %v\n", err)
			return 1
		}
		setups = append(setups, msSince(t0)/1000)
	}

	res := &result{Metrics: map[string]metric{}}
	var checkErr error
	if *traced == 0 {
		p, _ := measure(r, dur, nil)
		res.Attempted, res.Failed = p.attempted, p.failed
		printErrs(stderr, p)
		endToEnd(stdout, res, p, median(setups))
	} else {
		tr := newTracer()
		base, p := measure(r, dur, tr)
		res.Attempted, res.Failed = base.attempted+p.attempted, base.failed+p.failed
		printErrs(stderr, base, p)
		m := perLayer(res, tr, r.window(), base, p)
		checkErr = wl.verify(m)
		path := *spansPath
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", wl.name, *seed)
		}
		if err := tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
		for _, k := range sortedKeys(res.Metrics) {
			fmt.Fprintf(stdout, "%-20s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
		}
	}
	if checkErr != nil {
		fmt.Fprintf(stderr, "perfbench: coverage check: %v\n", checkErr)
	}
	res.Correct = res.Failed == 0 && checkErr == nil
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// pass is one closed-loop measurement.
type pass struct {
	ms, gcMs, allocKB []float64
	outs              []opOut // the first window ops' outputs
	attempted, failed int
	errs              []string
}

// measure runs ops one at a time until d has passed and at least one
// window of ops has run. With tr non-nil every op input runs twice in a
// row, untraced and then traced, so the two runs of the tracing-overhead
// comparison see the same inputs under the same host conditions.
func measure(r runner, d time.Duration, tr *tracer) (untraced, traced *pass) {
	untraced, traced = &pass{}, &pass{}
	// No collection runs inside an op: each op starts on a collected
	// heap and allocates into it, so identical ops do identical work.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := time.Now()
	for i := 0; i < r.window() || time.Since(start) < d; i++ {
		untraced.runOp(r, i, nil)
		if tr != nil {
			traced.runOp(r, i, tr)
		}
	}
	return untraced, traced
}

// runOp runs op i and records it in p. The op's wall time and
// allocation are measured around the op alone; its checks (and, under
// tr, its probes) follow outside that interval.
func (p *pass) runOp(r runner, i int, tr *tracer) {
	// Collect the previous op's garbage outside the timed interval.
	gc0 := time.Now()
	runtime.GC()
	gcMs := msSince(gc0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	root := tr.beginOp(i)
	t0 := time.Now()
	err := r.op(i, tr)
	ms := msSince(t0)
	tr.end(root)
	runtime.ReadMemStats(&after)
	tr.add("gc.ms", gcMs)
	p.attempted++
	var out opOut
	if err == nil {
		out, err = r.check(i)
	}
	if err == nil && tr != nil {
		err = r.probe(i, tr)
	}
	if err != nil {
		p.failed++
		if len(p.errs) < 5 {
			p.errs = append(p.errs, fmt.Sprintf("op %d: %v", i, err))
		}
		return
	}
	p.ms = append(p.ms, ms)
	p.gcMs = append(p.gcMs, gcMs)
	p.allocKB = append(p.allocKB, float64(after.TotalAlloc-before.TotalAlloc)/1024)
	if i < r.window() {
		p.outs = append(p.outs, out)
	}
}

func printErrs(w io.Writer, ps ...*pass) {
	for _, p := range ps {
		for _, e := range p.errs {
			fmt.Fprintf(w, "perfbench: %s\n", e)
		}
	}
}

// endToEnd fills res with the untraced run's metrics and prints them.
func endToEnd(w io.Writer, res *result, p *pass, setupS float64) {
	set := func(name, unit string, v float64) {
		res.Metrics[name] = metric{v, unit}
		fmt.Fprintf(w, "%-18s %14.6g %s\n", name, v, unit)
	}
	tailV, tailPct, beyond := tail(p.ms)
	// Throughput counts each op's time plus the collection of its
	// garbage, which the op latency leaves out.
	perOp := make([]float64, len(p.ms))
	for i := range p.ms {
		perOp[i] = p.ms[i] + p.gcMs[i]
	}
	field := func(f func(o opOut) float64) float64 {
		vals := make([]float64, len(p.outs))
		for i, o := range p.outs {
			vals[i] = f(o)
		}
		return mean(vals)
	}
	set("op_ms_p50", "ms", median(p.ms))
	// The tail is reported but not a JSON metric: its run-to-run spread
	// on a shared host exceeds any bound the benchmark may set.
	fmt.Fprintf(w, "%-18s %14.6g ms (p%.2f of %d ops, %d beyond it)\n", "op_ms_tail", tailV, tailPct, len(p.ms), beyond)
	set("ops_per_s", "1/s", 1000/median(perOp))
	set("setup_s", "s", setupS)
	set("alloc_kb_per_op", "KiB", median(p.allocKB))
	set("code_instrs_per_op", "count", field(func(o opOut) float64 { return o.instrs }))
	set("wet_s_per_op", "sim_s", field(func(o opOut) float64 { return o.wetS }))
	set("reagent_nl_per_op", "nl", field(func(o opOut) float64 { return o.reagentNl }))
	set("completed_frac", "frac", field(func(o opOut) float64 { return o.completed }))
	fmt.Fprintf(w, "%-18s %14.6g frac (%d of %d ops failed)\n", "error_frac",
		float64(p.failed)/float64(p.attempted), p.failed, p.attempted)
}

// layerTimes are the span names timed per op, reported as NAME.ms.
var layerTimes = []string{"lang", "analysis", "core", "certify", "codegen", "aisverify", "lp", "recover"}

// layerCounts are counted at layer boundaries; they repeat exactly for a
// seed, so they are averaged over one window of ops.
var layerCounts = []struct{ name, unit string }{
	{"lang.nodes", "count"},
	{"core.work", "count"},
	{"core.attempts", "count"},
	{"core.transforms", "count"},
	{"codegen.reservoirs", "count"},
	{"aisverify.instrs", "count"},
	{"lp.pivots", "count"},
	{"lp.rows", "count"},
	{"lp.cols", "count"},
	{"journal.bytes", "B"},
	{"recover.replans", "count"},
	{"recover.regens", "count"},
	{"recover.retries", "count"},
	{"aquacore.instrs", "count"},
}

// perLayer fills res with the traced pass's per-layer metrics and
// returns them by name for the coverage check.
func perLayer(res *result, tr *tracer, window int, base, p *pass) map[string]float64 {
	out := map[string]float64{}
	set := func(name, unit string, v float64) {
		res.Metrics[name] = metric{v, unit}
		out[name] = v
	}
	opMs := tr.opMs()
	ops := sortedOps(opMs)
	spans := tr.layerMs()
	for _, l := range layerTimes {
		set(l+".ms", "ms", layerMedian(spans, ops, l))
	}
	for _, c := range layerCounts {
		var sum float64
		for _, op := range ops[:min(window, len(ops))] {
			sum += tr.counts[op][c.name]
		}
		set(c.name, c.unit, sum/float64(max(1, min(window, len(ops)))))
	}
	set("lp.alloc_kb", "KiB", layerMedian(tr.counts, ops, "lp.alloc_kb"))
	set("journal.sink_ms", "ms", layerMedian(tr.counts, ops, "journal.sink_ms"))
	set("gc.ms", "ms", layerMedian(tr.counts, ops, "gc.ms"))
	// journal.ms: each journaled op minus its unjournaled twin.
	var jms []float64
	for _, op := range ops {
		if u, ok := tr.counts[op]["unjournaled.ms"]; ok {
			jms = append(jms, opMs[op]-u)
		}
	}
	set("journal.ms", "ms", median(jms))
	untraced := median(base.ms)
	set("trace.overhead_pct", "%", 100*(median(p.ms)-untraced)/untraced)
	set("trace.coverage", "frac", tr.coverage())
	return out
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
