package dag

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

// fig2 builds the paper's Figure 2 assay DAG:
//
//	K = mix A:B in 1:4, L = mix B:C in 2:1,
//	M = mix K:L in 2:1, N = mix L:C in 2:3.
func fig2() *Graph {
	g := New()
	a := g.AddInput("A")
	b := g.AddInput("B")
	c := g.AddInput("C")
	k := g.AddMix("K", Part{a, 1}, Part{b, 4})
	l := g.AddMix("L", Part{b, 2}, Part{c, 1})
	g.AddMix("M", Part{k, 2}, Part{l, 1})
	g.AddMix("N", Part{l, 2}, Part{c, 3})
	return g
}

func TestFig2Structure(t *testing.T) {
	g := fig2()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 7 || g.NumEdges() != 8 {
		t.Fatalf("got %d nodes %d edges, want 7, 8", g.NumNodes(), g.NumEdges())
	}
	k := g.NodeByName("K")
	if !approx(k.In()[0].Frac, 1.0/5) || !approx(k.In()[1].Frac, 4.0/5) {
		t.Fatalf("K fractions = %v, %v; want 1/5, 4/5", k.In()[0].Frac, k.In()[1].Frac)
	}
	if len(g.Leaves()) != 2 {
		t.Fatalf("leaves = %d, want 2 (M, N)", len(g.Leaves()))
	}
	if len(g.Sources()) != 3 {
		t.Fatalf("sources = %d, want 3 (A, B, C)", len(g.Sources()))
	}
}

func TestTopoOrder(t *testing.T) {
	g := fig2()
	order := g.TopoOrder()
	if len(order) != 7 {
		t.Fatalf("topo order length = %d, want 7", len(order))
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n.Name] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From.Name] >= pos[e.To.Name] {
			t.Fatalf("topo violated: %s before %s", e.To.Name, e.From.Name)
		}
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	g := New()
	a := g.AddNode(Mix, "a")
	b := g.AddNode(Mix, "b")
	g.AddEdge(a, b, 1)
	g.AddEdge(b, a, 1)
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want cycle error, got %v", err)
	}
}

func TestValidateRejectsBadFractionSum(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	m := g.AddNode(Mix, "m")
	g.AddEdge(a, m, 0.5)
	g.AddEdge(b, m, 0.3)
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "sum") {
		t.Fatalf("want fraction-sum error, got %v", err)
	}
}

func TestValidateRejectsInputWithInbound(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	g.AddEdge(a, b, 1)
	if err := g.Validate(); err == nil {
		t.Fatal("want error for input with inbound edges")
	}
}

func TestValidateRejectsOrphanOp(t *testing.T) {
	g := New()
	g.AddNode(Mix, "m") // mix with no inputs
	if err := g.Validate(); err == nil {
		t.Fatal("want error for non-input source")
	}
}

func TestValidateRejectsPortOnMix(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	m := g.AddUnary(Incubate, "m", a)
	s := g.AddNode(Sense, "s")
	g.AddPortEdge(m, s, 1, PortEffluent)
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "port") {
		t.Fatalf("want port error, got %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := fig2()
	c := g.Clone()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatal("clone sizes differ")
	}
	// Mutating the clone must not affect the original.
	x := c.AddInput("X")
	c.AddMix("Y", Part{x, 1}, Part{c.NodeByName("M"), 1})
	if g.NodeByName("X") != nil || g.NumNodes() != 7 {
		t.Fatal("mutating clone affected original")
	}
	// Edge endpoints in clone point at clone nodes.
	for _, e := range c.Edges() {
		if c.Node(e.From.ID()) != e.From || c.Node(e.To.ID()) != e.To {
			t.Fatal("clone edge endpoints not owned by clone")
		}
	}
}

func TestDOT(t *testing.T) {
	g := fig2()
	dot := g.DOT("fig2")
	for _, want := range []string{"digraph", `"A"`, `"M"`, "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestExtremeRatio(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	m := g.AddMix("m", Part{a, 1}, Part{b, 999})
	if r := ExtremeRatio(m); !approx(r, 999) {
		t.Fatalf("ExtremeRatio = %v, want 999", r)
	}
	u := g.AddUnary(Sense, "s", m)
	if r := ExtremeRatio(u); r != 1 {
		t.Fatalf("unary ExtremeRatio = %v, want 1", r)
	}
}

func TestCascadeLevels(t *testing.T) {
	cases := []struct {
		r, maxSkew float64
		want       int
	}{
		{999, 1000, 0}, // fits: no cascade
		{999, 100, 3},  // paper: three 1:9 stages (1000 = 10³)
		{99, 50, 2},    // paper: two 1:9 stages (100 = 10²)
		{399, 100, 2},  // paper: two 1:19 stages (400 = 20²)
		{9999, 100, 4}, // 10000 = 10⁴ → integral at k=2 (99)… see below
		{50, 100, 0},   // fits
	}
	for _, c := range cases {
		got := CascadeLevels(c.r, c.maxSkew)
		// 9999 special case: k=2 gives stage ratio 99 (integral, ≤100).
		if c.r == 9999 {
			if got != 2 {
				t.Fatalf("CascadeLevels(9999, 100) = %d, want 2 (stage 1:99)", got)
			}
			continue
		}
		if got != c.want {
			t.Fatalf("CascadeLevels(%v, %v) = %d, want %d", c.r, c.maxSkew, got, c.want)
		}
	}
}

func TestCascade99(t *testing.T) {
	g := New()
	a := g.AddInput("A")
	b := g.AddInput("B")
	m := g.AddMix("C", Part{a, 1}, Part{b, 99})
	sink := g.AddUnary(Sense, "out", m)
	_ = sink
	if err := g.Cascade(m, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// One intermediate stage + its excess node were added.
	stage := g.NodeByName("C~cascade1")
	if stage == nil {
		t.Fatal("intermediate cascade stage missing")
	}
	if !approx(stage.Discard, 0.9) {
		t.Fatalf("stage discard = %v, want 0.9", stage.Discard)
	}
	// Stage mixes A:B in 1:9 → fractions 0.1, 0.9.
	if !approx(stage.In()[0].Frac, 0.1) || !approx(stage.In()[1].Frac, 0.9) {
		t.Fatalf("stage fractions = %v, %v; want 0.1, 0.9", stage.In()[0].Frac, stage.In()[1].Frac)
	}
	// Final mix now combines stage:B in 1:9.
	if len(m.In()) != 2 || !approx(m.In()[0].Frac, 0.1) || !approx(m.In()[1].Frac, 0.9) {
		t.Fatalf("final fractions wrong: %v", m.In())
	}
	if m.In()[0].From != stage || m.In()[1].From != b {
		t.Fatal("final stage inputs wrong")
	}
	// B is now used twice (paper: uses of the major component increase).
	if len(b.Out()) != 2 {
		t.Fatalf("B uses = %d, want 2", len(b.Out()))
	}
	// Excess node exists and hangs off the stage.
	ex := g.NodeByName("C~excess1")
	if ex == nil || ex.Kind != Excess || ex.In()[0].From != stage {
		t.Fatal("excess node missing or miswired")
	}
	// Original consumer is untouched.
	if sink.In()[0].From != m {
		t.Fatal("cascade disturbed the original mix's consumers")
	}
}

func TestCascade999ThreeLevels(t *testing.T) {
	g := New()
	a := g.AddInput("enzyme")
	b := g.AddInput("diluent")
	m := g.AddMix("dilution", Part{a, 1}, Part{b, 999})
	g.AddUnary(Sense, "out", m)
	if err := g.Cascade(m, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each stage is 1:9 (cube root of 1000 = 10).
	for _, name := range []string{"dilution~cascade1", "dilution~cascade2"} {
		st := g.NodeByName(name)
		if st == nil {
			t.Fatalf("missing %s", name)
		}
		if !approx(st.In()[0].Frac, 0.1) || !approx(st.Discard, 0.9) {
			t.Fatalf("%s: frac %v discard %v, want 0.1, 0.9", name, st.In()[0].Frac, st.Discard)
		}
	}
	// Diluent used 3 times now (one per stage).
	if len(b.Out()) != 3 {
		t.Fatalf("diluent uses = %d, want 3", len(b.Out()))
	}
}

func TestCascadeErrors(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	c := g.AddInput("c")
	m3 := g.AddMix("m3", Part{a, 1}, Part{b, 100}, Part{c, 1})
	if err := g.Cascade(m3, 2); err == nil {
		t.Fatal("want error for three-part mix")
	}
	m2 := g.AddMix("m2", Part{a, 1}, Part{b, 99})
	if err := g.Cascade(m2, 1); err == nil {
		t.Fatal("want error for levels < 2")
	}
	if err := g.Cascade(a, 2); err == nil {
		t.Fatal("want error for non-mix")
	}
}

func TestReplicateInput(t *testing.T) {
	g := New()
	d := g.AddInput("diluent")
	a := g.AddInput("a")
	var mixes []*Node
	for i := 0; i < 6; i++ {
		mixes = append(mixes, g.AddMix("m", Part{a, 1}, Part{d, 9}))
	}
	for _, m := range mixes {
		g.AddUnary(Sense, "s", m)
	}
	reps, err := g.Replicate(d, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("replicas = %d, want 3", len(reps))
	}
	// Round-robin: each replica gets 2 of the 6 uses.
	for i, r := range reps {
		if len(r.Out()) != 2 {
			t.Fatalf("replica %d has %d uses, want 2", i, len(r.Out()))
		}
	}
	// Consumers' fraction sums are intact.
	for _, m := range mixes {
		sum := 0.0
		for _, e := range m.In() {
			sum += e.Frac
		}
		if !approx(sum, 1) {
			t.Fatalf("mix fraction sum %v after replication", sum)
		}
	}
}

func TestReplicateIntermediateDuplicatesInbound(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	x := g.AddMix("x", Part{a, 1}, Part{b, 1})
	for i := 0; i < 4; i++ {
		g.AddUnary(Sense, "s", x)
	}
	reps, err := g.Replicate(x, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// a and b now feed both replicas: 2 uses each.
	if len(a.Out()) != 2 || len(b.Out()) != 2 {
		t.Fatalf("source uses = %d, %d; want 2, 2", len(a.Out()), len(b.Out()))
	}
	if len(reps[0].Out()) != 2 || len(reps[1].Out()) != 2 {
		t.Fatalf("use distribution = %d, %d; want 2, 2", len(reps[0].Out()), len(reps[1].Out()))
	}
}

func TestReplicateCustomAssign(t *testing.T) {
	g := New()
	d := g.AddInput("d")
	a := g.AddInput("a")
	var sinks []*Node
	for i := 0; i < 4; i++ {
		m := g.AddMix("m", Part{a, 1}, Part{d, 1})
		sinks = append(sinks, m)
		g.AddUnary(Sense, "s", m)
	}
	_ = sinks
	// Send all uses to replica 1.
	reps, err := g.Replicate(d, 2, func(*Edge) int { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if len(reps[0].Out()) != 0 || len(reps[1].Out()) != 4 {
		t.Fatalf("distribution = %d, %d; want 0, 4", len(reps[0].Out()), len(reps[1].Out()))
	}
}

func TestReplicateErrors(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	sep := g.AddUnary(Separate, "sep", a)
	sep.Unknown = true
	if _, err := g.Replicate(sep, 2, nil); err == nil {
		t.Fatal("want error replicating unknown node")
	}
	if _, err := g.Replicate(a, 1, nil); err == nil {
		t.Fatal("want error for copies < 2")
	}
}

// glycomicsShape builds a pipeline with three unknown separations and a
// shared buffer used across two regions, mirroring Fig. 13.
func glycomicsShape() (*Graph, *Node, []*Node) {
	g := New()
	b1a := g.AddInput("buffer1a")
	sample := g.AddInput("sample")
	b1b := g.AddInput("buffer1b")
	lectin := g.AddInput("lectin")
	b2 := g.AddInput("buffer2")
	b3a := g.AddInput("buffer3a")
	b3b := g.AddInput("buffer3b")
	c18 := g.AddInput("C_18")
	b4 := g.AddInput("buffer4")
	naoh := g.AddInput("NaOH")
	b5 := g.AddInput("buffer5")

	m1 := g.AddMix("m1", Part{b1a, 1}, Part{sample, 1})
	sep1 := g.AddMix("sep1-in", Part{m1, 1}, Part{b1b, 1}, Part{lectin, 1})
	sep1.Kind = Separate
	sep1.Unknown = true
	m2 := g.AddMix("m2", Part{sep1, 1}, Part{b2, 1})
	m2.In()[0].Port = PortEffluent
	inc1 := g.AddUnary(Incubate, "inc1", m2)
	m3 := g.AddMix("m3", Part{inc1, 1}, Part{b3a, 10})
	sep2 := g.AddMix("sep2-in", Part{m3, 1}, Part{b3b, 1}, Part{c18, 1})
	sep2.Kind = Separate
	sep2.Unknown = true
	m4 := g.AddMix("m4", Part{sep2, 1}, Part{b4, 100}, Part{naoh, 1})
	m4.In()[0].Port = PortEffluent
	m5 := g.AddMix("m5", Part{m4, 1}, Part{b3a, 1})
	sep3 := g.AddMix("sep3-in", Part{m5, 1}, Part{b3b, 1}, Part{c18, 1})
	sep3.Kind = Separate
	sep3.Unknown = true
	m6 := g.AddMix("m6", Part{sep3, 1}, Part{b5, 1})
	m6.In()[0].Port = PortEffluent
	return g, b3a, []*Node{sep1, sep2, sep3}
}

func TestPartitionGlycomicsShape(t *testing.T) {
	g, b3a, _ := glycomicsShape()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumParts() != 4 {
		t.Fatalf("parts = %d, want 4 (Fig. 13)", res.NumParts())
	}
	// buffer3a and b3b and C_18 are split across regions; b3a into two
	// constrained inputs with share 1/2 each.
	var b3aShares []float64
	for _, b := range res.Bindings {
		if b.SourceID == b3a.ID() {
			b3aShares = append(b3aShares, b.Share)
			if b.SourcePart != -1 {
				t.Fatalf("buffer3a binding source part = %d, want -1 (natural input)", b.SourcePart)
			}
		}
	}
	if len(b3aShares) != 2 || !approx(b3aShares[0], 0.5) || !approx(b3aShares[1], 0.5) {
		t.Fatalf("buffer3a shares = %v, want [0.5, 0.5]", b3aShares)
	}
	// Every separation binding is run-time measured.
	sawUnknown := 0
	for _, b := range res.Bindings {
		if b.SourceUnknown {
			sawUnknown++
			if b.SourcePort != PortEffluent {
				t.Fatalf("unknown binding port = %q, want effluent", b.SourcePort)
			}
		}
	}
	if sawUnknown != 3 {
		t.Fatalf("unknown bindings = %d, want 3", sawUnknown)
	}
}

func TestPartitionNoUnknownsSinglePart(t *testing.T) {
	g := fig2()
	res, err := Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumParts() != 1 || len(res.Bindings) != 0 {
		t.Fatalf("parts = %d bindings = %d, want 1, 0", res.NumParts(), len(res.Bindings))
	}
	if res.Parts[0].NumNodes() != 7 || res.Parts[0].NumEdges() != 8 {
		t.Fatal("single part should mirror the original graph")
	}
}

// Fig. 8: X has two uses, one feeding a node downstream of an unknown
// separation. X's outbound edges must be cut and both uses become
// constrained inputs with share 1/2.
func TestPartitionFig8(t *testing.T) {
	g := New()
	in1 := g.AddInput("in1")
	in2 := g.AddInput("in2")
	x := g.AddMix("X", Part{in1, 1}, Part{in2, 1})
	u := g.AddUnary(Separate, "U", in2)
	u.Unknown = true
	y := g.AddMix("Y", Part{x, 1}, Part{in1, 1})
	g.AddUnary(Sense, "sy", y)
	// Second use of X mixes with U's effluent (downstream of unknown).
	z := g.AddMix("Z", Part{x, 1}, Part{u, 1})
	z.In()[1].Port = PortEffluent
	g.AddUnary(Sense, "sz", z)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	var xShares []float64
	for _, b := range res.Bindings {
		if b.SourceID == x.ID() {
			xShares = append(xShares, b.Share)
			if b.SourcePart < 0 {
				t.Fatal("X is not a natural input; binding should reference its part")
			}
		}
	}
	if len(xShares) != 2 || !approx(xShares[0], 0.5) || !approx(xShares[1], 0.5) {
		t.Fatalf("X shares = %v, want [0.5, 0.5]", xShares)
	}
	// X must be a leaf of its own part.
	xPart := res.PartOf[x.ID()]
	pg := res.Parts[xPart]
	for lid, oid := range res.OrigOf[xPart] {
		if oid == x.ID() && !pg.Node(lid).IsLeaf() {
			t.Fatal("cut node X should be a leaf in its part")
		}
	}
}

// m/N refinement: a cut node with two uses in the SAME consuming part gets
// one constrained input with share m/N = 2/3.
func TestPartitionShareRefinement(t *testing.T) {
	g := New()
	in1 := g.AddInput("in1")
	in2 := g.AddInput("in2")
	x := g.AddMix("X", Part{in1, 1}, Part{in2, 1})
	u := g.AddUnary(Separate, "U", in2)
	u.Unknown = true
	// Two uses of X downstream of U, one use upstream.
	y := g.AddMix("Y", Part{x, 1}, Part{in1, 1})
	g.AddUnary(Sense, "sy", y)
	z1 := g.AddMix("Z1", Part{x, 1}, Part{u, 1})
	z1.In()[1].Port = PortEffluent
	z2 := g.AddMix("Z2", Part{x, 1}, Part{z1, 1})
	g.AddUnary(Sense, "sz", z2)
	res, err := Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	shares := map[float64]int{}
	for _, b := range res.Bindings {
		if b.SourceID == x.ID() {
			shares[b.Share]++
		}
	}
	if shares[1.0/3] != 1 || shares[2.0/3] != 1 {
		t.Fatalf("X shares = %v, want one 1/3 and one 2/3", shares)
	}
}

// randomDAG builds a random valid assay DAG.
func randomDAG(r *rand.Rand) *Graph {
	g := New()
	nIn := 2 + r.Intn(4)
	var pool []*Node
	for i := 0; i < nIn; i++ {
		pool = append(pool, g.AddInput("in"))
	}
	nOps := 3 + r.Intn(10)
	for i := 0; i < nOps; i++ {
		switch r.Intn(4) {
		case 0, 1: // mix of 2-3 parts
			k := 2 + r.Intn(2)
			if k > len(pool) {
				k = len(pool)
			}
			parts := make([]Part, 0, k)
			seen := map[*Node]bool{}
			for len(parts) < k {
				src := pool[r.Intn(len(pool))]
				if seen[src] {
					continue
				}
				seen[src] = true
				parts = append(parts, Part{src, float64(1 + r.Intn(9))})
			}
			pool = append(pool, g.AddMix("m", parts...))
		case 2: // incubate
			pool = append(pool, g.AddUnary(Incubate, "h", pool[r.Intn(len(pool))]))
		case 3: // unknown separation
			s := g.AddUnary(Separate, "sep", pool[r.Intn(len(pool))])
			s.Unknown = r.Intn(2) == 0
			if !s.Unknown {
				s.OutFrac = 0.25 + 0.5*r.Float64()
			}
			pool = append(pool, s)
		}
	}
	return g
}

// Property: random DAGs validate, and Partition yields valid ordered parts
// whose bindings reference earlier parts.
func TestQuickPartitionInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r)
		if g.Validate() != nil {
			return false
		}
		res, err := Partition(g)
		if err != nil {
			return false
		}
		for _, b := range res.Bindings {
			if b.SourcePart >= b.Part {
				return false
			}
			if b.Share <= 0 || b.Share > 1+eps {
				return false
			}
		}
		for _, pg := range res.Parts {
			if pg.Validate() != nil {
				return false
			}
			for _, n := range pg.Nodes() {
				if n.Unknown && !n.IsLeaf() {
					return false // unknown nodes must be cut
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone is structurally identical and Validate-stable.
func TestQuickCloneEquivalence(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r)
		c := g.Clone()
		if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
			return false
		}
		for i, e := range g.Edges() {
			ce := c.Edges()[i]
			if ce.From.ID() != e.From.ID() || ce.To.ID() != e.To.ID() || ce.Frac != e.Frac {
				return false
			}
		}
		return c.Validate() == nil
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// HasRuntimeVolumes is set only by an unknown-volume node with uses: an
// unknown leaf is measured after everything that could depend on it.
func TestHasRuntimeVolumes(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	sep := g.AddUnary(Separate, "sep", a)
	if g.HasRuntimeVolumes() {
		t.Fatal("known-volume graph reports run-time volumes")
	}
	sep.Unknown = true
	if g.HasRuntimeVolumes() {
		t.Fatal("unknown leaf reports run-time volumes")
	}
	g.AddUnary(Incubate, "inc", sep)
	if !g.HasRuntimeVolumes() {
		t.Fatal("unknown node with a use reports none")
	}
	if g, _, _ := glycomicsShape(); !g.HasRuntimeVolumes() {
		t.Fatal("glycomics shape reports no run-time volumes")
	}
}
