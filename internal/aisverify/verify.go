// Package aisverify is an instruction-level volume-safety verifier for
// compiled AIS programs — the bytecode-verifier counterpart of the
// source-level analyzer in internal/analysis. It builds a control-flow
// graph over the program (labels, dry-jz, fallthrough), then runs a
// forward abstract interpretation of AquaCore machine state to a
// fixpoint: per-vessel volume intervals in nanoliters, joined at merge
// points, plus the definedness of dry registers and the functional-unit
// port protocol (separate.AF needs a loaded matrix, sense.* a non-empty
// chamber).
//
// A program hand-written, assembled from text, or emitted by
// internal/codegen can move from an empty reservoir, overflow a vessel
// past MaxCapacity, or dispense below the least count — failures the
// run-time volume table only catches during execution (§2.1 of the
// paper). The verifier reports them as internal/diag diagnostics with
// stable AIS0xx codes before any fluid moves.
package aisverify

import (
	"fmt"
	"math"

	"aquavol/internal/ais"
	"aquavol/internal/core"
	"aquavol/internal/diag"
	"aquavol/internal/lang/token"
)

// Verifier diagnostic codes, minted through the internal/diag registry.
// Error codes (AIS001, 003, 005, 006, 007, 012) each have a
// differential-test witness program whose simulation faults; warning
// codes flag conditions the machine tolerates. Every emit site uses the
// registered default severity.
var (
	// CodeRanOut: a move definitely draws more than its source can hold
	// (including any positive draw from a definitely-empty vessel).
	CodeRanOut = diag.MustRegister("AIS001", diag.Error,
		"move definitely draws more than its source holds", "README.md#ais-verification-aisverify")
	// CodeMaybeRanOut: a move may draw more than its source holds.
	CodeMaybeRanOut = diag.MustRegister("AIS002", diag.Warning,
		"move may draw more than its source holds", "README.md#ais-verification-aisverify")
	// CodeOverflow: a destination vessel definitely exceeds MaxCapacity.
	CodeOverflow = diag.MustRegister("AIS003", diag.Error,
		"destination vessel definitely exceeds MaxCapacity", "README.md#ais-verification-aisverify")
	// CodeMaybeOverflow: a destination vessel may exceed MaxCapacity.
	CodeMaybeOverflow = diag.MustRegister("AIS004", diag.Warning,
		"destination vessel may exceed MaxCapacity", "README.md#ais-verification-aisverify")
	// CodeLeastCount: a dispensed volume violates the least-count
	// resolution (unaligned or sub-least-count move-abs, or a volume
	// table entry below the least count).
	CodeLeastCount = diag.MustRegister("AIS005", diag.Error,
		"dispensed volume violates the least-count resolution", "README.md#ais-verification-aisverify")
	// CodeOccupiedPort: a wet write to a separator output port that
	// still holds fluid from a previous operation.
	CodeOccupiedPort = diag.MustRegister("AIS006", diag.Error,
		"wet write to a separator output port that still holds fluid", "README.md#ais-verification-aisverify")
	// CodeUseBeforeDef: a dry register read with no prior definition on
	// any path.
	CodeUseBeforeDef = diag.MustRegister("AIS007", diag.Error,
		"dry register read with no prior definition on any path", "README.md#ais-verification-aisverify")
	// CodeMaybeUndef: a dry register read that is undefined on some path.
	CodeMaybeUndef = diag.MustRegister("AIS008", diag.Warning,
		"dry register read undefined on some path", "README.md#ais-verification-aisverify")
	// CodeUnreachable: instructions no control-flow path reaches.
	CodeUnreachable = diag.MustRegister("AIS009", diag.Warning,
		"instruction is unreachable", "README.md#ais-verification-aisverify")
	// CodeNoMatrix: an affinity/LC separation whose matrix port is
	// definitely empty.
	CodeNoMatrix = diag.MustRegister("AIS010", diag.Warning,
		"separation whose matrix port is definitely empty", "README.md#ais-verification-aisverify")
	// CodeEmptySense: a sense on a definitely-empty sensor chamber.
	CodeEmptySense = diag.MustRegister("AIS011", diag.Warning,
		"sense on a definitely-empty sensor chamber", "README.md#ais-verification-aisverify")
	// CodeMalformed: an instruction whose operands do not fit its opcode
	// (wrong count or kind, undefined label).
	CodeMalformed = diag.MustRegister("AIS012", diag.Error,
		"instruction operands do not fit its opcode", "README.md#ais-verification-aisverify")
)

// Options configures verification. The zero value verifies a standalone
// listing exactly as `aquacore` executes one with no DAG or volume
// source attached.
type Options struct {
	// Config supplies MaxCapacity and LeastCount. Zero selects
	// core.DefaultConfig().
	Config core.Config
	// Volumes is the per-instruction absolute volume table (the shipped
	// companion of a listing, or one built from a static plan). Entries
	// take precedence over edge annotations, mirroring the machine.
	Volumes ais.VolumeTable
	// NodeVolume resolves the planned load volume of node-annotated
	// input instructions (plan.NodeVolume). Nil means inputs load full
	// capacity, the machine's sourceless behavior.
	NodeVolume func(nodeID int) (float64, bool)
	// UnknownVolumes marks programs whose volumes are assigned at run
	// time (§3.5 staged assays): edge-annotated moves and input loads
	// become unknown intervals and the possible-severity checks are
	// suppressed for them.
	UnknownVolumes bool
	// DefinedRegs lists dry registers defined before entry (the
	// compile-time Init values the runtime presets via SetDry).
	DefinedRegs []string
	// SeparationYield is the effluent fraction the machine's separations
	// produce. 0 selects the machine default 0.4.
	SeparationYield float64
}

// eps matches the machine's volume tolerance (volTol in aquacore).
const eps = 1e-6

type verifier struct {
	prog  *ais.Program
	opts  Options
	cap   float64
	lc    float64
	limit float64 // interval ceiling, > cap so overflow stays visible
	out   diag.List
}

// Verify checks p and returns its findings in program order: structural
// errors first (which, when present, suppress the dataflow passes), then
// dataflow findings by instruction index, then unreachable-code runs.
//
// Verify is certified parallel-safe: concurrent verifications are
// race-free provided any caller-supplied Options.NodeVolume callback is.
//
//fluidvet:parallelsafe
func Verify(p *ais.Program, opts Options) diag.List {
	if opts.Config.MaxCapacity == 0 {
		opts.Config = core.DefaultConfig()
	}
	if opts.SeparationYield == 0 {
		opts.SeparationYield = 0.4
	}
	v := &verifier{
		prog:  p,
		opts:  opts,
		cap:   opts.Config.MaxCapacity,
		lc:    opts.Config.LeastCount,
		limit: 4 * opts.Config.MaxCapacity,
	}
	if !v.structural() {
		return v.out
	}
	if len(p.Instrs) == 0 {
		return v.out
	}
	states := v.fixpoint()
	for pc := range p.Instrs {
		if states[pc] == nil {
			continue
		}
		v.transfer(pc, states[pc].clone(), v.emit)
	}
	v.unreachable(states)
	return v.out
}

// emit records a finding anchored to the instruction at pc, at the
// code's registered default severity.
func (v *verifier) emit(pc int, code diag.Code, format string, args ...any) {
	in := v.prog.Instrs[pc]
	pos := token.Pos{}
	if in.Line > 0 {
		pos = token.Pos{Line: in.Line, Col: 1}
	}
	v.out = append(v.out, code.New(pos,
		"pc %d (%s): %s", pc, in, fmt.Sprintf(format, args...)))
}

type emitFn func(pc int, code diag.Code, format string, args ...any)

func nop(int, diag.Code, string, ...any) {}

// vesselKind reports whether an operand names a fluid container.
func vesselKind(o ais.Operand) bool {
	return o.Kind == ais.Reservoir || o.Kind == ais.Unit
}

func vesselName(o ais.Operand) string {
	if o.Sub != "" {
		return o.Name + "." + o.Sub
	}
	return o.Name
}

// structural validates operand shapes and label references (AIS012),
// returning false when the program is too malformed to interpret.
func (v *verifier) structural() bool {
	ok := true
	bad := func(pc int, format string, args ...any) {
		v.emit(pc, CodeMalformed, format, args...)
		ok = false
	}
	label := func(pc int, o ais.Operand) {
		if o.Kind != ais.Label {
			bad(pc, "operand %s is not a label", o)
			return
		}
		if _, defined := v.prog.Labels[o.Name]; !defined {
			bad(pc, "undefined label %q", o.Name)
		}
	}
	for pc, in := range v.prog.Instrs {
		ops := in.Operands
		want := func(n int) bool {
			if len(ops) != n {
				bad(pc, "%s takes %d operands, got %d", in.Op, n, len(ops))
				return false
			}
			return true
		}
		vessel := func(i int) {
			if !vesselKind(ops[i]) {
				bad(pc, "operand %s is not a vessel", ops[i])
			}
		}
		reg := func(i int) {
			if ops[i].Kind != ais.DryReg {
				bad(pc, "operand %s is not a dry register", ops[i])
			}
		}
		num := func(i int) {
			if ops[i].Kind != ais.Imm {
				bad(pc, "operand %s is not a number", ops[i])
			}
		}
		switch in.Op {
		case ais.Nop, ais.Halt:
			want(0)
		case ais.Move:
			if len(ops) != 2 && len(ops) != 3 {
				bad(pc, "move takes 2 or 3 operands, got %d", len(ops))
				continue
			}
			vessel(0)
			vessel(1)
			if len(ops) == 3 {
				num(2)
			}
		case ais.MoveAbs:
			if want(3) {
				vessel(0)
				vessel(1)
				num(2)
			}
		case ais.Input:
			if want(2) {
				vessel(0)
				if ops[1].Kind != ais.InPort {
					bad(pc, "operand %s is not an input port", ops[1])
				}
			}
		case ais.Output:
			if want(2) {
				if ops[0].Kind != ais.OutPort {
					bad(pc, "operand %s is not an output port", ops[0])
				}
				vessel(1)
			}
		case ais.Mix:
			if want(2) {
				vessel(0)
				num(1)
			}
		case ais.Incubate, ais.Concentrate:
			if want(3) {
				vessel(0)
				num(1)
				num(2)
			}
		case ais.SeparateCE, ais.SeparateSize, ais.SeparateAF, ais.SeparateLC:
			if want(2) {
				if ops[0].Kind != ais.Unit || ops[0].Sub != "" {
					bad(pc, "operand %s is not a separator unit", ops[0])
				}
				num(1)
			}
		case ais.SenseOD, ais.SenseFL:
			if want(2) {
				vessel(0)
				reg(1)
			}
		case ais.DryMov, ais.DryAdd, ais.DrySub, ais.DryMul, ais.DryDiv,
			ais.DryMod, ais.DryLT, ais.DryLE, ais.DryEQ:
			if want(2) {
				reg(0)
				if ops[1].Kind != ais.DryReg && ops[1].Kind != ais.Imm {
					bad(pc, "operand %s is not a register or immediate", ops[1])
				}
			}
		case ais.DryNot:
			if want(1) {
				reg(0)
			}
		case ais.DryJZ:
			if want(2) {
				reg(0)
				label(pc, ops[1])
			}
		case ais.DryJump:
			if want(1) {
				label(pc, ops[0])
			}
		default:
			bad(pc, "unknown opcode %v", in.Op)
		}
	}
	return ok
}

// fixpoint computes the abstract in-state of every reachable pc.
func (v *verifier) fixpoint() []*state {
	n := len(v.prog.Instrs)
	states := make([]*state, n)
	joins := make([]int, n)
	entry := newState()
	for _, r := range v.opts.DefinedRegs {
		entry.define(r)
	}
	states[0] = entry
	work := []int{0}
	inWork := make([]bool, n)
	inWork[0] = true
	for len(work) > 0 {
		pc := work[0]
		work = work[1:]
		inWork[pc] = false
		st := states[pc].clone()
		v.transfer(pc, st, nop)
		for _, s := range succs(v.prog, pc) {
			var changed bool
			if states[s] == nil {
				states[s] = st.clone()
				changed = true
			} else {
				changed = states[s].join(st)
				if changed {
					joins[s]++
					// Widen volume-accumulating loops so the fixpoint
					// terminates; 64 joins is far beyond any precise
					// convergence the examples need.
					if joins[s] > 64 {
						states[s].widen(v.limit)
					}
				}
			}
			if changed && !inWork[s] {
				work = append(work, s)
				inWork[s] = true
			}
		}
	}
	return states
}

// transfer interprets the instruction at pc over st, reporting findings
// through emit. It mirrors aquacore's concrete semantics: same volume
// resolution order, same clamping, same tolerances.
func (v *verifier) transfer(pc int, st *state, emit emitFn) {
	in := v.prog.Instrs[pc]
	switch in.Op {
	case ais.Nop, ais.Halt, ais.Mix, ais.Incubate,
		ais.DryJump:
		// No volume or register effects (mix/incubate act in place).
	case ais.Input:
		dst := vesselName(in.Operands[0])
		load := exact(v.cap)
		switch {
		case v.opts.UnknownVolumes:
			load = itv{0, v.cap}
		case in.Node >= 0 && v.opts.NodeVolume != nil:
			if nv, ok := v.opts.NodeVolume(in.Node); ok {
				load = exact(math.Min(nv, v.cap))
			}
		}
		st.set(dst, load) // the machine clears, then fills
	case ais.Move, ais.MoveAbs:
		v.move(pc, in, st, emit)
	case ais.Output:
		src := vesselName(in.Operands[1])
		cur := st.get(src)
		if tab, ok := v.opts.Volumes[pc]; ok {
			st.set(src, itv{cur.lo - tab, cur.hi - tab})
		} else if in.Edge >= 0 {
			st.set(src, itv{0, cur.hi}) // runtime-resolved draw
		} else {
			st.set(src, itv{}) // whole-vessel drain
		}
	case ais.Concentrate:
		unit := vesselName(in.Operands[0])
		cur := st.get(unit)
		st.set(unit, itv{cur.lo * ais.ConcentrateYield, cur.hi * ais.ConcentrateYield})
	case ais.SeparateCE, ais.SeparateSize, ais.SeparateAF, ais.SeparateLC:
		unit := in.Operands[0].Name
		if in.Op == ais.SeparateAF || in.Op == ais.SeparateLC {
			if m := st.get(unit + ".matrix"); m.hi <= eps {
				emit(pc, CodeNoMatrix,
					"%s requires a loaded matrix but %s.matrix is empty", in.Op, unit)
			}
		}
		cur := st.get(unit)
		y := v.opts.SeparationYield
		st.set(unit+".out1", itv{cur.lo * y, cur.hi * y})
		st.set(unit+".out2", itv{cur.lo * (1 - y), cur.hi * (1 - y)})
		st.set(unit, itv{})
		st.set(unit+".matrix", itv{})
		st.set(unit+".pusher", itv{})
	case ais.SenseOD, ais.SenseFL:
		unit := vesselName(in.Operands[0])
		if c := st.get(unit); c.hi <= eps {
			emit(pc, CodeEmptySense,
				"%s reads a definitely-empty chamber %s", in.Op, unit)
		}
		st.define(in.Operands[1].Name)
		st.set(unit, itv{}) // sensing consumes the sample
	case ais.DryMov:
		v.read(pc, in.Operands[1], st, emit)
		st.define(in.Operands[0].Name)
	case ais.DryAdd, ais.DrySub, ais.DryMul, ais.DryDiv,
		ais.DryMod, ais.DryLT, ais.DryLE, ais.DryEQ:
		v.read(pc, in.Operands[1], st, emit)
		v.read(pc, in.Operands[0], st, emit)
		st.define(in.Operands[0].Name)
	case ais.DryNot:
		v.read(pc, in.Operands[0], st, emit)
	case ais.DryJZ:
		v.read(pc, in.Operands[0], st, emit)
	}
}

// read checks a dry-register read against the definedness lattice.
func (v *verifier) read(pc int, o ais.Operand, st *state, emit emitFn) {
	if o.Kind != ais.DryReg {
		return
	}
	switch {
	case !st.may[o.Name]:
		emit(pc, CodeUseBeforeDef,
			"dry register %q is read but never defined before this point", o.Name)
		// Define it so one missing definition reports once, not at
		// every subsequent use.
		st.define(o.Name)
	case !st.must[o.Name]:
		emit(pc, CodeMaybeUndef,
			"dry register %q may be undefined on some path", o.Name)
		st.define(o.Name)
	}
}

// move interprets move/move-abs: resolve the transported volume the way
// the machine does, check it against source contents, least count,
// destination capacity, and the output-port protocol, then update both
// vessel intervals.
func (v *verifier) move(pc int, in ais.Instr, st *state, emit emitFn) {
	dstName := vesselName(in.Operands[0])
	srcName := vesselName(in.Operands[1])
	if dstName == srcName {
		return // self-move: the machine draws and re-adds, net zero
	}
	src := st.get(srcName)
	var vol itv
	// known marks a statically-determined transfer volume. Under
	// UnknownVolumes every vessel's contents are transitively tainted by
	// runtime-resolved loads, so the possible-severity (hi-bound) checks
	// are suppressed wholesale; the definite (lo-bound) checks stay sound.
	known := !v.opts.UnknownVolumes
	whole := false
	tab, hasTab := v.opts.Volumes[pc]
	switch {
	case in.Op == ais.MoveAbs:
		units := in.Operands[2].Value
		if units < 0 {
			emit(pc, CodeLeastCount, "negative move-abs volume %g", units)
			units = 0
		} else if units > eps && (units < 1-eps || math.Abs(units-math.Round(units)) > 1e-9) {
			emit(pc, CodeLeastCount,
				"move-abs of %g least-count units is not a positive integral multiple of the %.4g nl least count",
				units, v.lc)
		}
		vol = exact(units * v.lc)
	case hasTab:
		if tab > eps && tab < v.lc-1e-9 {
			emit(pc, CodeLeastCount,
				"planned volume %.4g nl is below the %.4g nl least count", tab, v.lc)
		}
		vol = exact(tab)
	case in.Edge >= 0:
		// Runtime-resolved volume (a plan or staged source supplies it).
		vol = itv{0, v.cap}
		known = false
	default:
		vol = src
		whole = true
	}

	if !whole {
		if vol.lo > src.hi+eps {
			emit(pc, CodeRanOut,
				"move needs %.4g nl but %s holds at most %.4g nl", vol.lo, srcName, src.hi)
		} else if known && vol.hi > src.lo+eps {
			emit(pc, CodeMaybeRanOut,
				"move of %.4g nl may exceed %s's contents (as little as %.4g nl)", vol.hi, srcName, src.lo)
		}
	} else if src.lo > eps && src.hi < v.lc-1e-9 {
		emit(pc, CodeLeastCount,
			"whole-vessel move of %s dispenses at most %.4g nl, below the %.4g nl least count",
			srcName, src.hi, v.lc)
	}

	if o := in.Operands[0]; o.Kind == ais.Unit && (o.Sub == "out1" || o.Sub == "out2") {
		if dst := st.get(dstName); dst.lo > eps {
			emit(pc, CodeOccupiedPort,
				"write to output port %s which still holds at least %.4g nl", dstName, dst.lo)
		}
	}

	moved := itv{math.Min(vol.lo, src.lo), math.Min(vol.hi, src.hi)}
	dst := st.get(dstName)
	after := itv{dst.lo + moved.lo, dst.hi + moved.hi}
	if after.lo > v.cap+eps {
		emit(pc, CodeOverflow,
			"%s reaches at least %.4g nl, exceeding capacity %.4g nl", dstName, after.lo, v.cap)
	} else if (known || (whole && !v.opts.UnknownVolumes)) && after.hi > v.cap+eps {
		emit(pc, CodeMaybeOverflow,
			"%s may reach %.4g nl, exceeding capacity %.4g nl", dstName, after.hi, v.cap)
	}
	if after.hi > v.limit {
		after.hi = v.limit
	}
	st.set(dstName, after)
	st.set(srcName, itv{src.lo - moved.hi, src.hi - moved.lo})
}

// unreachable reports contiguous runs of instructions the CFG never
// reaches (AIS009).
func (v *verifier) unreachable(states []*state) {
	for pc := 0; pc < len(states); pc++ {
		if states[pc] != nil {
			continue
		}
		end := pc
		for end+1 < len(states) && states[end+1] == nil {
			end++
		}
		if end > pc {
			v.emit(pc, CodeUnreachable,
				"unreachable instructions (pc %d through %d)", pc, end)
		} else {
			v.emit(pc, CodeUnreachable, "unreachable instruction")
		}
		pc = end
	}
}
