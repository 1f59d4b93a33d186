// Package ais defines the AquaCore Instruction Set (Table 1 of the paper
// and [2]): the wet instructions executed by the fluidic datapath (move,
// mix, incubate, separate.*, sense.*, concentrate, input, output) and the
// dry instructions executed by the electronic control (dry-mov, dry-add,
// dry-sub, dry-mul, ...). The paper shows a subset of the dry ISA; this
// package completes it with the comparison and conditional-skip
// instructions any real control program needs (dry-lt/le/eq, dry-not,
// dry-jz), in the spirit of the microcontroller-based electronic control.
//
// Wet operands name reservoirs (s1, s2, ...), functional units (mixer1,
// heater1, separator1, sensor1, ...) and their sub-ports
// (separator1.matrix, separator1.pusher, separator1.out1/out2), and I/O
// ports (ip1, op1, ...). Dry operands name registers/variables of the
// electronic control.
package ais

import (
	"fmt"
	"sort"
	"strings"
)

// Opcode enumerates AIS instructions.
type Opcode int

const (
	// Nop does nothing (assembler padding).
	Nop Opcode = iota
	// Move transfers a relative volume from Src to Dst; the runtime
	// translates relative volumes to absolute ones (§2.1).
	Move
	// MoveAbs transfers an absolute volume (in least-count units).
	MoveAbs
	// Input draws fluid from an input port into a reservoir.
	Input
	// Output sends fluid from a reservoir/unit to an output port.
	Output
	// Mix runs the mixer for Args[0] seconds.
	Mix
	// Incubate heats (temp, time).
	Incubate
	// Concentrate concentrates (temp, time).
	Concentrate
	// SeparateCE is electrophoresis-based separation (Esep, len, time).
	SeparateCE
	// SeparateSize separates by size (time).
	SeparateSize
	// SeparateAF separates by affinity to a pre-loaded matrix (time).
	SeparateAF
	// SeparateLC is liquid-chromatography separation (time).
	SeparateLC
	// SenseOD senses optical density into a dry register.
	SenseOD
	// SenseFL senses fluorescence into a dry register.
	SenseFL
	// DryMov sets Dst := Src (register or immediate).
	DryMov
	// DryAdd sets Dst += Src.
	DryAdd
	// DrySub sets Dst -= Src.
	DrySub
	// DryMul sets Dst *= Src.
	DryMul
	// DryDiv sets Dst /= Src.
	DryDiv
	// DryMod sets Dst := Dst mod Src (integer semantics).
	DryMod
	// DryLT sets Dst := Dst < Src ? 1 : 0.
	DryLT
	// DryLE sets Dst := Dst <= Src ? 1 : 0.
	DryLE
	// DryEQ sets Dst := Dst == Src ? 1 : 0.
	DryEQ
	// DryNot sets Dst := Dst == 0 ? 1 : 0.
	DryNot
	// DryJZ jumps to the label operand when Dst == 0.
	DryJZ
	// DryJump jumps unconditionally.
	DryJump
	// Halt stops execution.
	Halt
)

var opcodeNames = map[Opcode]string{
	Nop: "nop", Move: "move", MoveAbs: "move-abs", Input: "input",
	Output: "output", Mix: "mix", Incubate: "incubate",
	Concentrate: "concentrate", SeparateCE: "separate.CE",
	SeparateSize: "separate.SIZE", SeparateAF: "separate.AF",
	SeparateLC: "separate.LC", SenseOD: "sense.OD", SenseFL: "sense.FL",
	DryMov: "dry-mov", DryAdd: "dry-add", DrySub: "dry-sub",
	DryMul: "dry-mul", DryDiv: "dry-div", DryMod: "dry-mod",
	DryLT: "dry-lt", DryLE: "dry-le",
	DryEQ: "dry-eq", DryNot: "dry-not", DryJZ: "dry-jz", DryJump: "dry-jmp",
	Halt: "halt",
}

var opcodeByName = func() map[string]Opcode {
	m := make(map[string]Opcode, len(opcodeNames))
	for k, v := range opcodeNames {
		m[v] = k
	}
	return m
}()

func (o Opcode) String() string {
	if s, ok := opcodeNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Opcode(%d)", int(o))
}

// ConcentrateYield is the volume fraction a Concentrate instruction
// leaves in its unit: the one figure the simulator executes and the
// verifier's interval analysis assumes.
const ConcentrateYield = 0.5

// IsWet reports whether the instruction occupies the fluidic datapath.
func (o Opcode) IsWet() bool {
	switch o {
	case Move, MoveAbs, Input, Output, Mix, Incubate, Concentrate,
		SeparateCE, SeparateSize, SeparateAF, SeparateLC, SenseOD, SenseFL:
		return true
	}
	return false
}

// IsSeparate reports whether the opcode is a separation flavor.
func (o Opcode) IsSeparate() bool {
	switch o {
	case SeparateCE, SeparateSize, SeparateAF, SeparateLC:
		return true
	}
	return false
}

// OperandKind classifies operands.
type OperandKind int

const (
	// NoOperand is an empty operand slot.
	NoOperand OperandKind = iota
	// Reservoir is a storage reservoir s<N>.
	Reservoir
	// Unit is a functional unit (mixer1, heater1, separator1, sensor1),
	// optionally with a sub-port (separator1.matrix/.pusher/.out1/.out2).
	Unit
	// InPort is an input port ip<N>.
	InPort
	// OutPort is an output port op<N>.
	OutPort
	// DryReg is an electronic-control register/variable.
	DryReg
	// Imm is a numeric immediate.
	Imm
	// Label is a jump target.
	Label
)

// Operand is one instruction operand.
type Operand struct {
	Kind OperandKind
	// Name is the textual base name (s3, mixer1, r0, ip2, loop_end).
	Name string
	// Sub is a unit sub-port (matrix, pusher, out1, out2).
	Sub string
	// Value is the immediate value.
	Value float64
}

// Res builds a reservoir operand.
func Res(n int) Operand { return Operand{Kind: Reservoir, Name: fmt.Sprintf("s%d", n)} }

// FU builds a functional-unit operand.
func FU(name string) Operand { return Operand{Kind: Unit, Name: name} }

// FUPort builds a unit sub-port operand.
func FUPort(name, sub string) Operand { return Operand{Kind: Unit, Name: name, Sub: sub} }

// IP builds an input-port operand.
func IP(n int) Operand { return Operand{Kind: InPort, Name: fmt.Sprintf("ip%d", n)} }

// OP builds an output-port operand.
func OP(n int) Operand { return Operand{Kind: OutPort, Name: fmt.Sprintf("op%d", n)} }

// Reg builds a dry-register operand.
func Reg(name string) Operand { return Operand{Kind: DryReg, Name: name} }

// Num builds an immediate operand.
func Num(v float64) Operand { return Operand{Kind: Imm, Value: v} }

// Lbl builds a label operand.
func Lbl(name string) Operand { return Operand{Kind: Label, Name: name} }

func (o Operand) String() string {
	switch o.Kind {
	case NoOperand:
		return "_"
	case Imm:
		return trimNum(o.Value)
	case Unit:
		if o.Sub != "" {
			return o.Name + "." + o.Sub
		}
		return o.Name
	default:
		return o.Name
	}
}

func trimNum(v float64) string {
	s := fmt.Sprintf("%.6f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimSuffix(s, ".")
	return s
}

// Instr is one AIS instruction.
type Instr struct {
	Op       Opcode
	Operands []Operand
	// Edge annotates wet moves with the volume-DAG edge they realize
	// (-1 when none, e.g. auxiliary loads). Used by the runtime volume
	// manager; not part of the textual ISA.
	Edge int
	// Node annotates operation-completing instructions (mix, incubate,
	// separate.*, sense.*) with the DAG node they realize (-1 otherwise).
	Node int
	// Comment is emitted after ';' in the listing.
	Comment string
	// Line is the 1-based source line the instruction was assembled from
	// (0 for programs built programmatically, e.g. by codegen). It anchors
	// assembler and verifier diagnostics; it is not part of the textual
	// ISA and does not round-trip.
	Line int
}

// String renders the instruction in the paper's listing syntax.
func (i Instr) String() string {
	var b strings.Builder
	b.WriteString(i.Op.String())
	for j, op := range i.Operands {
		if j == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		b.WriteString(op.String())
	}
	if i.Comment != "" {
		fmt.Fprintf(&b, " ;%s", i.Comment)
	}
	return b.String()
}

// Program is an assembled AIS program.
type Program struct {
	Name   string
	Instrs []Instr
	// Labels maps label names to instruction indices.
	Labels map[string]int
}

// String renders the full listing, with labels on their own lines.
func (p *Program) String() string {
	byIndex := map[int][]string{}
	for name, ix := range p.Labels {
		byIndex[ix] = append(byIndex[ix], name)
	}
	for _, names := range byIndex {
		sort.Strings(names)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s{\n", p.Name)
	for i, in := range p.Instrs {
		for _, l := range byIndex[i] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "  %s\n", in)
	}
	// Labels bound one past the last instruction (end-of-program jump
	// targets) are legal and must survive the round trip.
	for _, l := range byIndex[len(p.Instrs)] {
		fmt.Fprintf(&b, "%s:\n", l)
	}
	b.WriteString("}\n")
	return b.String()
}
