// Package pipeline is the compile pipeline of the paper (§3.4, §4), in
// one place: source → elaborated DAG → the Fig. 6 volume-management
// hierarchy (or the §3.5 staged plan) → independent plan certification →
// code generation → instruction-level verification. fluidc ships what it
// produces, fluidvm and the robustness benches execute it, so a listing
// that is shipped and a listing that is run are the same program.
//
// The package owns every decision those callers used to repeat:
//
//   - static or staged planning: a graph with a non-leaf run-time volume
//     (dag.Graph.HasRuntimeVolumes) is planned part by part;
//   - Manage, or plain DAGSolve under NoManage;
//   - which plans are certified, and against which availability: the
//     managed plan against the chip's static reservoirs, an unmanaged
//     one with no availability limits, every solved partition of a
//     staged plan against its own bindings — at compile time and, through
//     the staged source's hook, at run time;
//   - the forwarding policy (see Compiled.Generate);
//   - the per-instruction volume table and the verifier's view of the
//     plan;
//   - a fresh machine and volume source per run, and the bundle the
//     recovery runtime repairs from.
package pipeline

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"aquavol/internal/ais"
	"aquavol/internal/aisverify"
	"aquavol/internal/aquacore"
	"aquavol/internal/budget"
	"aquavol/internal/certify"
	"aquavol/internal/codegen"
	"aquavol/internal/core"
	"aquavol/internal/dag"
	"aquavol/internal/diag"
	"aquavol/internal/lang"
	"aquavol/internal/lang/elab"
	recovery "aquavol/internal/recover"
)

// Options are the knobs the pipeline's callers vary. The zero value is
// the default compile: managed, certified and verified, no margin, no
// budget.
type Options struct {
	// Margin over-provisions every planned volume by (1+Margin)
	// (fluidvm -margin).
	Margin float64
	// Budget, when non-nil, is charged for planning and certification
	// work, including the staged partitions solved at run time, and stops
	// them when it runs out (fluidvm -budget/-deadline).
	Budget *budget.Meter
	// NoManage plans with plain DAGSolve: no cascading, replication or LP
	// fallback (fluidc -no-manage). Staged assays ignore it.
	NoManage bool
	// NoCertify skips plan certification (-no-certify).
	NoCertify bool
	// MutatePlan perturbs every solved plan before certification, to
	// prove the gate fires (fluidc -mutate-plan).
	MutatePlan bool
	// NoVerify skips the instruction-level verifier (fluidc -no-verify).
	NoVerify bool
}

// ErrVerify reports a listing the instruction-level verifier rejects.
var ErrVerify = errors.New("pipeline: listing failed verification")

// Compiled is one assay taken through the pipeline. Plan fills in the
// planning fields, Generate the code fields.
type Compiled struct {
	Program *elab.Program
	// Graph is the graph the code runs on: the managed (transformed)
	// graph of a static plan, the source graph of a staged one.
	Graph *dag.Graph
	// Plan is the static volume plan, nil for a staged assay. Under
	// NoManage it may be infeasible (and is then left uncertified).
	Plan *core.Plan
	// Managed is the volume manager's result, nil unless Manage ran.
	Managed *core.ManageResult
	// Staged is the compile-time share of a staged assay's plan: every
	// partition that needs no measurement is solved and certified. Nil
	// for a static assay.
	Staged *core.StagedPlan
	// CertHash is certify.PlanHash of the certified static plan; 0 for a
	// staged assay (no single plan to pin) and under NoCertify.
	CertHash uint32

	// Code is the generated program, nil until Generate.
	Code *codegen.Result
	// Volumes is the per-instruction volume table of a static plan.
	Volumes ais.VolumeTable
	// Findings are the verifier's findings, nil under NoVerify.
	Findings diag.List

	cfg  core.Config
	opts Options
}

// Compile takes assay source through the whole pipeline. A listing with
// error findings fails with ErrVerify.
func Compile(src string, opts Options) (*Compiled, error) {
	ep, err := lang.Compile(src)
	if err != nil {
		return nil, err
	}
	c, err := Plan(ep, opts)
	if err != nil {
		return nil, err
	}
	if err := c.Generate(); err != nil {
		return nil, err
	}
	for _, d := range c.Findings {
		if d.Severity == diag.Error {
			return nil, fmt.Errorf("%w: %s", ErrVerify, d.Error())
		}
	}
	return c, nil
}

// Plan runs volume management and certification on an elaborated assay:
// the stages before code generation.
func Plan(ep *elab.Program, opts Options) (*Compiled, error) {
	cfg := core.DefaultConfig()
	cfg.SafetyMargin = opts.Margin
	cfg.Budget = opts.Budget
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{Program: ep, Graph: ep.Graph, cfg: cfg, opts: opts}
	switch {
	case ep.Graph.HasRuntimeVolumes():
		// The source solves and certifies every static partition; each
		// run starts from a copy of that state (NewMachine).
		sp, err := core.NewStagedPlan(ep.Graph, cfg)
		if err == nil {
			_, err = aquacore.NewStagedSource(sp, c.checkPlan)
		}
		if err != nil {
			return nil, err
		}
		c.Staged = sp
		return c, nil
	case opts.NoManage:
		plan, err := core.DAGSolve(ep.Graph, cfg, nil)
		if err != nil {
			return nil, err
		}
		c.Plan = plan
		if !plan.Feasible() {
			return c, nil
		}
		return c, c.certify("unmanaged", nil)
	default:
		res, err := core.Manage(ep.Graph, cfg, core.ManageOptions{})
		if errors.Is(err, core.ErrUnmanageable) {
			var trace strings.Builder
			if res != nil {
				for _, l := range res.Trace {
					trace.WriteString("  " + l + "\n")
				}
			}
			return nil, fmt.Errorf("%w\ntrace:\n%s", err, trace.String())
		} else if err != nil {
			return nil, err
		}
		c.Managed, c.Graph, c.Plan = res, res.Graph, res.Plan
		return c, c.certify("managed", core.StaticAvailability(cfg))
	}
}

// certify gates the static plan behind the independent checker and pins
// its hash.
func (c *Compiled) certify(what string, avail core.Availability) error {
	if err := c.checkPlan(0, c.Plan, avail); err != nil {
		return fmt.Errorf("%s plan rejected: %w", what, err)
	}
	if !c.opts.NoCertify {
		c.CertHash = certify.PlanHash(c.Plan)
	}
	return nil
}

// checkPlan is the one certification gate, for static plans and (as the
// staged source's aquacore.CertifyPart hook) for every solved partition.
// Under MutatePlan it first adds 0.5 nl to the plan's first nonzero edge.
func (c *Compiled) checkPlan(_ int, p *core.Plan, avail core.Availability) error {
	if c.opts.MutatePlan {
		for i, v := range p.EdgeVolume {
			if v > 0 {
				p.EdgeVolume[i] += 0.5
				break
			}
		}
	}
	if c.opts.NoCertify {
		return nil
	}
	return certify.CheckPlan(p, c.cfg, avail)
}

// Generate runs code generation, builds the volume table of a static
// plan and, unless NoVerify, runs the verifier over the listing.
//
// Storage-less forwarding is turned off whenever a unit may be left
// holding excess, where a forwarded partial draw would pick the residue
// up: LP plans (no flow conservation), staged plans (any partition may
// fall back on LP at run time) and any positive safety margin.
func (c *Compiled) Generate() error {
	noForwarding := c.Staged != nil || c.opts.Margin > 0 || c.Managed != nil && c.Managed.UsedLP
	cg, err := codegen.Generate(c.Program, c.Graph, codegen.Config{NoForwarding: noForwarding})
	if err != nil {
		return err
	}
	c.Code = cg
	var ps aquacore.PlanSource
	if c.Plan != nil {
		ps.Plan = c.Plan
		if c.Volumes, err = cg.VolumeTable(ps.EdgeVolume); err != nil {
			return err
		}
	}
	if c.opts.NoVerify {
		return nil
	}
	var regs []string
	for name := range codegen.DryInit(c.Program) {
		regs = append(regs, name)
	}
	sort.Strings(regs)
	vopts := aisverify.Options{Volumes: c.Volumes, UnknownVolumes: c.Plan == nil, DefinedRegs: regs}
	if c.Plan != nil {
		vopts.NodeVolume = ps.NodeVolume
	}
	c.Findings = aisverify.Verify(cg.Prog, vopts)
	return nil
}

// NewMachine builds a fresh machine for one run of the generated program
// on the simulated PLoC described by mc: a new volume source and the
// program's initial dry registers. A staged assay's source starts from a
// copy of the compile-time partitions, so nothing is solved or charged
// twice, and certifies the partitions it solves at run time.
func (c *Compiled) NewMachine(mc aquacore.Config) (*aquacore.Machine, error) {
	var src aquacore.VolumeSource = aquacore.PlanSource{Plan: c.Plan}
	if c.Staged != nil {
		ss, err := aquacore.NewStagedSource(c.Staged.Clone(), c.checkPlan)
		if err != nil {
			return nil, err
		}
		src = ss
	}
	m := aquacore.New(mc, c.Graph, src)
	m.SetDry(codegen.DryInit(c.Program))
	return m, nil
}

// Recovery bundles what the recovery runtime's regeneration and
// replanning repairs need.
func (c *Compiled) Recovery() *recovery.Compiled {
	return &recovery.Compiled{Graph: c.Graph, Clusters: c.Code.Clusters, VesselOf: c.Code.VesselOf}
}
