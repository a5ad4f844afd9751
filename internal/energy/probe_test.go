package energy_test

import (
	"errors"
	"fmt"
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/cpu"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/isa"
	"desmask/internal/mem"
)

// refProbe is the reference meter: the pipeline's stage events driven
// straight into an energy.Model, one method per event, closing the model's
// accounting window at each commit.
type refProbe struct {
	model *energy.Model
	scale [isa.NumExecClasses]float64
	last  energy.CycleEnergy
	total energy.CycleEnergy
	peak  float64
}

func newRefProbe(cfg energy.Config, target isa.Target) *refProbe {
	p := &refProbe{model: energy.NewModel(cfg), scale: target.ALUOpScale()}
	p.model.BeginCycle()
	return p
}

func (p *refProbe) OnFetch(e cpu.FetchEvent) { p.model.Fetch(e.Word) }

func (p *refProbe) OnIssue(e cpu.IssueEvent) {
	p.model.Decode()
	p.model.RegRead(int(e.U.NSrc))
}

func (p *refProbe) OnExec(e cpu.ExecEvent) {
	p.model.OperandLatch(e.A, e.B, e.U.Secure)
	p.model.ALUOpScaled(p.scale[e.U.Class], e.A, e.B, e.Result, e.U.XorUnit, e.U.Secure)
	p.model.Result(e.Result, e.U.Secure)
}

func (p *refProbe) OnMem(e cpu.MemEvent) { p.model.MemAccess(e.Addr, e.Data, e.U.Secure) }

func (p *refProbe) OnWriteback(e cpu.WritebackEvent) {
	p.model.Writeback(e.Value, e.U.Secure)
	if e.U.Dest != isa.Zero {
		p.model.RegWrite()
	}
}

func (p *refProbe) OnCycle(cpu.CycleInfo) {
	p.model.EndCycleInto(&p.last)
	p.total.Add(p.last)
	if p.last.Total > p.peak {
		p.peak = p.last.Total
	}
	p.model.BeginCycle()
}

func allConfigs() []energy.Config {
	var cfgs []energy.Config
	for _, pre := range []bool{true, false} {
		for _, gate := range []bool{true, false} {
			for _, coup := range []bool{true, false} {
				cfg := energy.DefaultConfig()
				cfg.DualRailPrecharge, cfg.ClockGating, cfg.InterWireCoupling = pre, gate, coup
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// TestProbeMatchesModelReference drives the Probe and the Model-based
// reference from the same cpu.CPU events — DES encryptions under every
// protection policy with distinct energy behaviour, on both ISA backends (so
// both ALU scale tables), under all eight Config ablations — and requires
// every committed cycle's total and per-component energy, the run total and
// the peak to be bit-identical.
func TestProbeMatchesModelReference(t *testing.T) {
	const key, plaintext = 0x133457799BBCDFF1, 0x0123456789ABCDEF
	for _, target := range []isa.Target{isa.PISA, isa.RV32} {
		for _, policy := range []compiler.Policy{compiler.PolicyNone, compiler.PolicySelective, compiler.PolicyBooleanMask} {
			m, err := desprog.NewFull(compiler.Options{Policy: policy, Target: target}, energy.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			job, err := m.EncryptJobSeeded(key, plaintext, 5, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			for ci, cfg := range allConfigs() {
				name := fmt.Sprintf("%s/%v/cfg%d", target.Name(), policy, ci)
				c, err := cpu.New(m.Res.Program, mem.New())
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range job.Writes {
					if err := c.Mem().StoreWord(w.Addr, w.Val); err != nil {
						t.Fatal(err)
					}
				}
				meter := energy.NewProbeFor(cfg, target)
				ref := newRefProbe(cfg, target)
				c.Attach(meter)
				c.Attach(ref)
				var bad error
				c.Attach(cpu.ProbeFunc(func(ci cpu.CycleInfo) {
					if got := meter.Last(); bad == nil && got != ref.last {
						bad = fmt.Errorf("cycle %d: probe %+v, reference %+v", ci.Cycle, got, ref.last)
					}
					if meter.LastPJ() != ref.last.Total && bad == nil {
						bad = fmt.Errorf("cycle %d: LastPJ %v, reference %v", ci.Cycle, meter.LastPJ(), ref.last.Total)
					}
				}))
				// The paper's configuration runs the whole encryption; the
				// ablations run its first 40,000 cycles (key permutation
				// and the start of round 1).
				limit := uint64(40_000)
				if cfg == energy.DefaultConfig() {
					limit = desprog.MaxCycles
				}
				if err := c.Run(limit); err != nil && !(limit < desprog.MaxCycles && errors.Is(err, cpu.ErrCycleLimit)) {
					t.Fatalf("%s: %v", name, err)
				}
				if bad != nil {
					t.Fatalf("%s: %v", name, bad)
				}
				if meter.Total() != ref.total || meter.PeakPJ() != ref.peak {
					t.Fatalf("%s: total %+v peak %v, reference %+v peak %v", name, meter.Total(), meter.PeakPJ(), ref.total, ref.peak)
				}
				if meter.Cycles() != c.Stats().Cycles {
					t.Fatalf("%s: %d cycles metered, core ran %d", name, meter.Cycles(), c.Stats().Cycles)
				}
			}
		}
	}
}
