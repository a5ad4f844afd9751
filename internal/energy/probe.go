package energy

import "desmask/internal/isa"

// Probe is the energy meter: an isa.Probe that meters the pipeline's stage
// events on a width-1 VecMeter, the gang's rail arithmetic, and accumulates
// per-cycle and whole-run totals. Control-only charges go through the
// meter's shared methods as events arrive; WB, MEM and EX data fill one
// reused LaneEvents, metered at the cycle's commit. Model is the independent
// reference it is tested against.
//
// Attach the meter before any probe that reads it (trace recorders, peak
// trackers): probes fire in attachment order, so readers then see the
// just-committed cycle via Last(). The next cycle's accounting opens at its
// first event, so Last() holds until then.
//
// Metering outside the core is exact: every rail is touched at most once per
// cycle, so neither a cycle's total nor the rail history depends on the order
// in which the cycle's events arrive.
type Probe struct {
	vm VecMeter
	// lane is vm's only lane, held inline so that it shares no cache line
	// with another worker's meter: both are written every cycle.
	lane   [1]laneRails
	scale  [isa.NumExecClasses]float64 // per-ExecClass base-ALU-energy scale
	ev     LaneEvents
	open   bool // the current cycle's shared accounting has begun
	total  CycleEnergy
	peak   float64
	cycles uint64
}

// NewProbe returns an energy meter with the given configuration, ready to
// observe cycle 0, using the default (PISA) coefficient of 1 for every
// operation class.
func NewProbe(cfg Config) *Probe {
	return NewProbeFor(cfg, nil)
}

// NewProbeFor returns an energy meter whose per-op ALU coefficients come
// from the given ISA backend's ALUOpScale table. A nil target means the
// PISA scale (all ones), which meters bit-identically to NewProbe.
func NewProbeFor(cfg Config, target isa.Target) *Probe {
	p := &Probe{vm: VecMeter{cfg: cfg, width: 1}}
	p.vm.lanes = p.lane[:]
	if target == nil {
		target = isa.PISA
	}
	p.scale = target.ALUOpScale()
	p.Reset()
	return p
}

// Reset clears the meter and its rail history so the next run is
// bit-identical to a fresh probe.
func (p *Probe) Reset() {
	p.vm.Reset(1)
	p.ev, p.open = LaneEvents{}, false
	p.total, p.peak, p.cycles = CycleEnergy{}, 0, 0
}

// Last returns the energy of the most recently committed cycle, with its
// per-component breakdown. It is valid from the cycle's OnCycle until the
// first event of the next cycle.
func (p *Probe) Last() (e CycleEnergy) {
	p.vm.EndCycleInto(0, &e)
	return e
}

// LastPJ returns the total energy of the most recently committed cycle
// without building the per-component breakdown.
func (p *Probe) LastPJ() float64 { return p.vm.lanes[0].last }

// Total returns the accumulated energy of the run so far.
func (p *Probe) Total() CycleEnergy { return p.total }

// TotalPJ returns the accumulated total energy in picojoules.
func (p *Probe) TotalPJ() float64 { return p.total.Total }

// PeakPJ returns the largest single-cycle energy observed.
func (p *Probe) PeakPJ() float64 { return p.peak }

// Cycles returns the number of committed cycles observed.
func (p *Probe) Cycles() uint64 { return p.cycles }

// begin opens the cycle's shared accounting on its first charge.
func (p *Probe) begin() {
	if !p.open {
		p.vm.BeginCycle()
		p.open = true
	}
}

// OnFetch implements isa.FetchObserver.
func (p *Probe) OnFetch(e isa.FetchEvent) {
	p.begin()
	p.vm.Fetch(e.Word)
}

// OnIssue implements isa.IssueObserver.
func (p *Probe) OnIssue(e isa.IssueEvent) {
	p.begin()
	p.vm.Decode()
	p.vm.RegRead(int(e.U.NSrc))
}

// OnExec implements isa.ExecObserver.
func (p *Probe) OnExec(e isa.ExecEvent) {
	ev := &p.ev
	ev.EX, ev.EXSecure, ev.EXXor = true, e.U.Secure, e.U.XorUnit
	ev.EXScale = p.scale[e.U.Class]
	ev.A, ev.B, ev.R = e.A, e.B, e.Result
}

// OnMem implements isa.MemObserver.
func (p *Probe) OnMem(e isa.MemEvent) {
	p.begin()
	p.vm.MemArray()
	ev := &p.ev
	ev.Mem, ev.MemSecure = true, e.U.Secure
	ev.MemAddr, ev.MemData = e.Addr, e.Data
}

// OnWriteback implements isa.WritebackObserver.
func (p *Probe) OnWriteback(e isa.WritebackEvent) {
	p.ev.WB, p.ev.WBSecure, p.ev.WBVal = true, e.U.Secure, e.Value
	if e.U.Dest != isa.Zero {
		p.begin()
		p.vm.RegWrite()
	}
}

// OnCycle implements isa.Probe: it meters the committed cycle and adds its
// component partials straight into the run total.
func (p *Probe) OnCycle(isa.CycleInfo) {
	p.begin()
	v := &p.vm
	v.EndShared()
	e := v.LaneCycle(0, &p.ev)
	p.open = false
	p.ev.WB, p.ev.Mem, p.ev.EX = false, false, false

	lr := &v.lanes[0]
	t := &p.total
	t.Total += e
	t.By[CompClock] += v.shClock
	t.By[CompFetch] += v.shFetch
	t.By[CompDecode] += v.shDecode
	t.By[CompRegFile] += v.shRegfile
	t.By[CompALU] += lr.alu
	t.By[CompOpBus] += lr.opbus
	t.By[CompResultBus] += lr.resbus
	t.By[CompPipeReg] += lr.pipereg
	t.By[CompMemBus] += lr.membus
	t.By[CompMemArray] += v.shMemarray
	t.By[CompComplementary] += lr.comp
	if e > p.peak {
		p.peak = e
	}
	p.cycles++
}
