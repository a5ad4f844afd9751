package energy

import (
	"fmt"
	"math/bits"
	"strings"
)

// Component identifies one energy sink of the processor.
type Component int

// Components of the modeled processor.
const (
	CompClock         Component = iota // clock tree + control
	CompFetch                          // instruction store + instruction bus
	CompDecode                         // decode logic
	CompRegFile                        // register file ports
	CompALU                            // ALU + dedicated XOR unit
	CompOpBus                          // operand buses (regfile -> EX)
	CompResultBus                      // result bus (EX -> MEM/WB)
	CompPipeReg                        // pipeline registers
	CompMemBus                         // memory address + data buses
	CompMemArray                       // data memory array
	CompComplementary                  // complementary rails + dummy loads (secure mode)
	NumComponents
)

var componentNames = [NumComponents]string{
	"clock", "fetch", "decode", "regfile", "alu",
	"opbus", "resultbus", "pipereg", "membus", "memarray", "complementary",
}

// String returns the short component name.
func (c Component) String() string {
	if c >= 0 && c < NumComponents {
		return componentNames[c]
	}
	return fmt.Sprintf("component?%d", int(c))
}

// CycleEnergy is the energy consumed during one clock cycle, in picojoules.
type CycleEnergy struct {
	Total float64
	By    [NumComponents]float64
}

// Add accumulates o into e.
func (e *CycleEnergy) Add(o CycleEnergy) {
	e.Total += o.Total
	for i := range e.By {
		e.By[i] += o.By[i]
	}
}

// String renders the non-zero components.
func (e CycleEnergy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.2fpJ", e.Total)
	sep := " ("
	for c := Component(0); c < NumComponents; c++ {
		if e.By[c] != 0 {
			fmt.Fprintf(&b, "%s%s=%.2f", sep, c, e.By[c])
			sep = " "
		}
	}
	if sep != " (" {
		b.WriteString(")")
	}
	return b.String()
}

// prechargeValue is the bus state after a precharged (secure) transfer: all
// lines charged high. Subsequent insecure transfers therefore depend only on
// their own value, never on the secure data that preceded them.
const prechargeValue uint32 = 0xffffffff

// rail models one 32-line bus or 32-bit latch with transition-sensitive
// energy and an optional dual-rail secure mode.
type rail struct {
	prev   uint32
	linePJ float64
}

// transfer drives value v on the rail and returns (normal, complementary)
// energy in pJ. In secure mode with precharging, exactly half of the 64
// normal+complementary lines discharge each evaluate phase, so the energy is
// the constant 32·linePJ regardless of v (half attributed to the normal rail,
// half to the complementary rail). Without precharging (ablation), the
// complementary rail mirrors the normal rail's transitions, doubling — not
// hiding — the data dependence.
func (r *rail) transfer(v uint32, secure bool, cfg *Config) (normal, comp float64) {
	if secure {
		if cfg.DualRailPrecharge {
			r.prev = prechargeValue
			half := 16 * r.linePJ
			return half, half
		}
		h := float64(bits.OnesCount32(r.prev ^ v))
		r.prev = v
		e := h * r.linePJ
		return e, e
	}
	h := float64(bits.OnesCount32(r.prev ^ v))
	r.prev = v
	normal = h * r.linePJ
	if !cfg.ClockGating {
		// Ungated complementary rail mirrors every transition.
		comp = normal
	}
	return normal, comp
}

// coupling returns the inter-wire coupling energy of driving v, which depends
// on the pattern of adjacent differing bits and is NOT masked by dual-rail
// operation (paper §5).
func coupling(v uint32, linePJ float64) float64 {
	return float64(bits.OnesCount32(v^(v<<1))) * linePJ
}

// Model is the per-cycle energy accountant. Create one per simulated core
// with NewModel; the CPU reports datapath events between BeginCycle and
// EndCycle.
type Model struct {
	cfg Config

	acc CycleEnergy

	fetchBus  rail
	opBusA    rail
	opBusB    rail
	resultBus rail
	memAddr   rail
	memData   rail

	latchA rail // ID/EX operand A
	latchB rail // ID/EX operand B
	latchR rail // EX/MEM result
	latchW rail // MEM/WB writeback value

	aluPrevA, aluPrevB, aluPrevR uint32
	xorPrevR                     uint32
}

// NewModel returns a Model with the given configuration.
func NewModel(cfg Config) *Model {
	m := &Model{cfg: cfg}
	p := cfg.Params
	m.fetchBus.linePJ = p.FetchLinePJ
	m.opBusA.linePJ = p.OpBusLinePJ
	m.opBusB.linePJ = p.OpBusLinePJ
	m.resultBus.linePJ = p.ResultBusLinePJ
	m.memAddr.linePJ = p.MemAddrLinePJ
	m.memData.linePJ = p.MemDataLinePJ
	m.latchA.linePJ = p.LatchBitPJ
	m.latchB.linePJ = p.LatchBitPJ
	m.latchR.linePJ = p.LatchBitPJ
	m.latchW.linePJ = p.LatchBitPJ
	return m
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// Reset returns every rail, latch and history register to its power-on
// state so the model can account a fresh run. A reset model produces
// bit-identical energy series to a newly constructed one, which is what lets
// pooled simulation workers reuse models across batch jobs.
func (m *Model) Reset() {
	m.acc = CycleEnergy{}
	for _, r := range []*rail{
		&m.fetchBus, &m.opBusA, &m.opBusB, &m.resultBus,
		&m.memAddr, &m.memData,
		&m.latchA, &m.latchB, &m.latchR, &m.latchW,
	} {
		r.prev = 0
	}
	m.aluPrevA, m.aluPrevB, m.aluPrevR = 0, 0, 0
	m.xorPrevR = 0
}

// BeginCycle opens a new accounting period and charges the constant clock
// energy.
func (m *Model) BeginCycle() {
	m.acc = CycleEnergy{}
	m.charge(CompClock, m.cfg.Params.ClockPJ)
}

// EndCycle closes the period and returns its energy.
func (m *Model) EndCycle() CycleEnergy {
	var e CycleEnergy
	m.EndCycleInto(&e)
	return e
}

// EndCycleInto closes the period and writes its energy into dst, avoiding the
// 96-byte return copy on the per-cycle hot path. The total is summed over the
// components in index order, exactly as EndCycle always has, so per-cycle
// energy values are bit-identical regardless of which variant the caller uses.
func (m *Model) EndCycleInto(dst *CycleEnergy) {
	dst.By = m.acc.By
	total := 0.0
	for _, v := range dst.By {
		total += v
	}
	dst.Total = total
}

func (m *Model) charge(c Component, pj float64) { m.acc.By[c] += pj }

// chargeRail books a rail transfer against component c.
func (m *Model) chargeRail(r *rail, v uint32, secure bool, c Component) {
	n, comp := r.transfer(v, secure, &m.cfg)
	m.charge(c, n)
	m.charge(CompComplementary, comp)
	if m.cfg.InterWireCoupling {
		m.charge(c, coupling(v, m.cfg.Params.CouplingPJ))
	}
}

// Fetch reports an instruction fetch of the encoded word.
func (m *Model) Fetch(word uint32) {
	m.charge(CompFetch, m.cfg.Params.IFetchArrayPJ)
	m.chargeRail(&m.fetchBus, word, false, CompFetch)
}

// Decode reports instruction decode work.
func (m *Model) Decode() {
	m.charge(CompDecode, m.cfg.Params.DecodePJ)
}

// RegRead reports n register file read ports firing.
func (m *Model) RegRead(n int) {
	m.charge(CompRegFile, float64(n)*m.cfg.Params.RegReadPJ)
}

// RegWrite reports one register file write.
func (m *Model) RegWrite() {
	m.charge(CompRegFile, m.cfg.Params.RegWritePJ)
}

// OperandLatch reports the ID/EX operands being latched and driven on the
// operand buses.
func (m *Model) OperandLatch(a, b uint32, secure bool) {
	m.chargeRail(&m.opBusA, a, secure, CompOpBus)
	m.chargeRail(&m.opBusB, b, secure, CompOpBus)
	m.chargeRail(&m.latchA, a, secure, CompPipeReg)
	m.chargeRail(&m.latchB, b, secure, CompPipeReg)
}

// aluSecureConstPJ is the constant energy of a secure (dual-rail) ALU
// operation: both rails at full activity.
func (m *Model) aluSecureConstPJ() float64 {
	p := m.cfg.Params
	return 2*p.AluOpPJ + 96*p.ALUTogglePJ
}

// ALUOp reports an ALU operation with input operands a, b and result r.
// isXor selects the dedicated XOR unit with the paper's 0.3/0.6 pJ behaviour.
func (m *Model) ALUOp(a, b, r uint32, isXor, secure bool) {
	m.ALUOpScaled(1, a, b, r, isXor, secure)
}

// ALUOpScaled is ALUOp with the target's per-op coefficient applied to the
// data-independent base energy (Params.AluOpPJ). Operand-dependent toggle
// energy and the XOR unit are never scaled, so a backend's coefficient
// table shifts means without creating or hiding operand leakage. A scale of
// 1 is exact: ALUOpScaled(1, ...) charges bit-identically to the historical
// ALUOp path.
func (m *Model) ALUOpScaled(scale float64, a, b, r uint32, isXor, secure bool) {
	p := m.cfg.Params
	switch {
	case isXor && secure && m.cfg.DualRailPrecharge:
		m.charge(CompALU, p.XorUnitPJ/2)
		m.charge(CompComplementary, p.XorUnitPJ/2)
		m.xorPrevR = prechargeValue
	case isXor:
		t := float64(bits.OnesCount32(m.xorPrevR ^ r))
		m.xorPrevR = r
		e := t / 32 * p.XorUnitPJ
		m.charge(CompALU, e)
		if secure || !m.cfg.ClockGating {
			m.charge(CompComplementary, e)
		}
	case secure && m.cfg.DualRailPrecharge:
		c := 2*p.AluOpPJ*scale + 96*p.ALUTogglePJ
		m.charge(CompALU, c/2)
		m.charge(CompComplementary, c/2)
		m.aluPrevA, m.aluPrevB, m.aluPrevR = prechargeValue, prechargeValue, prechargeValue
	default:
		t := bits.OnesCount32(m.aluPrevA^a) + bits.OnesCount32(m.aluPrevB^b) + bits.OnesCount32(m.aluPrevR^r)
		m.aluPrevA, m.aluPrevB, m.aluPrevR = a, b, r
		e := p.AluOpPJ*scale + float64(t)*p.ALUTogglePJ
		m.charge(CompALU, e)
		if secure || !m.cfg.ClockGating {
			m.charge(CompComplementary, e)
		}
	}
}

// Result reports the EX-stage result being driven on the result bus and
// latched into EX/MEM.
func (m *Model) Result(r uint32, secure bool) {
	m.chargeRail(&m.resultBus, r, secure, CompResultBus)
	m.chargeRail(&m.latchR, r, secure, CompPipeReg)
}

// MemAccess reports a data memory access: address and data bus transfers
// plus the (data-independent) array access. For secure loads and stores both
// buses run dual-rail — the paper's secure indexing propagates the inverted
// index so the address path is masked too.
func (m *Model) MemAccess(addr, data uint32, secure bool) {
	m.chargeRail(&m.memAddr, addr, secure, CompMemBus)
	m.chargeRail(&m.memData, data, secure, CompMemBus)
	m.charge(CompMemArray, m.cfg.Params.MemArrayPJ)
}

// Writeback reports the MEM/WB latch capturing the value headed to the
// register file.
func (m *Model) Writeback(v uint32, secure bool) {
	m.chargeRail(&m.latchW, v, secure, CompPipeReg)
}
