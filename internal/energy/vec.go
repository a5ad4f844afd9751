package energy

import "math/bits"

// LaneEvents describes the data-dependent datapath events of one pipeline
// cycle for the lanes of a gang. The control flags (which stages are active,
// the secure bits, the ALU route and scale) are identical across lockstepped
// lanes and are filled once per cycle by the gang engine; the data fields
// (operand, result, address and writeback values) are rewritten per lane
// before each VecMeter.LaneCycle call.
type LaneEvents struct {
	// WB: the MEM/WB latch captures the writeback value.
	WB       bool
	WBSecure bool
	WBVal    uint32
	// MEM: a load or store drives the memory address and data buses.
	Mem       bool
	MemSecure bool
	MemAddr   uint32
	MemData   uint32
	// EX: operand latch + ALU (or the XOR unit) + result drive.
	EX       bool
	EXSecure bool
	EXXor    bool
	EXScale  float64
	A, B, R  uint32
}

// laneRails is one lane's private transition state: the previous values of
// every data-dependent rail, latch and functional-unit input. It mirrors the
// per-lane half of Model; the instruction-fetch bus is shared (the fetched
// word is control, identical across lanes) and lives on the VecMeter.
type laneRails struct {
	opA, opB, res  uint32 // operand and result buses
	mA, mD         uint32 // memory address and data buses
	lA, lB, lR, lW uint32 // pipeline latches
	aluA, aluB     uint32 // ALU input history
	aluR, xorR     uint32 // ALU / XOR-unit output history

	// Last cycle's per-component partials, kept for EndCycleInto. The By
	// indices they map to: alu -> CompALU, opbus -> CompOpBus, resbus ->
	// CompResultBus, pipereg -> CompPipeReg, membus -> CompMemBus, comp ->
	// CompComplementary.
	alu, opbus, resbus, pipereg, membus, comp float64
	last                                      float64
}

// VecMeter is the rail model of both engines: it meters N lockstepped lanes
// for the gang, and one lane for the scalar core's Probe. For every lane,
// each committed cycle's total and per-component energy are bit-identical to
// what the reference Model reports when driven with that lane's events, as
// long as they arrive in the same stage order (WB, MEM, EX, ID, IF — the
// order cpu.Step fires probes).
//
// The work is split the same way the core is: charges determined purely by
// control (clock, fetch, decode, register file ports, memory array) are
// accumulated once per cycle via the shared methods, and EndShared folds
// them into the component-index-order prefix sum the scalar EndCycleInto
// computes; LaneCycle then adds only the data-dependent components (ALU,
// operand/result buses, pipeline latches, memory buses, complementary rails)
// per lane. Skipping a zero charge is exact — every accumulator is
// non-negative, and x + 0.0 == x for non-negative x — which is also why
// clock-gated complementary no-ops cost nothing here.
//
// LaneCycleQuiet advances rail history without any floating-point work, for
// cycles whose energy no consumer observes; the next metered cycle is still
// exact because transition energy depends only on the previous rail values.
type VecMeter struct {
	cfg   Config
	width int
	n     int
	lanes []laneRails

	// Shared instruction-fetch bus history (the fetched word is control).
	fetchPrev uint32

	// Shared per-cycle component partials and their index-order prefix.
	shClock, shFetch, shDecode, shRegfile, shMemarray float64
	// shCompFetch is the ungated complementary mirror of the fetch rail; it
	// is charged after every per-lane complementary charge (IF is the last
	// stage the scalar core processes), so LaneCycle adds it last.
	shCompFetch float64
	prefix      float64
}

// NewVecMeter returns a vector meter for up to width lanes under cfg.
func NewVecMeter(cfg Config, width int) *VecMeter {
	if width < 1 {
		width = 1
	}
	return &VecMeter{cfg: cfg, width: width, lanes: make([]laneRails, width)}
}

// Width returns the lane capacity.
func (v *VecMeter) Width() int { return v.width }

// Reset prepares n lanes (n <= Width) for a fresh run: every rail history
// and accumulator cleared, bit-identical to a new meter.
func (v *VecMeter) Reset(n int) {
	if n > v.width {
		n = v.width
	}
	v.n = n
	for i := range v.lanes[:n] {
		v.lanes[i] = laneRails{}
	}
	v.fetchPrev = 0
	v.shClock, v.shFetch, v.shDecode, v.shRegfile, v.shMemarray = 0, 0, 0, 0, 0
}

// BeginCycle opens a cycle's shared accounting and charges the clock tree.
func (v *VecMeter) BeginCycle() {
	v.shClock = v.cfg.Params.ClockPJ
	v.shFetch, v.shDecode, v.shRegfile, v.shMemarray = 0, 0, 0, 0
	v.shCompFetch = 0
}

// Fetch reports the shared instruction fetch of the cycle's encoded word.
func (v *VecMeter) Fetch(word uint32) {
	p := &v.cfg.Params
	v.shFetch += p.IFetchArrayPJ
	h := float64(bits.OnesCount32(v.fetchPrev ^ word))
	v.fetchPrev = word
	e := h * p.FetchLinePJ
	v.shFetch += e
	if !v.cfg.ClockGating {
		v.shCompFetch = e
	}
	if v.cfg.InterWireCoupling {
		v.shFetch += coupling(word, p.CouplingPJ)
	}
}

// FetchQuiet advances the fetch-bus history without accounting energy, for
// unobserved cycles.
func (v *VecMeter) FetchQuiet(word uint32) { v.fetchPrev = word }

// Decode reports the shared instruction decode.
func (v *VecMeter) Decode() { v.shDecode += v.cfg.Params.DecodePJ }

// RegRead reports n register-file read ports firing. Call after RegWrite
// (WB precedes ID in stage order) so the register-file component accumulates
// in the scalar order.
func (v *VecMeter) RegRead(n int) {
	v.shRegfile += float64(n) * v.cfg.Params.RegReadPJ
}

// RegWrite reports one register-file write.
func (v *VecMeter) RegWrite() { v.shRegfile += v.cfg.Params.RegWritePJ }

// MemArray reports the data-independent memory array access of a load or
// store cycle.
func (v *VecMeter) MemArray() { v.shMemarray += v.cfg.Params.MemArrayPJ }

// EndShared closes the cycle's shared accounting: the prefix sum of the
// control-determined components in index order (clock, fetch, decode,
// regfile), exactly as the scalar EndCycleInto begins its total.
func (v *VecMeter) EndShared() {
	v.prefix = ((v.shClock + v.shFetch) + v.shDecode) + v.shRegfile
}

// vecRail mirrors rail.transfer: drive value on a rail with the given
// per-line cost, returning (normal, complementary) energy.
func vecRail(prev *uint32, value uint32, secure, precharge, gating bool, linePJ float64) (float64, float64) {
	if secure {
		if precharge {
			*prev = prechargeValue
			half := 16 * linePJ
			return half, half
		}
		h := float64(bits.OnesCount32(*prev ^ value))
		*prev = value
		e := h * linePJ
		return e, e
	}
	h := float64(bits.OnesCount32(*prev ^ value))
	*prev = value
	e := h * linePJ
	if !gating {
		return e, e
	}
	return e, 0
}

// LaneCycle meters one lane's cycle and returns its total energy, storing it
// for LastPJ. Events must already carry the lane's data values; charges are
// applied in the reference Model's stage and component order.
func (v *VecMeter) LaneCycle(lane int, ev *LaneEvents) float64 {
	lr := &v.lanes[lane]
	p := &v.cfg.Params
	pre := v.cfg.DualRailPrecharge
	gating := v.cfg.ClockGating
	coup := v.cfg.InterWireCoupling

	var alu, opbus, resbus, pipereg, membus, comp float64

	// WB: the MEM/WB latch captures the writeback value.
	if ev.WB {
		n, c := vecRail(&lr.lW, ev.WBVal, ev.WBSecure, pre, gating, p.LatchBitPJ)
		pipereg += n
		comp += c
		if coup {
			pipereg += coupling(ev.WBVal, p.CouplingPJ)
		}
	}

	// MEM: address and data buses.
	if ev.Mem {
		n, c := vecRail(&lr.mA, ev.MemAddr, ev.MemSecure, pre, gating, p.MemAddrLinePJ)
		membus += n
		comp += c
		if coup {
			membus += coupling(ev.MemAddr, p.CouplingPJ)
		}
		n, c = vecRail(&lr.mD, ev.MemData, ev.MemSecure, pre, gating, p.MemDataLinePJ)
		membus += n
		comp += c
		if coup {
			membus += coupling(ev.MemData, p.CouplingPJ)
		}
	}

	// EX: operand buses and latches, the ALU or XOR unit, result bus and
	// latch — the scalar OnExec order.
	if ev.EX {
		sec := ev.EXSecure
		n, c := vecRail(&lr.opA, ev.A, sec, pre, gating, p.OpBusLinePJ)
		opbus += n
		comp += c
		if coup {
			opbus += coupling(ev.A, p.CouplingPJ)
		}
		n, c = vecRail(&lr.opB, ev.B, sec, pre, gating, p.OpBusLinePJ)
		opbus += n
		comp += c
		if coup {
			opbus += coupling(ev.B, p.CouplingPJ)
		}
		n, c = vecRail(&lr.lA, ev.A, sec, pre, gating, p.LatchBitPJ)
		pipereg += n
		comp += c
		if coup {
			pipereg += coupling(ev.A, p.CouplingPJ)
		}
		n, c = vecRail(&lr.lB, ev.B, sec, pre, gating, p.LatchBitPJ)
		pipereg += n
		comp += c
		if coup {
			pipereg += coupling(ev.B, p.CouplingPJ)
		}

		switch {
		case ev.EXXor && sec && pre:
			alu += p.XorUnitPJ / 2
			comp += p.XorUnitPJ / 2
			lr.xorR = prechargeValue
		case ev.EXXor:
			t := float64(bits.OnesCount32(lr.xorR ^ ev.R))
			lr.xorR = ev.R
			e := t / 32 * p.XorUnitPJ
			alu += e
			if sec || !gating {
				comp += e
			}
		case sec && pre:
			c := 2*p.AluOpPJ*ev.EXScale + 96*p.ALUTogglePJ
			alu += c / 2
			comp += c / 2
			lr.aluA, lr.aluB, lr.aluR = prechargeValue, prechargeValue, prechargeValue
		default:
			t := bits.OnesCount32(lr.aluA^ev.A) + bits.OnesCount32(lr.aluB^ev.B) + bits.OnesCount32(lr.aluR^ev.R)
			lr.aluA, lr.aluB, lr.aluR = ev.A, ev.B, ev.R
			e := p.AluOpPJ*ev.EXScale + float64(t)*p.ALUTogglePJ
			alu += e
			if sec || !gating {
				comp += e
			}
		}

		n, c = vecRail(&lr.res, ev.R, sec, pre, gating, p.ResultBusLinePJ)
		resbus += n
		comp += c
		if coup {
			resbus += coupling(ev.R, p.CouplingPJ)
		}
		n, c = vecRail(&lr.lR, ev.R, sec, pre, gating, p.LatchBitPJ)
		pipereg += n
		comp += c
		if coup {
			pipereg += coupling(ev.R, p.CouplingPJ)
		}
	}

	// The ungated fetch-rail mirror is the last complementary charge of the
	// scalar cycle (IF runs last).
	comp += v.shCompFetch

	// Total in component index order, continuing EndShared's prefix. Absent
	// components contribute +0.0, which is exact.
	total := v.prefix
	total += alu
	total += opbus
	total += resbus
	total += pipereg
	total += membus
	total += v.shMemarray
	total += comp

	lr.alu, lr.opbus, lr.resbus = alu, opbus, resbus
	lr.pipereg, lr.membus, lr.comp = pipereg, membus, comp
	lr.last = total
	return total
}

// UniformLockstep reports whether the cycle described by ev meters
// identically on every lockstepped lane: every active event is secure — so
// dual-rail precharging makes its charge data-independent and leaves the
// touched rails in the precharge state — and no data-dependent charge
// (inter-wire coupling, which the paper notes is NOT masked by dual-rail
// operation) is enabled. This is the masking thesis turned into a throughput
// lever: exactly the cycles whose energy cannot depend on the data are the
// cycles the gang can meter once and share.
func (v *VecMeter) UniformLockstep(ev *LaneEvents) bool {
	if v.cfg.InterWireCoupling || !v.cfg.DualRailPrecharge {
		return false
	}
	return (!ev.WB || ev.WBSecure) && (!ev.Mem || ev.MemSecure) && (!ev.EX || ev.EXSecure)
}

// CopyLaneCycle replays a uniform cycle (see UniformLockstep) already metered
// on lane from onto lane to, with no floating-point work: every touched rail
// ends in the precharge state regardless of the lane's data, and every charge
// is data-independent, so the component partials and the total are copied
// verbatim. Bit-identical to calling LaneCycle(to, ev) with to's data values.
func (v *VecMeter) CopyLaneCycle(from, to int, ev *LaneEvents) float64 {
	src, dst := &v.lanes[from], &v.lanes[to]
	if ev.WB {
		dst.lW = prechargeValue
	}
	if ev.Mem {
		dst.mA, dst.mD = prechargeValue, prechargeValue
	}
	if ev.EX {
		dst.opA, dst.opB = prechargeValue, prechargeValue
		dst.lA, dst.lB = prechargeValue, prechargeValue
		if ev.EXXor {
			dst.xorR = prechargeValue
		} else {
			dst.aluA, dst.aluB, dst.aluR = prechargeValue, prechargeValue, prechargeValue
		}
		dst.res, dst.lR = prechargeValue, prechargeValue
	}
	dst.alu, dst.opbus, dst.resbus = src.alu, src.opbus, src.resbus
	dst.pipereg, dst.membus, dst.comp = src.pipereg, src.membus, src.comp
	dst.last = src.last
	return dst.last
}

// LaneCycleQuiet advances one lane's rail history for an unobserved cycle:
// the same state transitions as LaneCycle, no energy arithmetic.
func (v *VecMeter) LaneCycleQuiet(lane int, ev *LaneEvents) {
	lr := &v.lanes[lane]
	pre := v.cfg.DualRailPrecharge
	if ev.WB {
		quietRail(&lr.lW, ev.WBVal, ev.WBSecure, pre)
	}
	if ev.Mem {
		quietRail(&lr.mA, ev.MemAddr, ev.MemSecure, pre)
		quietRail(&lr.mD, ev.MemData, ev.MemSecure, pre)
	}
	if ev.EX {
		sec := ev.EXSecure
		quietRail(&lr.opA, ev.A, sec, pre)
		quietRail(&lr.opB, ev.B, sec, pre)
		quietRail(&lr.lA, ev.A, sec, pre)
		quietRail(&lr.lB, ev.B, sec, pre)
		switch {
		case ev.EXXor && sec && pre:
			lr.xorR = prechargeValue
		case ev.EXXor:
			lr.xorR = ev.R
		case sec && pre:
			lr.aluA, lr.aluB, lr.aluR = prechargeValue, prechargeValue, prechargeValue
		default:
			lr.aluA, lr.aluB, lr.aluR = ev.A, ev.B, ev.R
		}
		quietRail(&lr.res, ev.R, sec, pre)
		quietRail(&lr.lR, ev.R, sec, pre)
	}
}

// quietRail is vecRail's state transition without the energy.
func quietRail(prev *uint32, value uint32, secure, precharge bool) {
	if secure && precharge {
		*prev = prechargeValue
		return
	}
	*prev = value
}

// LastPJ returns the lane's most recently metered cycle total — the same
// contract as Probe.LastPJ, per lane.
func (v *VecMeter) LastPJ(lane int) float64 { return v.lanes[lane].last }

// EndCycleInto writes the lane's most recently metered cycle into dst with
// the full per-component breakdown — the same contract as the scalar
// EndCycleInto, per lane. Valid until the next BeginCycle.
func (v *VecMeter) EndCycleInto(lane int, dst *CycleEnergy) {
	lr := &v.lanes[lane]
	dst.By = [NumComponents]float64{
		CompClock:         v.shClock,
		CompFetch:         v.shFetch,
		CompDecode:        v.shDecode,
		CompRegFile:       v.shRegfile,
		CompALU:           lr.alu,
		CompOpBus:         lr.opbus,
		CompResultBus:     lr.resbus,
		CompPipeReg:       lr.pipereg,
		CompMemBus:        lr.membus,
		CompMemArray:      v.shMemarray,
		CompComplementary: lr.comp,
	}
	dst.Total = lr.last
}
