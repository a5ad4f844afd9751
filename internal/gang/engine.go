// Package gang implements gang-scheduled lockstep execution: N instances
// ("lanes") of the same program stepped through a single shared control
// computation per cycle. Statistics workloads (TVLA, DPA) run one program
// thousands of times with only the data varying, so fetch, decode, stall and
// flush geometry, PC sequencing and latch occupancy — everything
// data-independent — is computed once per cycle and amortized across the
// gang, while the data path (registers, memory, latch data values, energy
// rails) is replicated per lane via cpu.Lane and energy.VecMeter.
//
// The engine reuses the cycle-accurate core's own building blocks rather
// than reimplementing them: cpu.ExecUOp for EX semantics, cpu.LoadUseHazard
// and cpu.ForwardOperands for pipeline geometry, and the rail model the
// scalar core's energy.Probe runs at width 1 (energy.VecMeter), so per-lane,
// per-cycle totals are bit-identical to a scalar run. The control flow in step mirrors
// cpu.Step stage for stage (WB, MEM, EX, ID, IF, redirect, commit) so the
// two cannot drift without a test catching it.
//
// Deoptimization contract: lockstep is only valid while every lane's control
// flow is identical. The first lane to reach EX each cycle is the gang
// reference; any lane whose branch outcome or jump target diverges from it,
// or that faults in MEM or EX, is peeled off with a *DeoptError (matching
// ErrDeopt) and replayed from cycle 0 on the unmodified scalar core by the
// session layer (internal/sim). A fatal fetch fault — a shared-control
// condition the gang cannot attribute to one lane — deopts every live lane. An expired cycle budget is not a deopt: lockstep
// state is cycle-exact, so lanes still live at expiry hold precisely the
// scalar core's partial-run state (see Run). Results therefore never depend
// on the gang engine: a lane either completes (or is exactly truncated) with
// state bit-identical to a scalar run, or is entirely re-executed by one.
package gang

import (
	"errors"
	"fmt"

	"desmask/internal/asm"
	"desmask/internal/cpu"
	"desmask/internal/energy"
	"desmask/internal/isa"
	"desmask/internal/mem"
	"desmask/internal/trace"
)

// ErrDeopt is the sentinel matched by errors.Is when a lane is abandoned for
// the cycle-accurate core. It is not a failure: the caller replays the lane's
// job on the scalar CPU, which produces the exact result (including the exact
// fault or cycle-limit error, if any).
var ErrDeopt = errors.New("gang: lane deoptimized to the cycle-accurate core")

// DeoptError reports why a lane was peeled off the gang. It matches ErrDeopt
// and unwraps to the underlying cause when one exists.
type DeoptError struct {
	// Reason is a short human-readable cause, for diagnostics and tests.
	Reason string
	// PC is the program counter of the instruction the lane diverged at, or
	// the fetch PC for shared-control deopts.
	PC uint32
	// Cause is the underlying fault, when the reason is a fault.
	Cause error
}

// Error implements error.
func (e *DeoptError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("gang: deopt at pc %#x: %s: %v", e.PC, e.Reason, e.Cause)
	}
	return fmt.Sprintf("gang: deopt at pc %#x: %s", e.PC, e.Reason)
}

// Unwrap returns the underlying fault.
func (e *DeoptError) Unwrap() error { return e.Cause }

// Is matches the ErrDeopt sentinel.
func (e *DeoptError) Is(target error) bool { return target == ErrDeopt }

// latch is the shared control half of a pipeline latch: occupancy plus an
// index into the micro-op table. The data values live in each cpu.Lane.
type latch struct {
	valid bool
	idx   int32
}

// Engine steps up to Width lanes of one program in lockstep. Create with
// New, then per gang run: Reset(n), configure observation (SetSampleWindow /
// SetLaneSampleBuf or EnableTrace), poke per-lane inputs through Lane(i),
// and call Run. Afterwards LaneErr(i) is nil for every lane that completed
// in lockstep — its Lane(i) state and the shared Stats are bit-identical to
// a scalar run — and a *DeoptError for every lane that must be replayed.
type Engine struct {
	prog  *asm.Program
	uops  []isa.UOp
	scale [isa.NumExecClasses]float64
	width int

	meter *energy.VecMeter
	lanes []cpu.Lane

	// Per-run shared control state.
	n       int
	live    []int // lane indices still in lockstep, in lane order
	laneErr []error
	pc      uint32
	ifid    latch
	idex    latch
	exmem   latch
	memwb   latch

	draining bool
	halted   bool
	stats    cpu.Stats

	// Observation. With a sample window, cycles in [sampleStart, sampleEnd)
	// are metered and written to the per-lane buffers; cycles before the
	// window advance rail history quietly; cycles after it skip the meter
	// entirely (nothing downstream can observe them). Trace mode meters and
	// records every cycle.
	sampleStart, sampleEnd uint64
	sampleBufs             [][]float64
	traceOn                bool
	traces                 []trace.Trace

	ev energy.LaneEvents // reused per cycle; no steady-state allocation
}

// New builds a gang engine over the program with capacity for width lanes.
// Like cpu.New it refuses targets that do not declare the five-stage
// pipeline geometry. Call Reset before the first run.
func New(p *asm.Program, cfg energy.Config, width int) (*Engine, error) {
	if len(p.Text) == 0 {
		return nil, errors.New("gang: empty program")
	}
	if width < 1 {
		return nil, fmt.Errorf("gang: width %d < 1", width)
	}
	target := p.TargetOrDefault()
	if spec := target.Pipeline(); spec != isa.FiveStage {
		return nil, fmt.Errorf("gang: target %s declares pipeline %+v, but lockstep execution implements only the five-stage geometry %+v",
			target.Name(), spec, isa.FiveStage)
	}
	uops, err := isa.PredecodeProgramFor(target, p.Text, p.TextBase)
	if err != nil {
		return nil, fmt.Errorf("gang: %w", err)
	}
	e := &Engine{
		prog:       p,
		uops:       uops,
		scale:      target.ALUOpScale(),
		width:      width,
		meter:      energy.NewVecMeter(cfg, width),
		lanes:      make([]cpu.Lane, width),
		live:       make([]int, 0, width),
		laneErr:    make([]error, width),
		sampleBufs: make([][]float64, width),
		traces:     make([]trace.Trace, width),
	}
	for i := range e.lanes {
		e.lanes[i].Mem = mem.New()
	}
	return e, nil
}

// Width returns the lane capacity.
func (e *Engine) Width() int { return e.width }

// Size returns the number of lanes in the current gang run.
func (e *Engine) Size() int { return e.n }

// Program returns the program the engine runs.
func (e *Engine) Program() *asm.Program { return e.prog }

// Lane returns lane i's architectural state, for poking inputs before Run
// and reading results after it (only meaningful when LaneErr(i) is nil).
func (e *Engine) Lane(i int) *cpu.Lane { return &e.lanes[i] }

// LaneErr returns nil when lane i completed in lockstep, or the *DeoptError
// that peeled it.
func (e *Engine) LaneErr(i int) error { return e.laneErr[i] }

// Stats returns the shared control statistics of the run — bit-identical to
// the scalar core's Stats for every lane that completed in lockstep.
func (e *Engine) Stats() cpu.Stats { return e.stats }

// Halted reports whether the gang retired a halt.
func (e *Engine) Halted() bool { return e.halted }

// Reset prepares n lanes (1..Width) for a fresh gang run: every lane reset
// exactly as cpu.Reset resets the scalar core, shared control zeroed, meter
// rails cleared, observation disabled.
func (e *Engine) Reset(n int) error {
	if n < 1 || n > e.width {
		return fmt.Errorf("gang: gang size %d out of range 1..%d", n, e.width)
	}
	e.n = n
	e.live = e.live[:0]
	for i := 0; i < n; i++ {
		if err := e.lanes[i].Reset(e.prog); err != nil {
			return err
		}
		e.laneErr[i] = nil
		e.live = append(e.live, i)
	}
	e.meter.Reset(n)
	e.pc = e.prog.Entry
	e.ifid, e.idex, e.exmem, e.memwb = latch{}, latch{}, latch{}, latch{}
	e.draining, e.halted = false, false
	e.stats = cpu.Stats{}
	e.sampleStart, e.sampleEnd = 0, 0
	for i := 0; i < n; i++ {
		e.sampleBufs[i] = nil
	}
	e.traceOn = false
	return nil
}

// SetSampleWindow enables per-cycle energy sampling for cycles in
// [start, end). Lanes record into the buffers registered with
// SetLaneSampleBuf. Call after Reset, before Run.
func (e *Engine) SetSampleWindow(start, end uint64) {
	e.sampleStart, e.sampleEnd = start, end
}

// SetLaneSampleBuf registers lane i's sample buffer: cycle c of the window
// lands in buf[c-start]. The buffer is caller-owned and reusable across gang
// runs — this is what keeps the assessment hot loop allocation-free. A
// buffer shorter than the window records only the cycles it can hold.
func (e *Engine) SetLaneSampleBuf(i int, buf []float64) {
	e.sampleBufs[i] = buf
}

// EnableTrace turns on full per-cycle trace recording (energy total + EX
// PC, the trace.Recorder contract) for every lane, reserving capacity for
// the expected cycle count. Call after Reset, before Run.
func (e *Engine) EnableTrace(reserve int) {
	e.traceOn = true
	for i := 0; i < e.n; i++ {
		t := &e.traces[i]
		t.Totals = t.Totals[:0]
		t.PCs = t.PCs[:0]
		if reserve > 0 && cap(t.Totals) < reserve {
			t.Totals = make([]float64, 0, reserve)
			t.PCs = make([]uint32, 0, reserve)
		}
	}
}

// LaneTrace returns lane i's recorded trace (valid until the next Reset;
// snapshot to keep). Only meaningful after a traced run with LaneErr(i)==nil.
func (e *Engine) LaneTrace(i int) *trace.Trace { return &e.traces[i] }

// Run steps the gang until halt, an all-lane deopt, or the cycle budget.
// Budget expiry is NOT a deopt: lockstep execution is cycle-exact, so a lane
// still live when the budget runs out holds exactly the state a scalar core
// would after cpu.Run returned its *CycleLimitError — same cycle count, same
// registers and memory, same windowed samples. Callers read Halted() to
// distinguish completion from expiry (budget-bounded partial runs are the
// statistics hot path: first-round TVLA windows never run programs to halt,
// and deopting them would replay the entire population on the scalar core).
func (e *Engine) Run(budget uint64) {
	for !e.halted && len(e.live) > 0 {
		if e.stats.Cycles >= budget {
			return
		}
		e.step()
	}
}

// meterSkip/meterQuiet/meterFull select how much energy work a cycle does.
const (
	meterSkip = iota
	meterQuiet
	meterFull
)

// step advances the gang one clock cycle, mirroring cpu.Step's stage order
// exactly: shared control first (WB retire, MEM/EX latch advance, ID stall
// and halt-drain decision, IF fetch), then the per-lane data paths in lane
// order, then the control redirect and latch commit.
func (e *Engine) step() {
	cycle := e.stats.Cycles

	mode := meterSkip
	switch {
	case e.traceOn:
		mode = meterFull
	case e.sampleEnd > e.sampleStart:
		if cycle < e.sampleStart {
			mode = meterQuiet
		} else if cycle < e.sampleEnd {
			mode = meterFull
		}
	}

	oldIFID, oldIDEX, oldEXMEM, oldMEMWB := e.ifid, e.idex, e.exmem, e.memwb

	var wbU, memU, exU, idU *isa.UOp
	if oldMEMWB.valid {
		wbU = &e.uops[oldMEMWB.idx]
	}
	if oldEXMEM.valid {
		memU = &e.uops[oldEXMEM.idx]
	}
	if oldIDEX.valid {
		exU = &e.uops[oldIDEX.idx]
	}
	if oldIFID.valid {
		idU = &e.uops[oldIFID.idx]
	}

	// ---- shared control ---------------------------------------------------
	// WB retire accounting (the register write itself is per lane).
	if wbU != nil {
		e.stats.Insts++
		if wbU.Secure {
			e.stats.SecureInst++
		}
		if wbU.Class == isa.ClassHalt {
			e.halted = true
		}
	}

	newMEMWB := latch{}
	if oldEXMEM.valid {
		newMEMWB = latch{valid: true, idx: oldEXMEM.idx}
	}
	newEXMEM := latch{}
	if oldIDEX.valid {
		newEXMEM = latch{valid: true, idx: oldIDEX.idx}
	}

	// ID: stall geometry and the halt-drain decision, which must land before
	// IF runs this same cycle (exactly as in cpu.Step).
	stall := false
	issued := false
	newIDEX := latch{}
	if idU != nil {
		if exU != nil && cpu.LoadUseHazard(exU, idU) {
			stall = true
			e.stats.Stalls++
		} else {
			issued = true
			newIDEX = latch{valid: true, idx: oldIFID.idx}
			if idU.Class == isa.ClassHalt {
				e.draining = true
			}
		}
	}

	// IF: fetch decision and PC advance.
	newIFID := oldIFID
	fetchFault := false
	fetched := false
	var fetchWord uint32
	if !stall {
		newIFID = latch{}
		if !e.draining {
			idx := (e.pc - e.prog.TextBase) / 4
			if e.pc < e.prog.TextBase || int(idx) >= len(e.uops) || e.pc%4 != 0 {
				fetchFault = true
			} else {
				fetched = true
				fetchWord = e.uops[idx].Word
				newIFID = latch{valid: true, idx: int32(idx)}
				e.pc += 4
			}
		}
	}

	memAccess := memU != nil && (memU.Load || memU.Store)

	// Shared energy charges, in the scalar stage order so every component
	// accumulates identically: RegWrite (WB) before RegRead (ID), the fetch
	// rail last.
	switch mode {
	case meterFull:
		m := e.meter
		m.BeginCycle()
		if wbU != nil && wbU.Dest != isa.Zero {
			m.RegWrite()
		}
		if memAccess {
			m.MemArray()
		}
		if issued {
			m.Decode()
			m.RegRead(int(idU.NSrc))
		}
		if fetched {
			m.Fetch(fetchWord)
		}
		m.EndShared()
	case meterQuiet:
		if fetched {
			e.meter.FetchQuiet(fetchWord)
		}
	}

	// ---- per-lane data paths ----------------------------------------------
	ev := &e.ev
	ev.WB = wbU != nil
	ev.WBSecure = wbU != nil && wbU.Secure
	ev.Mem = memAccess
	ev.MemSecure = memU != nil && memU.Secure
	ev.EX = exU != nil
	if exU != nil {
		ev.EXSecure = exU.Secure
		ev.EXXor = exU.XorUnit
		ev.EXScale = e.scale[exU.Class]
	} else {
		ev.EXSecure, ev.EXXor, ev.EXScale = false, false, 0
	}

	// A uniform cycle — every active event secure under dual-rail precharge —
	// meters identically on every lane (energy is data-independent: the
	// masking property itself). The first live lane meters it for real; the
	// rest copy.
	uniform := mode == meterFull && e.meter.UniformLockstep(ev)
	metered := false
	meteredLane := 0

	redirect := false
	var redirectPC uint32
	haveRef := false
	var refTaken bool
	var refTarget uint32

	keep := e.live[:0]
	for _, li := range e.live {
		ln := &e.lanes[li]
		oldIDA, oldIDB := ln.IDA, ln.IDB
		oldEXOut, oldEXStore := ln.EXOut, ln.EXStore
		oldWBVal := ln.WBVal

		// WB: architectural register write.
		if wbU != nil {
			ev.WBVal = oldWBVal
			if wbU.Dest != isa.Zero {
				ln.Regs[wbU.Dest] = oldWBVal
			}
		}

		// MEM: loads and stores against the lane's private memory. A fault
		// peels the lane — its partially updated state is never observed,
		// the scalar replay starts from reset.
		if memU != nil {
			value := oldEXOut
			switch {
			case memU.Load:
				v, err := ln.Mem.LoadWord(oldEXOut)
				if err != nil {
					e.laneErr[li] = &DeoptError{Reason: "memory fault", PC: memU.PC, Cause: err}
					continue
				}
				value = v
				ev.MemAddr, ev.MemData = oldEXOut, v
			case memU.Store:
				if err := ln.Mem.StoreWord(oldEXOut, oldEXStore); err != nil {
					e.laneErr[li] = &DeoptError{Reason: "memory fault", PC: memU.PC, Cause: err}
					continue
				}
				ev.MemAddr, ev.MemData = oldEXOut, oldEXStore
			}
			ln.WBVal = value
		}

		// EX: forwarding and execution via the scalar core's own ExecUOp.
		// The first lane surviving to EX is the gang reference; lanes whose
		// control outcome differs from it are peeled.
		if exU != nil {
			a, b := cpu.ForwardOperands(exU, oldIDA, oldIDB, memU, oldEXOut, wbU, oldWBVal)
			res, target, taken, err := cpu.ExecUOp(exU, a, b)
			if err != nil {
				e.laneErr[li] = &DeoptError{Reason: "exec fault", PC: exU.PC, Cause: err}
				continue
			}
			if !haveRef {
				haveRef = true
				refTaken, refTarget = taken, target
				if taken {
					redirect, redirectPC = true, target
				}
			} else if taken != refTaken || (taken && target != refTarget) {
				e.laneErr[li] = &DeoptError{Reason: "branch divergence", PC: exU.PC}
				continue
			}
			ev.A, ev.B, ev.R = a, b, res
			ln.EXOut, ln.EXStore = res, b
		}

		// ID: register reads (after this cycle's WB write, as in cpu.Step).
		if issued {
			a := ln.Regs[idU.SrcA]
			b := idU.BConst
			if idU.BReg {
				b = ln.Regs[idU.SrcB]
			}
			ln.IDA, ln.IDB = a, b
		}

		switch mode {
		case meterFull:
			var total float64
			if uniform && metered {
				total = e.meter.CopyLaneCycle(meteredLane, li, ev)
			} else {
				total = e.meter.LaneCycle(li, ev)
				metered, meteredLane = true, li
			}
			if e.traceOn {
				t := &e.traces[li]
				t.Totals = append(t.Totals, total)
				pc := trace.NoPC
				if exU != nil {
					pc = exU.PC
				}
				t.PCs = append(t.PCs, pc)
			} else if buf := e.sampleBufs[li]; buf != nil {
				if i := cycle - e.sampleStart; i < uint64(len(buf)) {
					buf[i] = total
				}
			}
		case meterQuiet:
			e.meter.LaneCycleQuiet(li, ev)
		}

		keep = append(keep, li)
	}
	e.live = keep

	// ---- control redirect --------------------------------------------------
	if redirect {
		if newIDEX.valid {
			e.stats.Flushes++
		}
		if newIFID.valid {
			e.stats.Flushes++
		}
		newIDEX = latch{}
		newIFID = latch{}
		e.pc = redirectPC
		e.draining = false
	}

	// A fetch fault is fatal only once the pipeline has drained with no
	// redirect possible — a shared-control condition, so every live lane
	// deopts and the scalar replay reproduces the exact error.
	if fetchFault && !redirect && !e.draining &&
		!newIFID.valid && !newIDEX.valid && !newEXMEM.valid && !newMEMWB.valid {
		for _, li := range e.live {
			e.laneErr[li] = &DeoptError{Reason: "fetch fault", PC: e.pc}
		}
		e.live = e.live[:0]
		return
	}

	e.ifid, e.idex, e.exmem, e.memwb = newIFID, newIDEX, newEXMEM, newMEMWB
	e.stats.Cycles++
}
