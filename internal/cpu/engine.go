package cpu

import (
	"errors"
	"fmt"

	"desmask/internal/asm"
	"desmask/internal/energy"
	"desmask/internal/isa"
	"desmask/internal/mem"
	"desmask/internal/trace"
)

// ErrDeopt is the sentinel matched by errors.Is when a lane of a gang wider
// than one is abandoned. It is not a failure: the caller replays the lane's
// job as a width-1 run, which produces the exact result (including the
// exact fault or cycle-limit error, if any).
var ErrDeopt = errors.New("cpu: lane left the lockstep gang")

// DeoptError reports why a lane was peeled off a gang. It matches ErrDeopt
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
		return fmt.Sprintf("cpu: deopt at pc %#x: %s: %v", e.PC, e.Reason, e.Cause)
	}
	return fmt.Sprintf("cpu: deopt at pc %#x: %s", e.PC, e.Reason)
}

// Unwrap returns the underlying fault.
func (e *DeoptError) Unwrap() error { return e.Cause }

// Is matches the ErrDeopt sentinel.
func (e *DeoptError) Is(target error) bool { return target == ErrDeopt }

// latch is the control half of a pipeline latch: the index of its occupant
// in the micro-op table, or bubble. The data values the latch carries live
// in each Lane; everything static about the instruction is read from the
// table.
type latch int32

// bubble is the latch value of an empty pipeline slot.
const bubble latch = -1

// Engine is the five-stage pipeline: it steps up to Width lanes of one
// program in lockstep through a single shared control computation per
// cycle. Create with NewEngine, then per run: Reset(n), configure
// observation (SetSampleWindow / SetLaneSampleBuf, EnableTrace, or stage
// observers via Attach at width 1), poke per-lane inputs through Lane(i),
// and call Run. Afterwards LaneErr(i) is nil for every lane that completed —
// its Lane(i) state and the shared Stats are exactly a single run's — and
// otherwise the lane's fault (width 1) or a *DeoptError (wider gangs).
//
// Like a VecMeter, an engine is written every cycle by the one worker that
// owns it; the leading and trailing pads keep two workers' engines from
// sharing a 64-byte cache line.
type Engine struct {
	_     [64]byte
	prog  *asm.Program
	uops  []isa.UOp
	scale [isa.NumExecClasses]float64
	width int

	meter *energy.VecMeter
	lanes []Lane

	// Per-run shared control state.
	n       int
	live    []int // lane indices still in lockstep, in lane order
	laneErr []error
	pc      uint32
	ifid    latch
	idex    latch
	exmem   latch
	memwb   latch

	draining bool // halt decoded; stop fetching
	halted   bool
	stats    Stats

	// Inline metering. With a sample window, cycles in [sampleStart,
	// sampleEnd) are metered and written to the per-lane buffers; cycles
	// before the window advance rail history quietly; cycles after it skip
	// the meter entirely (nothing downstream can observe them). Trace mode
	// meters and records every cycle.
	sampleStart, sampleEnd uint64
	sampleBufs             [][]float64
	traceOn                bool
	traces                 []trace.Trace

	ev           energy.LaneEvents // reused per cycle; no steady-state allocation
	firstMetered int               // lane metered first this cycle, or -1

	// Stage observers, fired only in width-1 runs (see Attach).
	probes   []Probe
	fetchObs []FetchObserver
	issueObs []IssueObserver
	execObs  []ExecObserver
	memObs   []MemObserver
	wbObs    []WritebackObserver

	_ [64]byte
}

// lanePad is the number of unused Lanes allocated on each side of an
// engine's lanes; one Lane is wider than a cache line.
const lanePad = 1

// NewEngine builds an engine over the program with capacity for width
// lanes, metering under cfg. It refuses targets that do not declare the
// five-stage pipeline geometry. Call Reset before the first run.
func NewEngine(p *asm.Program, cfg energy.Config, width int) (*Engine, error) {
	e, err := newEngine(p, cfg, width)
	if err != nil {
		return nil, err
	}
	for i := range e.lanes {
		e.lanes[i].Mem = mem.New()
	}
	return e, nil
}

// newEngine is NewEngine without lane memories.
func newEngine(p *asm.Program, cfg energy.Config, width int) (*Engine, error) {
	if len(p.Text) == 0 {
		return nil, errors.New("cpu: empty program")
	}
	if width < 1 {
		return nil, fmt.Errorf("cpu: width %d < 1", width)
	}
	target := p.TargetOrDefault()
	// The engine implements exactly the five-stage geometry; a target
	// declaring anything else must not run here, or its declared spec and
	// the simulated timing would silently disagree.
	if spec := target.Pipeline(); spec != isa.FiveStage {
		return nil, fmt.Errorf("cpu: target %s declares pipeline %+v, but this core implements only the five-stage geometry %+v",
			target.Name(), spec, isa.FiveStage)
	}
	uops, err := isa.PredecodeProgramFor(target, p.Text, p.TextBase)
	if err != nil {
		return nil, fmt.Errorf("cpu: %w", err)
	}
	return &Engine{
		prog:       p,
		uops:       uops,
		scale:      target.ALUOpScale(),
		width:      width,
		meter:      energy.NewVecMeter(cfg, width),
		lanes:      make([]Lane, width+2*lanePad)[lanePad : lanePad+width],
		live:       make([]int, 0, width),
		laneErr:    make([]error, width),
		sampleBufs: make([][]float64, width),
		traces:     make([]trace.Trace, width),
	}, nil
}

// Width returns the lane capacity.
func (e *Engine) Width() int { return e.width }

// Lane returns lane i's architectural state, for poking inputs before Run
// and reading results after it (only meaningful when LaneErr(i) is nil).
func (e *Engine) Lane(i int) *Lane { return &e.lanes[i] }

// LaneErr returns nil when lane i completed (or is live at budget expiry),
// the lane's exact fault in a width-1 run, or the *DeoptError that peeled it
// from a wider gang.
func (e *Engine) LaneErr(i int) error { return e.laneErr[i] }

// Stats returns the shared control statistics of the run — exactly a single
// run's Stats for every lane that completed.
func (e *Engine) Stats() Stats { return e.stats }

// Halted reports whether the run retired a halt.
func (e *Engine) Halted() bool { return e.halted }

// Reset prepares n lanes (1..Width) for a fresh run: every lane's memory
// cleared and the data image reloaded, shared control zeroed, meter rails
// cleared, inline metering disabled. Attached observers are retained.
func (e *Engine) Reset(n int) error {
	if n < 1 || n > e.width {
		return fmt.Errorf("cpu: gang size %d out of range 1..%d", n, e.width)
	}
	for i := 0; i < n; i++ {
		if err := e.lanes[i].Reset(e.prog); err != nil {
			return err
		}
	}
	e.start(n)
	return nil
}

// start zeroes the shared control state for a run of n initialised lanes.
func (e *Engine) start(n int) {
	e.n = n
	e.live = e.live[:0]
	for i := 0; i < n; i++ {
		e.laneErr[i] = nil
		e.sampleBufs[i] = nil
		e.live = append(e.live, i)
	}
	e.meter.Reset(n)
	e.pc = e.prog.Entry
	e.ifid, e.idex, e.exmem, e.memwb = bubble, bubble, bubble, bubble
	e.draining, e.halted = false, false
	e.stats = Stats{}
	e.sampleStart, e.sampleEnd = 0, 0
	e.traceOn = false
}

// SetSampleWindow enables per-cycle energy sampling for cycles in
// [start, end). Lanes record into the buffers registered with
// SetLaneSampleBuf. Call after Reset, before Run.
func (e *Engine) SetSampleWindow(start, end uint64) {
	e.sampleStart, e.sampleEnd = start, end
}

// SetLaneSampleBuf registers lane i's sample buffer: cycle c of the window
// lands in buf[c-start]. The buffer is caller-owned and reusable across
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

// Run steps the run until halt, the cycle budget, or until no lane is left.
// It returns nil on halt and a *CycleLimitError (matching ErrCycleLimit)
// when the budget expires first. Budget expiry is not a deopt: lockstep
// execution is cycle-exact, so a lane still live when the budget runs out
// holds exactly a single run's partial state — same cycle count, registers,
// memory and windowed samples (first-round TVLA windows never run programs
// to halt, and deopting them would replay the entire population). When no
// lane is left, Run returns LaneErr(0): in a width-1 run that is the exact
// fault.
func (e *Engine) Run(budget uint64) error {
	for !e.halted {
		if len(e.live) == 0 {
			return e.laneErr[0]
		}
		if e.stats.Cycles >= budget {
			return &CycleLimitError{Limit: budget}
		}
		e.step()
	}
	return nil
}

// fault removes lane li from the run with err. A width-1 run cannot
// diverge, so its lane keeps the fault itself; a wider gang records a
// *DeoptError and the caller replays the lane at width 1.
func (e *Engine) fault(li int, reason string, pc uint32, err error) {
	if e.n == 1 {
		e.laneErr[li] = err
		return
	}
	e.laneErr[li] = &DeoptError{Reason: reason, PC: pc, Cause: err}
}

// meterSkip/meterQuiet/meterFull select how much inline energy work a
// cycle does.
const (
	meterSkip = iota
	meterQuiet
	meterFull
)

// step advances the pipeline one clock cycle and is the only code that
// commits pipeline latches. Shared control is decided first (WB retire, MEM
// and EX latch advance, the ID stall and halt-drain decision, IF fetch),
// and committed, then each live lane's data path runs in stage order WB,
// MEM, EX, ID, then a width-1 run's stage events fire, then the control
// redirect. A cycle in which every lane faults is rolled back to its start
// apart from the WB retire, so a width-1 run that faults leaves exactly the
// state the stages before the fault produced.
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
	if oldMEMWB != bubble {
		wbU = &e.uops[oldMEMWB]
	}
	if oldEXMEM != bubble {
		memU = &e.uops[oldEXMEM]
	}
	if oldIDEX != bubble {
		exU = &e.uops[oldIDEX]
	}
	if oldIFID != bubble {
		idU = &e.uops[oldIFID]
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

	newMEMWB, newEXMEM := oldEXMEM, oldIDEX

	// ID: stall geometry and the halt-drain decision, which must land before
	// IF runs this same cycle.
	stall := false
	issued := false
	draining := e.draining
	newIDEX := bubble
	if idU != nil {
		if exU != nil && loadUseHazard(exU, idU) {
			stall = true
		} else {
			issued = true
			newIDEX = oldIFID
			if idU.Class == isa.ClassHalt {
				draining = true
			}
		}
	}

	// IF: fetch decision and PC advance. A fetch outside text may be a
	// wrong-path fetch past a not-yet-resolved jump; it faults only if the
	// pipeline drains with no redirect (checked after the lane loop).
	newIFID := oldIFID
	fetchFault := false
	fetched := false
	pc := e.pc
	var fetchWord uint32
	if !stall {
		newIFID = bubble
		if !draining {
			idx := (pc - e.prog.TextBase) / 4
			if pc < e.prog.TextBase || int(idx) >= len(e.uops) || pc%4 != 0 {
				fetchFault = true
			} else {
				fetched = true
				fetchWord = e.uops[idx].Word
				newIFID = latch(idx)
				pc += 4
			}
		}
	}

	memAccess := memU != nil && (memU.Load || memU.Store)

	// Inline metering: the shared control charges, and the meter's control
	// flags, which every lane shares; each lane fills in its data values.
	ev := &e.ev
	uniform := false
	if mode != meterSkip {
		uniform = e.meterShared(mode, wbU, memU, exU, idU, memAccess, issued, fetched, fetchWord)
	}

	// Stage observers watch single-lane runs only. Their events are fired
	// after the lane loop, from the values the lane left in e.ev and its
	// latches, so the loop pays nothing for them.
	observed := e.n == 1 && len(e.probes) > 0

	// Commit the shared decisions before the lanes run, so the lane loop
	// carries no control state. A cycle in which every lane faults puts them
	// back.
	oldPC, oldDraining := e.pc, e.draining
	e.ifid, e.idex, e.exmem, e.memwb = newIFID, newIDEX, newEXMEM, newMEMWB
	e.pc, e.draining = pc, draining

	// ---- per-lane data paths ----------------------------------------------
	redirect := false
	var redirectPC uint32
	haveRef := false
	var refTaken bool
	var refTarget uint32

	live := e.live
	dropped := false
	reached := completed // how far a faulting lane got (width 1)
	for k, li := range live {
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

		// MEM: loads and stores against the lane's private memory.
		if memU != nil {
			value := oldEXOut
			var err error
			switch {
			case memU.Load:
				value, err = ln.Mem.LoadWord(oldEXOut)
				ev.MemAddr, ev.MemData = oldEXOut, value
			case memU.Store:
				err = ln.Mem.StoreWord(oldEXOut, oldEXStore)
				ev.MemAddr, ev.MemData = oldEXOut, oldEXStore
			}
			if err != nil {
				e.fault(li, "memory fault", memU.PC, fmt.Errorf("cpu: pc %#x: %w", memU.PC, err))
				live[k], dropped, reached = -1, true, faultMEM
				continue
			}
			ln.WBVal = value
		}

		// EX: forwarding and execution. The first lane surviving to EX is
		// the gang reference; lanes whose control outcome differs from it
		// are peeled.
		if exU != nil {
			a, b := forwardOperands(exU, oldIDA, oldIDB, memU, oldEXOut, wbU, oldWBVal)
			res, target, taken, err := ExecUOp(exU, a, b)
			if err != nil {
				e.fault(li, "exec fault", exU.PC, err)
				live[k], dropped, reached = -1, true, faultEX
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
				live[k], dropped = -1, true
				continue
			}
			ev.A, ev.B, ev.R = a, b, res
			ln.EXOut, ln.EXStore = res, b
		}

		// ID: register reads, after this cycle's WB write.
		if issued {
			a := ln.Regs[idU.SrcA]
			b := idU.BConst
			if idU.BReg {
				b = ln.Regs[idU.SrcB]
			}
			ln.IDA, ln.IDB = a, b
		}

		if mode != meterSkip {
			e.meterLane(li, mode, uniform, cycle, exU)
		}
	}
	if observed {
		e.fireStages(reached, cycle, wbU, memU, exU, idU, memAccess, issued, fetched, oldPC, fetchWord, refTaken, refTarget)
	}
	if dropped {
		keep := live[:0]
		for _, li := range live {
			if li >= 0 {
				keep = append(keep, li)
			}
		}
		e.live = keep
		if len(keep) == 0 {
			// Every lane faulted: the cycle does not commit.
			e.ifid, e.idex, e.exmem, e.memwb = oldIFID, oldIDEX, oldEXMEM, oldMEMWB
			e.pc, e.draining = oldPC, oldDraining
			return
		}
	}
	if stall {
		e.stats.Stalls++
	}

	// ---- control redirect --------------------------------------------------
	if redirect {
		// Squash the two younger instructions (in ID and IF this cycle).
		if e.idex != bubble {
			e.stats.Flushes++
		}
		if e.ifid != bubble {
			e.stats.Flushes++
		}
		e.idex, e.ifid = bubble, bubble
		e.pc = redirectPC
		e.draining = false // a jump may legitimately leave a halt shadow
	}

	// A fetch fault is fatal only once the pipeline has drained with no
	// redirect possible — a shared-control condition, so every live lane
	// leaves the run and the cycle does not commit.
	if fetchFault && !redirect && !e.draining &&
		e.ifid == bubble && e.idex == bubble && e.exmem == bubble && e.memwb == bubble {
		err := fmt.Errorf("cpu: instruction fetch outside text segment at pc %#x", e.pc)
		for _, li := range e.live {
			e.fault(li, "fetch fault", e.pc, err)
		}
		e.live = e.live[:0]
		e.ifid, e.idex, e.exmem, e.memwb = oldIFID, oldIDEX, oldEXMEM, oldMEMWB
		e.pc, e.draining = oldPC, oldDraining
		return
	}

	e.stats.Cycles++
	if observed {
		info := CycleInfo{Cycle: cycle, U: exU}
		for _, p := range e.probes {
			p.OnCycle(info)
		}
	}
}

// meterShared opens an inline-metered cycle: the shared control charges, in
// stage order so every component accumulates exactly as the energy.Probe's
// event metering does (RegWrite in WB before RegRead in ID, the fetch rail
// last), and the meter's control flags, which every lane shares. It reports
// whether the cycle is uniform: every active event secure under dual-rail
// precharge, so it meters identically on every lane (energy is
// data-independent — the masking property itself) and the first metered
// lane's result is copied to the rest.
func (e *Engine) meterShared(mode int, wbU, memU, exU, idU *isa.UOp, memAccess, issued, fetched bool, fetchWord uint32) bool {
	m := e.meter
	e.firstMetered = -1
	if mode == meterQuiet {
		if fetched {
			m.FetchQuiet(fetchWord)
		}
	} else {
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
	}
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
	return mode == meterFull && m.UniformLockstep(ev)
}

// meterLane meters lane li's cycle inline from e.ev, whose data fields hold
// the lane's values, and records the total into the lane's trace or sample
// buffer. A quiet cycle only advances the rails.
func (e *Engine) meterLane(li, mode int, uniform bool, cycle uint64, exU *isa.UOp) {
	ev := &e.ev
	if mode == meterQuiet {
		e.meter.LaneCycleQuiet(li, ev)
		return
	}
	var total float64
	if uniform && e.firstMetered >= 0 {
		total = e.meter.CopyLaneCycle(e.firstMetered, li, ev)
	} else {
		total = e.meter.LaneCycle(li, ev)
		e.firstMetered = li
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
}

// How far the lane of a width-1 run got in a cycle: fireStages fires the
// events of the stages before a fault.
const (
	faultMEM = iota
	faultEX
	completed
)

// fireStages fires a width-1 cycle's stage events in stage order WB, MEM,
// EX, ID, IF, from the values lane 0 left in e.ev and its latches: the
// events of every stage, or of those before the stage that faulted.
func (e *Engine) fireStages(reached int, cycle uint64, wbU, memU, exU, idU *isa.UOp, memAccess, issued, fetched bool, fetchPC, fetchWord uint32, taken bool, target uint32) {
	ev, ln := &e.ev, &e.lanes[0]
	if wbU != nil {
		for _, o := range e.wbObs {
			o.OnWriteback(WritebackEvent{Cycle: cycle, U: wbU, Value: ev.WBVal})
		}
	}
	if reached == faultMEM {
		return
	}
	if memAccess {
		for _, o := range e.memObs {
			o.OnMem(MemEvent{Cycle: cycle, U: memU, Addr: ev.MemAddr, Data: ev.MemData})
		}
	}
	if reached == faultEX {
		return
	}
	if exU != nil {
		for _, o := range e.execObs {
			o.OnExec(ExecEvent{Cycle: cycle, U: exU, A: ev.A, B: ev.B, Result: ev.R, Taken: taken, Target: target})
		}
	}
	if issued {
		for _, o := range e.issueObs {
			o.OnIssue(IssueEvent{Cycle: cycle, U: idU, A: ln.IDA, B: ln.IDB})
		}
	}
	if fetched {
		for _, o := range e.fetchObs {
			o.OnFetch(FetchEvent{Cycle: cycle, PC: fetchPC, Word: fetchWord})
		}
	}
}
