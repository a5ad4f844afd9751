// Package cpu implements the cycle-accurate simulator of the five-stage
// pipelined smart-card processor the paper targets: in-order IF/ID/EX/MEM/WB,
// full ALU forwarding, a one-cycle load-use stall, branches resolved in EX
// with a two-cycle flush, and the secure-instruction extension that runs the
// marked instruction on the precharged dual-rail datapath.
//
// The program is predecoded once at construction into a dense micro-op table
// (isa.UOp), so the steady-state Step loop is pure table dispatch: no
// instruction decoding, no format switches, and no allocation. Observation —
// energy metering, trace recording, leak checking — is external: probes
// attached with Attach receive per-stage events and a per-cycle commit
// callback, and must not perturb architectural state.
package cpu

import (
	"errors"
	"fmt"

	"desmask/internal/asm"
	"desmask/internal/isa"
	"desmask/internal/mem"
)

// Stats summarises a finished run. Energy totals live with the energy probe
// (energy.Probe), not here: the core has no notion of energy.
type Stats struct {
	Cycles     uint64
	Insts      uint64 // instructions retired
	SecureInst uint64 // retired instructions that ran dual-rail
	Stalls     uint64 // load-use stall cycles
	Flushes    uint64 // instructions squashed by taken branches/jumps
}

// ErrCycleLimit is the sentinel matched by errors.Is when Run exhausts its
// cycle budget before the program halts. The concrete error is a
// *CycleLimitError carrying the budget.
var ErrCycleLimit = errors.New("cpu: cycle limit reached before halt")

// CycleLimitError reports that Run hit its cycle budget before halting. It is
// distinguishable from program faults (fetch/memory errors, misaligned jumps):
// errors.Is(err, ErrCycleLimit) matches only budget expiry.
type CycleLimitError struct {
	Limit uint64
}

// Error implements error.
func (e *CycleLimitError) Error() string {
	return fmt.Sprintf("cpu: cycle limit of %d reached before halt", e.Limit)
}

// Is reports that a CycleLimitError matches the ErrCycleLimit sentinel.
func (e *CycleLimitError) Is(target error) bool { return target == ErrCycleLimit }

// CPU is one simulated core. Create with New.
type CPU struct {
	prog *asm.Program
	uops []isa.UOp // predecoded text, index = (pc-TextBase)/4

	probes   []Probe
	fetchObs []FetchObserver
	issueObs []IssueObserver
	execObs  []ExecObserver
	memObs   []MemObserver
	wbObs    []WritebackObserver

	lane Lane // per-instance architectural state (registers, memory, latch data)
	pc   uint32

	ifid  latch
	idex  latch
	exmem latch
	memwb latch

	draining bool // halt decoded; stop fetching
	halted   bool
	stats    Stats
}

// latch is the control half of a pipeline latch: occupancy plus an index
// into the micro-op table. The data values the latch carries live in the
// Lane (see lane.go); everything static about the instruction is read from
// the table. The split is what lets the gang engine share one set of control
// latches across N lockstepped lanes.
type latch struct {
	valid bool
	idx   int32
}

// New builds a CPU with the program loaded: the text segment is predecoded
// into the micro-op table, the data image is copied into memory, and the
// stack pointer is initialised to the top of a 4 KiB stack above the data
// segment.
func New(p *asm.Program, m *mem.Memory) (*CPU, error) {
	if len(p.Text) == 0 {
		return nil, errors.New("cpu: empty program")
	}
	target := p.TargetOrDefault()
	// The pipelined core implements exactly the five-stage geometry; a target
	// declaring anything else must not run here, or its declared spec and the
	// simulated timing would silently disagree.
	if spec := target.Pipeline(); spec != isa.FiveStage {
		return nil, fmt.Errorf("cpu: target %s declares pipeline %+v, but this core implements only the five-stage geometry %+v",
			target.Name(), spec, isa.FiveStage)
	}
	uops, err := isa.PredecodeProgramFor(target, p.Text, p.TextBase)
	if err != nil {
		return nil, fmt.Errorf("cpu: %w", err)
	}
	c := &CPU{prog: p, uops: uops, lane: Lane{Mem: m}, pc: p.Entry}
	if err := c.lane.Init(p); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset returns the core to its post-New state so it can run another job
// without reallocating: memory is cleared and the data image reloaded, and
// architectural registers, pipeline latches and statistics are zeroed. The
// micro-op table and attached probes are retained; reset probe state
// separately. A reset core is bit-identical to a fresh one.
func (c *CPU) Reset() error {
	if err := c.lane.Reset(c.prog); err != nil {
		return err
	}
	c.pc = c.prog.Entry
	c.ifid, c.idex, c.exmem, c.memwb = latch{}, latch{}, latch{}, latch{}
	c.draining, c.halted = false, false
	c.stats = Stats{}
	return nil
}

// Reg returns the current architectural value of r.
func (c *CPU) Reg(r isa.Reg) uint32 { return c.lane.Regs[r] }

// SetReg sets an architectural register (test and loader use).
func (c *CPU) SetReg(r isa.Reg, v uint32) {
	if r != isa.Zero {
		c.lane.Regs[r] = v
	}
}

// PC returns the current fetch PC.
func (c *CPU) PC() uint32 { return c.pc }

// Halted reports whether a halt instruction has retired.
func (c *CPU) Halted() bool { return c.halted }

// Stats returns the accumulated run statistics.
func (c *CPU) Stats() Stats { return c.stats }

// Mem returns the data memory.
func (c *CPU) Mem() *mem.Memory { return c.lane.Mem }

// UOps exposes the predecoded micro-op table (read-only; probe inspection).
func (c *CPU) UOps() []isa.UOp { return c.uops }

// Run simulates until halt or maxCycles. It returns a *CycleLimitError
// (matching ErrCycleLimit) when the budget expires first.
func (c *CPU) Run(maxCycles uint64) error {
	for !c.halted {
		if c.stats.Cycles >= maxCycles {
			return &CycleLimitError{Limit: maxCycles}
		}
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Step advances the pipeline by one clock cycle.
func (c *CPU) Step() error {
	if c.halted {
		return errors.New("cpu: stepping a halted core")
	}
	cycle := c.stats.Cycles

	// Snapshot the control latches and the lane's latch data: all stages
	// observe start-of-cycle state.
	oldIFID, oldIDEX, oldEXMEM, oldMEMWB := c.ifid, c.idex, c.exmem, c.memwb
	ln := &c.lane
	oldIDA, oldIDB := ln.IDA, ln.IDB
	oldEXOut, oldEXStore := ln.EXOut, ln.EXStore
	oldWBVal := ln.WBVal

	var execU *isa.UOp // EX occupant this cycle, nil for a bubble

	// ---- WB ------------------------------------------------------------
	if oldMEMWB.valid {
		u := &c.uops[oldMEMWB.idx]
		for _, o := range c.wbObs {
			o.OnWriteback(WritebackEvent{Cycle: cycle, U: u, Value: oldWBVal})
		}
		if u.Dest != isa.Zero {
			ln.Regs[u.Dest] = oldWBVal
		}
		c.stats.Insts++
		if u.Secure {
			c.stats.SecureInst++
		}
		if u.Class == isa.ClassHalt {
			c.halted = true
		}
	}

	// ---- MEM -----------------------------------------------------------
	newMEMWB := latch{}
	if oldEXMEM.valid {
		u := &c.uops[oldEXMEM.idx]
		value := oldEXOut
		switch {
		case u.Load:
			v, err := ln.Mem.LoadWord(oldEXOut)
			if err != nil {
				return fmt.Errorf("cpu: pc %#x: %w", u.PC, err)
			}
			value = v
			for _, o := range c.memObs {
				o.OnMem(MemEvent{Cycle: cycle, U: u, Addr: oldEXOut, Data: v})
			}
		case u.Store:
			if err := ln.Mem.StoreWord(oldEXOut, oldEXStore); err != nil {
				return fmt.Errorf("cpu: pc %#x: %w", u.PC, err)
			}
			for _, o := range c.memObs {
				o.OnMem(MemEvent{Cycle: cycle, U: u, Addr: oldEXOut, Data: oldEXStore})
			}
		}
		ln.WBVal = value
		newMEMWB = latch{valid: true, idx: oldEXMEM.idx}
	}

	// ---- EX ------------------------------------------------------------
	newEXMEM := latch{}
	redirect := false
	var redirectPC uint32
	if oldIDEX.valid {
		u := &c.uops[oldIDEX.idx]
		var exmU, mwbU *isa.UOp
		if oldEXMEM.valid {
			exmU = &c.uops[oldEXMEM.idx]
		}
		if oldMEMWB.valid {
			mwbU = &c.uops[oldMEMWB.idx]
		}
		a, b := ForwardOperands(u, oldIDA, oldIDB, exmU, oldEXOut, mwbU, oldWBVal)
		execU = u

		res, target, taken, err := ExecUOp(u, a, b)
		if err != nil {
			return err
		}
		for _, o := range c.execObs {
			o.OnExec(ExecEvent{Cycle: cycle, U: u, A: a, B: b, Result: res, Taken: taken, Target: target})
		}

		ln.EXOut, ln.EXStore = res, b
		newEXMEM = latch{valid: true, idx: oldIDEX.idx}
		if taken {
			redirect, redirectPC = true, target
		}
	}

	// ---- ID ------------------------------------------------------------
	newIDEX := latch{}
	stall := false
	if oldIFID.valid {
		u := &c.uops[oldIFID.idx]
		// Load-use hazard: the load's value is only available after MEM.
		if oldIDEX.valid && LoadUseHazard(&c.uops[oldIDEX.idx], u) {
			stall = true
		}
		if !stall {
			a := ln.Regs[u.SrcA]
			b := u.BConst
			if u.BReg {
				b = ln.Regs[u.SrcB]
			}
			for _, o := range c.issueObs {
				o.OnIssue(IssueEvent{Cycle: cycle, U: u, A: a, B: b})
			}
			ln.IDA, ln.IDB = a, b
			newIDEX = latch{valid: true, idx: oldIFID.idx}
			if u.Class == isa.ClassHalt {
				c.draining = true
			}
		} else {
			c.stats.Stalls++
		}
	}

	// ---- IF ------------------------------------------------------------
	newIFID := oldIFID
	fetchFault := false
	if stall {
		// Freeze IF/ID and PC; bubble already inserted into EX.
	} else {
		newIFID = latch{}
		if !c.draining {
			idx := (c.pc - c.prog.TextBase) / 4
			if c.pc < c.prog.TextBase || int(idx) >= len(c.uops) || c.pc%4 != 0 {
				// Fetch may legitimately run past a not-yet-resolved jump
				// (wrong-path fetch); stall the fetch unit and fault only if
				// no redirect ever arrives (checked below once the pipeline
				// drains).
				fetchFault = true
			} else {
				for _, o := range c.fetchObs {
					o.OnFetch(FetchEvent{Cycle: cycle, PC: c.pc, Word: c.uops[idx].Word})
				}
				newIFID = latch{valid: true, idx: int32(idx)}
				c.pc += 4
			}
		}
	}

	// ---- control redirect ----------------------------------------------
	if redirect {
		// Squash the two younger instructions (in ID and IF this cycle).
		if newIDEX.valid {
			c.stats.Flushes++
		}
		if newIFID.valid {
			c.stats.Flushes++
		}
		newIDEX = latch{}
		newIFID = latch{}
		c.pc = redirectPC
		c.draining = false // a jump may legitimately leave a halt shadow
	}

	// A fetch fault is fatal only once the pipeline has drained without any
	// in-flight instruction that could still redirect control flow.
	if fetchFault && !redirect && !c.draining &&
		!newIFID.valid && !newIDEX.valid && !newEXMEM.valid && !newMEMWB.valid {
		return fmt.Errorf("cpu: instruction fetch outside text segment at pc %#x", c.pc)
	}

	// ---- commit latches --------------------------------------------------
	c.ifid, c.idex, c.exmem, c.memwb = newIFID, newIDEX, newEXMEM, newMEMWB

	c.stats.Cycles++
	info := CycleInfo{Cycle: cycle, U: execU}
	for _, p := range c.probes {
		p.OnCycle(info)
	}
	return nil
}

// ExecUOp computes the EX-stage result of one micro-op: the ALU output (or
// memory address), plus branch/jump resolution. It is shared by the pipelined
// CPU, the RefModel golden model and the gang engine (internal/gang), so that
// co-simulation isolates pipeline-control bugs and lockstep execution can
// never drift from the cycle-accurate EX semantics.
func ExecUOp(u *isa.UOp, a, b uint32) (res, target uint32, taken bool, err error) {
	switch u.Class {
	case isa.ClassAdd:
		res = a + b
	case isa.ClassSub:
		res = a - b
	case isa.ClassAnd:
		res = a & b
	case isa.ClassOr:
		res = a | b
	case isa.ClassXor:
		res = a ^ b
	case isa.ClassNor:
		res = ^(a | b)
	case isa.ClassSll:
		// ID places the shifted value in a and the count (immediate or rt)
		// in b for both fixed and variable shifts.
		res = a << (b & 31)
	case isa.ClassSrl:
		res = a >> (b & 31)
	case isa.ClassSra:
		res = uint32(int32(a) >> (b & 31))
	case isa.ClassSlt:
		if int32(a) < int32(b) {
			res = 1
		}
	case isa.ClassSltu:
		if a < b {
			res = 1
		}
	case isa.ClassMul:
		res = a * b
	case isa.ClassLui:
		res = b << 15
	case isa.ClassLui12:
		res = b << 12
	case isa.ClassMem:
		res = a + u.Off // address; b carries the store value
	case isa.ClassBeq:
		res = a - b
		if a == b {
			target, taken = u.Target, true
		}
	case isa.ClassBne:
		res = a - b
		if a != b {
			target, taken = u.Target, true
		}
	case isa.ClassBlez:
		if int32(a) <= 0 {
			target, taken = u.Target, true
		}
	case isa.ClassBgtz:
		if int32(a) > 0 {
			target, taken = u.Target, true
		}
	case isa.ClassJ:
		target, taken = u.Target, true
	case isa.ClassJal:
		res = u.PC + 4
		target, taken = u.Target, true
	case isa.ClassJr:
		target, taken = a, true
		if target%4 != 0 {
			return 0, 0, false, fmt.Errorf("cpu: jr to misaligned address %#x at pc %#x", target, u.PC)
		}
	case isa.ClassHalt:
		// no datapath effect
	default:
		return 0, 0, false, fmt.Errorf("cpu: unimplemented exec class %v at pc %#x", u.Class, u.PC)
	}
	return res, target, taken, nil
}
