// Package cpu implements the cycle-accurate simulator of the five-stage
// pipelined smart-card processor the paper targets: in-order IF/ID/EX/MEM/WB,
// full ALU forwarding, a one-cycle load-use stall, branches resolved in EX
// with a two-cycle flush, and the secure-instruction extension that runs the
// marked instruction on the precharged dual-rail datapath.
//
// One function, Engine.step, encodes that timing. The Engine steps N
// instances ("lanes") of one program in lockstep: fetch, decode, stall and
// flush geometry, PC sequencing and latch occupancy are computed once per
// cycle and shared, while each lane's data path (registers, memory, latch
// data, energy rails) is its own. Width 1 is the scalar core: CPU is an
// Engine at width 1, and a single lane cannot diverge, so it reports exact
// faults. Wider gangs serve the statistics workloads (TVLA, DPA), which run
// one program thousands of times with only the data varying; a lane whose
// branch outcome diverges from the gang's, or that faults, is peeled off
// with a *DeoptError and replayed by the caller as a width-1 run.
//
// The program is predecoded once at construction into a dense micro-op table
// (isa.UOp), so the steady-state loop is pure table dispatch: no instruction
// decoding, no format switches, and no allocation. Energy is metered in one
// of two ways, with one rail model (energy.VecMeter) and bit-identical
// results: inline per lane, into sample windows or full traces, or by an
// energy.Probe attached as a stage observer. Observers — energy metering,
// trace recording, leak checking — receive per-stage events and a per-cycle
// commit callback in width-1 runs only, and must not perturb architectural
// state.
package cpu

import (
	"errors"
	"fmt"

	"desmask/internal/asm"
	"desmask/internal/energy"
	"desmask/internal/isa"
	"desmask/internal/mem"
)

// Stats summarises a finished run: control counts only, identical for every
// lane of a gang. Energy totals live with the energy probe (energy.Probe) or
// the engine's inline samples and traces.
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

// CPU is one simulated core: the pipeline Engine at width 1, plus the
// stage observers attached with Attach. Create with New.
type CPU struct {
	e *Engine
}

// New builds a CPU with the program loaded: the text segment is predecoded
// into the micro-op table, the data image is copied into memory, and the
// stack pointer is initialised to the top of a 4 KiB stack above the data
// segment.
func New(p *asm.Program, m *mem.Memory) (*CPU, error) {
	e, err := newEngine(p, energy.Config{}, 1)
	if err != nil {
		return nil, err
	}
	ln := &e.lanes[0]
	ln.Mem = m
	if err := ln.Init(p); err != nil {
		return nil, err
	}
	e.start(1)
	return &CPU{e: e}, nil
}

// Reset returns the core to its post-New state so it can run another job
// without reallocating: memory is cleared and the data image reloaded, and
// architectural registers, pipeline latches and statistics are zeroed. The
// micro-op table and attached probes are retained; reset probe state
// separately. A reset core is bit-identical to a fresh one.
func (c *CPU) Reset() error { return c.e.Reset(1) }

// Reg returns the current architectural value of r.
func (c *CPU) Reg(r isa.Reg) uint32 { return c.e.lanes[0].Regs[r] }

// SetReg sets an architectural register (test and loader use).
func (c *CPU) SetReg(r isa.Reg, v uint32) {
	if r != isa.Zero {
		c.e.lanes[0].Regs[r] = v
	}
}

// PC returns the current fetch PC.
func (c *CPU) PC() uint32 { return c.e.pc }

// Halted reports whether a halt instruction has retired.
func (c *CPU) Halted() bool { return c.e.halted }

// Stats returns the accumulated run statistics.
func (c *CPU) Stats() Stats { return c.e.stats }

// Mem returns the data memory.
func (c *CPU) Mem() *mem.Memory { return c.e.lanes[0].Mem }

// UOps exposes the predecoded micro-op table (read-only; probe inspection).
func (c *CPU) UOps() []isa.UOp { return c.e.uops }

// Run simulates until halt or maxCycles. It returns a *CycleLimitError
// (matching ErrCycleLimit) when the budget expires first, and the fault
// when the program faults.
func (c *CPU) Run(maxCycles uint64) error { return c.e.Run(maxCycles) }

// Step advances the pipeline by one clock cycle.
func (c *CPU) Step() error {
	e := c.e
	if e.halted {
		return errors.New("cpu: stepping a halted core")
	}
	if len(e.live) == 0 {
		return e.laneErr[0]
	}
	e.step()
	return e.laneErr[0]
}

// ExecUOp computes the EX-stage result of one micro-op: the ALU output (or
// memory address), plus branch/jump resolution. It is shared by the pipeline
// Engine and the RefModel golden model, so that co-simulation isolates
// pipeline-control bugs.
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
