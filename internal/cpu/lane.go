package cpu

import (
	"desmask/internal/asm"
	"desmask/internal/isa"
	"desmask/internal/mem"
)

// Lane is the per-instance architectural half of the split core: the
// register file, the data memory, and the data values flowing through the
// pipeline latches. Everything in a Lane differs from run to run with the
// input data; everything outside it — the predecoded micro-op table, PC
// sequencing, latch valid/occupant control, stall and flush decisions — is
// data-independent for a fixed program path and therefore shareable across
// instances executing in lockstep.
//
// The Engine steps N of them through a single shared control computation
// per cycle; the CPU is an Engine with one.
type Lane struct {
	// Regs is the architectural register file.
	Regs [isa.NumRegs]uint32
	// Mem is the data memory.
	Mem *mem.Memory

	// Data halves of the pipeline latches. The control halves (which latch
	// is valid and which micro-op it holds) live with the owner, because
	// they are identical across lockstepped lanes.
	IDA, IDB uint32 // ID/EX operands as read in ID (pre-forwarding)
	EXOut    uint32 // EX/MEM ALU result (or memory address)
	EXStore  uint32 // EX/MEM store value
	WBVal    uint32 // MEM/WB value headed to the register file
}

// Init loads the program's data image and initialises the registers exactly
// as a fresh core does: SP at the top of a 4 KiB stack above the data
// segment, GP at the data base.
func (l *Lane) Init(p *asm.Program) error {
	if err := l.Mem.LoadImage(p.DataBase, p.Data); err != nil {
		return err
	}
	l.Regs[isa.SP] = p.DataEnd() + 4096
	l.Regs[isa.GP] = p.DataBase
	return nil
}

// Reset returns the lane to its power-on state for the program: memory
// cleared and the data image reloaded, registers and latch data zeroed, then
// Init applied. A reset lane is bit-identical to a fresh one.
func (l *Lane) Reset(p *asm.Program) error {
	l.Mem.Reset()
	l.Regs = [isa.NumRegs]uint32{}
	l.IDA, l.IDB, l.EXOut, l.EXStore, l.WBVal = 0, 0, 0, 0, 0
	return l.Init(p)
}

// loadUseHazard reports whether the EX-stage occupant eu forces the ID-stage
// occupant u to stall one cycle: eu is a load whose destination feeds one of
// u's register operands, and the loaded value is only available after MEM.
func loadUseHazard(eu, u *isa.UOp) bool {
	return eu.Load && eu.Dest != isa.Zero &&
		(eu.Dest == u.SrcA || (u.BReg && eu.Dest == u.SrcB))
}

// forwardOperands resolves the EX-stage operand values of u against the
// EX/MEM occupant (exm, producing exmOut) and the MEM/WB occupant (mwb,
// producing mwbVal); a nil occupant is a bubble. MEM/WB forwards first so
// the younger EX/MEM result can override it; EX/MEM never forwards a load
// (load-use pairs are separated by the ID stall). Predecoded operand routing
// makes this uniform: A forwards when SrcA is a real register, B only when
// the micro-op reads B from the register file.
func forwardOperands(u *isa.UOp, a, b uint32, exm *isa.UOp, exmOut uint32, mwb *isa.UOp, mwbVal uint32) (uint32, uint32) {
	if mwb != nil {
		if d := mwb.Dest; d != isa.Zero {
			if d == u.SrcA {
				a = mwbVal
			}
			if u.BReg && d == u.SrcB {
				b = mwbVal
			}
		}
	}
	if exm != nil {
		if d := exm.Dest; d != isa.Zero && !exm.Load {
			if d == u.SrcA {
				a = exmOut
			}
			if u.BReg && d == u.SrcB {
				b = exmOut
			}
		}
	}
	return a, b
}
