package isa

import (
	"fmt"
	"sort"
	"strings"
)

// Limits describes the immediate reach and pseudo-op shape of one target's
// binary encoding. The compiler consults these bounds when folding constants
// and choosing addressing sequences, so a pass never produces an instruction
// the target cannot encode.
type Limits struct {
	// SImmMin and SImmMax bound the signed I-type immediate (addiu, slti,
	// load/store displacements, and — on targets that sign-extend their
	// logical immediates — andi/ori/xori).
	SImmMin int32
	SImmMax int32
	// UImmMax bounds the immediates of andi/ori/xori under the portable
	// zero-extension reading: for any value in [0, UImmMax] the target's
	// native extension rule and zero-extension agree, so the compiler may
	// fold logical immediates in that range on every target.
	UImmMax int32
	// LuiShift is the left shift lui applies to its immediate
	// (15 on PISA, 12 on RV32).
	LuiShift uint
	// NorNative reports whether nor encodes as a single instruction.
	// Targets without a native nor legalize it via Target.Nor.
	NorNative bool
}

// Target is one instruction-set backend: the binary encoding, the micro-op
// predecoder, the register-file naming, the pseudo-instruction expansion
// rules, and the per-op energy coefficients of one concrete core.
//
// All targets share the architectural instruction type Inst — Inst is the
// semantic layer (MIPS-flavoured opcodes, 32×32-bit register file, the
// per-instruction secure bit) and a Target maps it onto one machine-level
// encoding. The contract every backend must honour is written out in
// DESIGN.md §12; the load-bearing clauses are:
//
//   - Predecode must preserve operand routing: UOp.SrcA/SrcB/BConst/Dest and
//     the Secure, Load, Store and XorUnit flags are functions of the Inst
//     alone, identical across targets. Only UOp.Word (the fetched encoding)
//     and UOp.Class (the EX dispatch, e.g. the lui shift amount) may differ.
//     This is what makes the shadow-taint checker and the probe event stream
//     ISA-independent.
//   - Every securable opcode must have a secure encoding. A policy that
//     masks an instruction on one target must be expressible on all targets,
//     or TVLA verdicts could not be compared across cores.
//   - Expansion sequences (LoadImm, LoadAddr, MemDirect, Nor) must propagate
//     the caller's secure bit to every data-carrying instruction they emit.
//     MemDirect's address-forming lui is the one deliberate exception: plain
//     data addresses are public, and secret-derived addressing never goes
//     through MemDirect (the compiler uses register-indirect accesses with
//     offset 0, encodable on every target).
type Target interface {
	// Name is the registry key, e.g. "pisa" or "rv32".
	Name() string
	// Limits returns the encoding bounds the compiler must respect.
	Limits() Limits
	// RegName returns the target's spelling of architectural register r
	// (for listings; the architectural name remains Reg.String).
	RegName(r Reg) string

	// Encode packs an instruction at address pc into its 32-bit binary
	// form. pc matters on targets with PC-relative control-flow encodings;
	// Inst.Imm always carries the PISA-style semantic value (branch = word
	// displacement from pc+4, FmtJ = absolute word target).
	Encode(in Inst, pc uint32) (uint32, error)
	// Decode unpacks a binary word fetched from address pc.
	Decode(word, pc uint32) (Inst, error)
	// Predecode resolves an instruction into its micro-op form, with
	// UOp.Word holding this target's encoding.
	Predecode(in Inst, pc uint32) (UOp, error)

	// LoadImm returns the instruction sequence materialising constant v
	// into rt. Every step carries the secure bit.
	LoadImm(rt Reg, v int32, secure bool) []Inst
	// LoadAddr returns the sequence materialising the (link-time constant)
	// address addr into rt. Every step carries the secure bit.
	LoadAddr(rt Reg, addr uint32, secure bool) []Inst
	// MemDirect returns the sequence for a direct-address load/store of rt
	// at addr (op is OpLw or OpSw), clobbering $at for address formation.
	// The address-forming instruction stays insecure (see contract above);
	// the access itself carries the secure bit.
	MemDirect(op Opcode, rt Reg, addr uint32, secure bool) []Inst
	// Nor returns the sequence computing rd = ^(ra|rb): one instruction on
	// targets with a native nor, a legalized pair elsewhere. Every step
	// carries the secure bit.
	Nor(rd, ra, rb Reg, secure bool) []Inst

	// ALUOpScale returns the per-ExecClass scale applied to the base ALU
	// energy (Params.AluOpPJ) on this target. The scale modulates only the
	// data-independent base cost — operand-dependent toggle energy is
	// shared — so differing coefficients cannot flip a TVLA verdict.
	ALUOpScale() [NumExecClasses]float64

	// Pipeline returns the geometry of this target's core: branch
	// resolution stage, load-use latency, flush depth, fill/drain
	// latencies. The cycle-accurate core and the gang engine check at
	// construction that it is the five-stage geometry they implement, and
	// reject the program otherwise.
	Pipeline() PipelineSpec
}

// targets is the backend registry, keyed by lower-case name.
var targetRegistry = map[string]Target{}

func registerTarget(t Target) {
	targetRegistry[strings.ToLower(t.Name())] = t
}

// TargetByName resolves a target by its registry name (case-insensitive).
func TargetByName(name string) (Target, bool) {
	t, ok := targetRegistry[strings.ToLower(name)]
	return t, ok
}

// Targets returns the registered target names, sorted.
func Targets() []string {
	names := make([]string, 0, len(targetRegistry))
	for n := range targetRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TargetUsage renders the registered target names for flag help text, e.g.
// "pisa|rv32".
func TargetUsage() string { return strings.Join(Targets(), "|") }

// PredecodeProgramFor predecodes a text segment based at textBase into a
// dense micro-op table for the given target, index = (pc - textBase) / 4.
func PredecodeProgramFor(t Target, text []Inst, textBase uint32) ([]UOp, error) {
	if t == nil {
		t = PISA
	}
	uops := make([]UOp, len(text))
	for i, in := range text {
		u, err := t.Predecode(in, textBase+uint32(4*i))
		if err != nil {
			return nil, fmt.Errorf("isa: text word %d: %w", i, err)
		}
		uops[i] = u
	}
	return uops, nil
}
