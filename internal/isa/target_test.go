package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTargetRegistry(t *testing.T) {
	names := Targets()
	if len(names) != 2 || names[0] != "pisa" || names[1] != "rv32" {
		t.Fatalf("Targets() = %v, want [pisa rv32]", names)
	}
	for _, name := range []string{"pisa", "PISA", "rv32", "RV32", "Rv32"} {
		tg, ok := TargetByName(name)
		if !ok {
			t.Errorf("TargetByName(%q) not found", name)
			continue
		}
		if tg.Name() != strings.ToLower(name) {
			t.Errorf("TargetByName(%q).Name() = %q", name, tg.Name())
		}
	}
	if _, ok := TargetByName("mips64"); ok {
		t.Error("TargetByName(mips64) succeeded, want miss")
	}
	usage := TargetUsage()
	if !strings.Contains(usage, "pisa") || !strings.Contains(usage, "rv32") {
		t.Errorf("TargetUsage() = %q, want both backend names", usage)
	}
}

// TestPISATargetMatchesFreeFunctions pins the refactor invariant: the PISA
// backend reached through the Target interface is the pre-existing free
// Encode/Decode/Predecode, bit for bit, at every pc (PISA encodings are
// position-independent).
func TestPISATargetMatchesFreeFunctions(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		in := randomValidInst(r)
		pc := uint32(r.Intn(1<<16)) * 4
		wFree, errFree := Encode(in)
		wTgt, errTgt := PISA.Encode(in, pc)
		if (errFree == nil) != (errTgt == nil) {
			t.Fatalf("Encode(%v): free err=%v target err=%v", in, errFree, errTgt)
		}
		if errFree != nil {
			continue
		}
		if wFree != wTgt {
			t.Fatalf("Encode(%v): free %#08x != target %#08x", in, wFree, wTgt)
		}
		dFree, err1 := Decode(wFree)
		dTgt, err2 := PISA.Decode(wFree, pc)
		if err1 != nil || err2 != nil || dFree != dTgt {
			t.Fatalf("Decode(%#08x): free (%v,%v) != target (%v,%v)", wFree, dFree, err1, dTgt, err2)
		}
		uFree, err1 := Predecode(in, pc)
		uTgt, err2 := PISA.Predecode(in, pc)
		if err1 != nil || err2 != nil || uFree != uTgt {
			t.Fatalf("Predecode(%v): free (%+v,%v) != target (%+v,%v)", in, uFree, err1, uTgt, err2)
		}
	}
}

// TestRV32EncodeDecodeRoundTrip covers every format the RV32 backend
// supports, secure twins included: Decode(Encode(x, pc), pc) == x.
func TestRV32EncodeDecodeRoundTrip(t *testing.T) {
	const pc = 0x1000
	cases := []Inst{
		{Op: OpAddu, Rd: T0, Rs: T1, Rt: T2},
		{Op: OpAddu, Rd: T0, Rs: T1, Rt: T2, Secure: true},
		{Op: OpSubu, Rd: S0, Rs: S1, Rt: A0},
		{Op: OpMul, Rd: V0, Rs: A0, Rt: A1, Secure: true},
		{Op: OpXor, Rd: T8, Rs: K0, Rt: GP, Secure: true},
		{Op: OpSllv, Rd: T3, Rs: T4, Rt: T5},
		{Op: OpSrav, Rd: FP, Rs: RA, Rt: AT},
		{Op: OpSlt, Rd: T0, Rs: T1, Rt: T2},
		{Op: OpSltu, Rd: T0, Rs: T1, Rt: T2},
		{Op: OpSll, Rd: T0, Rt: T1, Imm: 31},
		{Op: OpSrl, Rd: T0, Rt: T1, Imm: 1, Secure: true},
		{Op: OpSra, Rd: T0, Rt: T1, Imm: 12},
		{Op: OpJr, Rs: RA},
		{Op: OpAddiu, Rt: T0, Rs: T1, Imm: -2048},
		{Op: OpAddiu, Rt: T0, Rs: T1, Imm: 2047, Secure: true},
		{Op: OpSlti, Rt: T0, Rs: T1, Imm: -5},
		{Op: OpSltiu, Rt: T0, Rs: T1, Imm: 100},
		{Op: OpXori, Rt: T0, Rs: T0, Imm: -1, Secure: true},
		{Op: OpOri, Rt: T0, Rs: T1, Imm: 0x7ff},
		{Op: OpAndi, Rt: T0, Rs: T1, Imm: 0x155, Secure: true},
		{Op: OpLui, Rt: T0, Imm: 0xfffff},
		{Op: OpLui, Rt: T0, Imm: 1, Secure: true},
		{Op: OpLw, Rt: V0, Rs: SP, Imm: -8},
		{Op: OpLw, Rt: V0, Rs: GP, Imm: 2047, Secure: true},
		{Op: OpSw, Rt: A0, Rs: SP, Imm: -2048},
		{Op: OpSw, Rt: A0, Rs: GP, Imm: 4, Secure: true},
		{Op: OpBeq, Rs: T0, Rt: T1, Imm: 3},
		{Op: OpBne, Rs: T0, Rt: T1, Imm: -1025},
		{Op: OpBeq, Rs: T0, Rt: Zero, Imm: 1022},
		{Op: OpBlez, Rs: V0, Imm: -2},
		{Op: OpBgtz, Rs: V0, Imm: 0},
		{Op: OpJ, Imm: 0x2000 / 4},
		{Op: OpJ, Imm: 0},
		{Op: OpJal, Imm: 0x1f00 / 4},
		{Op: OpHalt},
	}
	for _, in := range cases {
		w, err := RV32.Encode(in, pc)
		if err != nil {
			t.Errorf("RV32.Encode(%v): %v", in, err)
			continue
		}
		out, err := RV32.Decode(w, pc)
		if err != nil {
			t.Errorf("RV32.Decode(%#08x) [%v]: %v", w, in, err)
			continue
		}
		if out != in {
			t.Errorf("roundtrip %v -> %#08x -> %v", in, w, out)
		}
		// Secure twins must land on distinct major opcodes so the memory
		// image itself distinguishes masked instructions.
		if in.Secure {
			plain := in
			plain.Secure = false
			wp, err := RV32.Encode(plain, pc)
			if err != nil {
				t.Errorf("RV32.Encode(%v): %v", plain, err)
				continue
			}
			if wp&0x7f == w&0x7f {
				t.Errorf("%v: secure and plain share major opcode %#02x", in, w&0x7f)
			}
		}
	}
}

func TestRV32EncodeErrors(t *testing.T) {
	const pc = 0x1000
	cases := []struct {
		name string
		in   Inst
	}{
		{"nor has no native encoding", Inst{Op: OpNor, Rd: T0, Rs: T1, Rt: T2}},
		{"imm below range", Inst{Op: OpAddiu, Rt: T0, Rs: T1, Imm: -2049}},
		{"imm above range", Inst{Op: OpAddiu, Rt: T0, Rs: T1, Imm: 2048}},
		{"ori beyond 12 bits", Inst{Op: OpOri, Rt: T0, Rs: T1, Imm: 0x8000}},
		{"lui beyond 20 bits", Inst{Op: OpLui, Rt: T0, Imm: 0x100000}},
		{"displacement out of range", Inst{Op: OpLw, Rt: T0, Rs: T1, Imm: 0x7fff}},
		{"branch out of range", Inst{Op: OpBeq, Rs: T0, Rt: T1, Imm: 1023}},
		{"secure branch", Inst{Op: OpBeq, Rs: T0, Rt: T1, Imm: 1, Secure: true}},
		{"jump out of range", Inst{Op: OpJ, Imm: (1 << 21) / 4}},
	}
	for _, c := range cases {
		if _, err := RV32.Encode(c.in, pc); err == nil {
			t.Errorf("%s: RV32.Encode(%v) succeeded, want error", c.name, c.in)
		}
	}
}

// TestRV32DecodeNeverPanics feeds arbitrary words to the RV32 decoder.
func TestRV32DecodeNeverPanics(t *testing.T) {
	f := func(w uint32) bool {
		in, err := RV32.Decode(w, 0x1000)
		if err != nil {
			return in.Op == OpInvalid
		}
		return in.Op.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// TestRV32RegisterBijection pins the architectural->physical register map as
// a bijection, so cross-target programs agree on register identity.
func TestRV32RegisterBijection(t *testing.T) {
	seen := map[uint8]Reg{}
	for r := Reg(0); r < NumRegs; r++ {
		phys := rv32Phys[r]
		if prev, dup := seen[phys]; dup {
			t.Fatalf("registers %v and %v both map to x%d", prev, r, phys)
		}
		seen[phys] = r
		if rv32Arch[phys] != r {
			t.Errorf("rv32Arch[rv32Phys[%v]] = %v, want identity", r, rv32Arch[phys])
		}
	}
	if rv32Phys[Zero] != 0 || rv32Phys[SP] != 2 || rv32Phys[GP] != 3 || rv32Phys[RA] != 1 {
		t.Error("ABI anchor registers moved: want zero->x0 ra->x1 sp->x2 gp->x3")
	}
	if name := RV32.RegName(SP); name != "sp" {
		t.Errorf("RV32.RegName(SP) = %q, want sp", name)
	}
}

// TestRV32Expansions checks the pseudo-instruction recipes: materialized
// values, secure-bit propagation, and per-inst encodability.
func TestRV32Expansions(t *testing.T) {
	vals := []int32{0, 1, -1, 2047, -2048, 2048, 0x1234, -0x1234, 0x7fffffff, -0x80000000, 0x12345678}
	for _, v := range vals {
		for _, secure := range []bool{false, true} {
			seq := RV32.LoadImm(T0, v, secure)
			var acc uint32
			for i, in := range seq {
				if in.Secure != secure {
					t.Errorf("LoadImm(%#x, secure=%v)[%d]: secure bit %v", v, secure, i, in.Secure)
				}
				if _, err := RV32.Encode(in, uint32(4*i)); err != nil {
					t.Errorf("LoadImm(%#x)[%d] %v: %v", v, i, in, err)
				}
				switch in.Op {
				case OpLui:
					acc = uint32(in.Imm) << 12
				case OpAddiu:
					acc += uint32(in.Imm)
				}
			}
			if acc != uint32(v) {
				t.Errorf("LoadImm(%#x) materializes %#x", v, acc)
			}
		}
	}
	// MemDirect: the address-forming lui stays insecure (the address is
	// public data-layout information), the access itself carries the bit.
	seq := RV32.MemDirect(OpLw, V0, 0x10008, true)
	if len(seq) != 2 || seq[0].Op != OpLui || seq[0].Secure || !seq[1].Secure {
		t.Fatalf("MemDirect = %v, want insecure lui + secure lw", seq)
	}
	addr := uint32(seq[0].Imm)<<12 + uint32(seq[1].Imm)
	if addr != 0x10008 {
		t.Errorf("MemDirect address %#x, want 0x10008", addr)
	}
	// Nor: legalized or + xori -1, both masked.
	nor := RV32.Nor(T0, T1, T2, true)
	if len(nor) != 2 || nor[0].Op != OpOr || nor[1].Op != OpXori || nor[1].Imm != -1 {
		t.Fatalf("Nor = %v, want or + xori -1", nor)
	}
	for _, in := range nor {
		if !in.Secure {
			t.Errorf("Nor expansion %v lost the secure bit", in)
		}
	}
}

// TestRV32PredecodeLuiClass pins the lui split: RV32 lui shifts by 12 via
// its own exec class while PISA keeps the historical 15-bit class, so PISA
// micro-op tables (and golden traces) are untouched by the new backend.
func TestRV32PredecodeLuiClass(t *testing.T) {
	in := Inst{Op: OpLui, Rt: T0, Imm: 5}
	u, err := RV32.Predecode(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if u.Class != ClassLui12 {
		t.Errorf("RV32 lui class = %v, want ClassLui12", u.Class)
	}
	up, err := PISA.Predecode(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if up.Class != ClassLui {
		t.Errorf("PISA lui class = %v, want ClassLui", up.Class)
	}
}

// TestRV32BranchOffsetSemantics pins the semantic reading of branch and
// jump immediates across the pc-relative encoding: Imm counts words from
// pc+4 for branches and absolute words for jumps, at any pc.
func TestRV32BranchOffsetSemantics(t *testing.T) {
	for _, pc := range []uint32{0, 0x1000, 0x7ffc} {
		br := Inst{Op: OpBne, Rs: T0, Rt: T1, Imm: 7}
		w, err := RV32.Encode(br, pc)
		if err != nil {
			t.Fatalf("pc=%#x: %v", pc, err)
		}
		out, err := RV32.Decode(w, pc)
		if err != nil || out.Imm != 7 {
			t.Errorf("pc=%#x: branch imm %d err=%v, want 7", pc, out.Imm, err)
		}
		j := Inst{Op: OpJ, Imm: int32((pc + 0x400) / 4)}
		w, err = RV32.Encode(j, pc)
		if err != nil {
			t.Fatalf("pc=%#x: %v", pc, err)
		}
		out, err = RV32.Decode(w, pc)
		if err != nil || out.Imm != j.Imm {
			t.Errorf("pc=%#x: jump target %d err=%v, want %d", pc, out.Imm, err, j.Imm)
		}
	}
}

// TestTargetsDeclareFiveStage pins the current state of the backend registry:
// every registered target declares the five-stage geometry, which is the one
// geometry cpu.New and cpu.NewEngine accept.
func TestTargetsDeclareFiveStage(t *testing.T) {
	for _, name := range Targets() {
		target, ok := TargetByName(name)
		if !ok {
			t.Fatalf("registry lists unknown target %q", name)
		}
		if spec := target.Pipeline(); spec != FiveStage {
			t.Errorf("%s: pipeline %+v, want FiveStage", name, spec)
		}
	}
}
