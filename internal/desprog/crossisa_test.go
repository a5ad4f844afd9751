package desprog

import (
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/energy"
	"desmask/internal/isa"
)

// TestCrossISACiphertext is the DES half of the cross-ISA cosim suite: the
// same MiniC source compiled under the same policy must produce the same
// ciphertext on the PISA and RV32 cores, under every protection policy. The
// known-answer vector pins both against FIPS 46-3, not merely against each
// other.
func TestCrossISACiphertext(t *testing.T) {
	const (
		key    = uint64(0x133457799BBCDFF1)
		plain  = uint64(0x0123456789ABCDEF)
		cipher = uint64(0x85E813540F0AB405)
	)
	for _, policy := range compiler.Policies() {
		for _, isaName := range []string{"pisa", "rv32"} {
			target, ok := isa.TargetByName(isaName)
			if !ok {
				t.Fatalf("unknown target %q", isaName)
			}
			t.Run(policy.String()+"/"+isaName, func(t *testing.T) {
				m, err := NewFull(compiler.Options{Policy: policy, Target: target}, energy.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				got, _, done, err := m.Encrypt(key, plain, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !done {
					t.Fatal("encryption did not halt within the cycle budget")
				}
				if got != cipher {
					t.Fatalf("ciphertext %#016x, want %#016x", got, cipher)
				}
			})
		}
	}
}

// TestCrossISAOptimized pins the optimized pipeline on both targets: -O
// changes instruction selection (gp-relative addressing, constant folding
// against the target's immediate reach) but never the architectural result.
func TestCrossISAOptimized(t *testing.T) {
	const (
		key    = uint64(0x133457799BBCDFF1)
		plain  = uint64(0x0123456789ABCDEF)
		cipher = uint64(0x85E813540F0AB405)
	)
	for _, isaName := range []string{"pisa", "rv32"} {
		target, _ := isa.TargetByName(isaName)
		t.Run(isaName, func(t *testing.T) {
			m, err := NewFull(compiler.Options{Policy: compiler.PolicySelective, Target: target, Optimize: true}, energy.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			got, _, done, err := m.Encrypt(key, plain, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !done || got != cipher {
				t.Fatalf("done=%v ciphertext %#016x, want %#016x", done, got, cipher)
			}
		})
	}
}
