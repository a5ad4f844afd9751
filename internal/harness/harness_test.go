package harness_test

import (
	"math/rand"
	"reflect"
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/kernels"
	"desmask/internal/sim"
)

// refPoke is one runtime-support word addressed as (global, word offset).
type refPoke struct {
	sym  string
	word int
	val  uint32
}

// refRuntimePokes is the reference draw of one execution's runtime state:
// scrub word, fresh-mask pool, then shuffle permutation.
func refRuntimePokes(mrt *compiler.MaskRuntime, rng *compiler.MaskStream) []refPoke {
	var pokes []refPoke
	if mrt.PoolWords > 0 {
		pokes = append(pokes, refPoke{sym: compiler.MaskScrubSym, val: rng.Next32()})
		for i := 0; i < mrt.PoolWords; i++ {
			pokes = append(pokes, refPoke{sym: compiler.MaskPoolSym, word: i, val: rng.Next32()})
		}
	}
	if mrt.ShuffleLen > 0 {
		for i, v := range rng.Perm(mrt.ShuffleLen) {
			pokes = append(pokes, refPoke{sym: compiler.ShuffleSym, word: i, val: v})
		}
	}
	return pokes
}

type refInput struct {
	name string
	vals []uint32
}

// refJob builds a job the straightforward way: every address looked up in
// the symbol table as it is written, the runtime state drawn into an
// intermediate poke list.
func refJob(t *testing.T, res *compiler.Result, output string, outWords int, seed int64, ins ...refInput) sim.Job {
	t.Helper()
	globalAddr := func(name string) uint32 {
		addr, ok := res.Program.Symbols[compiler.GlobalLabel(name)]
		if !ok {
			t.Fatalf("no global %q", name)
		}
		return addr
	}
	var job sim.Job
	rng := compiler.NewMaskStream(seed)
	masked := make(map[string]bool)
	if res.Mask != nil {
		for _, g := range res.Mask.MaskedGlobals {
			masked[g] = true
		}
	}
	for _, in := range ins {
		addr := globalAddr(in.name)
		for i, v := range in.vals {
			if masked[in.name] {
				mi := rng.Next32()
				job.Writes = append(job.Writes,
					sim.Write{Addr: addr + uint32(4*i), Val: v ^ mi},
					sim.Write{Addr: globalAddr(compiler.MaskShadow(in.name)) + uint32(4*i), Val: mi})
				continue
			}
			job.Writes = append(job.Writes, sim.Write{Addr: addr + uint32(4*i), Val: v})
		}
	}
	job.Reads = []sim.Read{{Addr: globalAddr(output), Words: outWords}}
	if res.Mask != nil {
		for _, p := range refRuntimePokes(res.Mask, rng) {
			job.Writes = append(job.Writes, sim.Write{Addr: globalAddr(p.sym) + uint32(4*p.word), Val: p.val})
		}
		if res.Mask.PoolWords > 0 {
			job.Reads = append(job.Reads, sim.Read{Addr: globalAddr(compiler.MaskCursorSym), Words: 1})
		}
	}
	return job
}

func bitWords(v uint64) []uint32 {
	out := make([]uint32, 64)
	for i := range out {
		out[i] = uint32(v >> (63 - i) & 1)
	}
	return out
}

func sameJob(t *testing.T, name string, seed int64, got, want sim.Job) {
	t.Helper()
	if !reflect.DeepEqual(got.Writes, want.Writes) {
		t.Fatalf("%s seed %d: %d writes differ from the reference's %d", name, seed, len(got.Writes), len(want.Writes))
	}
	if !reflect.DeepEqual(got.Reads, want.Reads) {
		t.Fatalf("%s seed %d: reads %v, reference %v", name, seed, got.Reads, want.Reads)
	}
}

var seeds = []int64{0, 1, 7, -3, 1 << 40}

// TestDESJobMatchesReference: DES jobs built from the resolved layout equal
// the per-symbol reference construction exactly, for the masked, shuffled
// and unprotected builds.
func TestDESJobMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  compiler.Options
	}{
		{"boolean-mask", compiler.Options{Policy: compiler.PolicyBooleanMask}},
		{"shuffle", compiler.Options{Policy: compiler.PolicySelective, Shuffle: true}},
		{"none", compiler.Options{Policy: compiler.PolicyNone}},
	} {
		m, err := desprog.NewFull(tc.opt, energy.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if protected := m.Res.Mask != nil; protected != (tc.name != "none") {
			t.Fatalf("%s: mask runtime present = %v", tc.name, protected)
		}
		rng := rand.New(rand.NewSource(1))
		for _, seed := range seeds {
			key, pt := rng.Uint64(), rng.Uint64()
			got, err := m.EncryptJobSeeded(key, pt, seed, 1234, true)
			if err != nil {
				t.Fatal(err)
			}
			want := refJob(t, m.Res, "cipher", 64, seed,
				refInput{"key", bitWords(key)}, refInput{"plaintext", bitWords(pt)})
			sameJob(t, tc.name, seed, got, want)
			if got.MaxCycles != 1234 || !got.Trace {
				t.Fatalf("%s: MaxCycles %d Trace %v, want 1234 true", tc.name, got.MaxCycles, got.Trace)
			}
		}
	}
}

// TestKernelJobMatchesReference: the same identity for boolean-mask kernel
// builds, whose secret inputs are poked as share pairs.
func TestKernelJobMatchesReference(t *testing.T) {
	for _, name := range []string{"tea", "aes128"} {
		k, ok := kernels.ByName(name)
		if !ok {
			t.Fatalf("no kernel %q", name)
		}
		m, err := kernels.Build(k, compiler.Options{Policy: compiler.PolicyBooleanMask}, energy.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if m.Res.Mask == nil || len(m.Res.Mask.MaskedGlobals) == 0 {
			t.Fatalf("%s: no masked globals", name)
		}
		secret, public, wordMask := kernels.TVLAInputs(k)
		rng := rand.New(rand.NewSource(2))
		for _, seed := range seeds {
			for i := range secret {
				secret[i] = rng.Uint32() & wordMask
			}
			got, err := m.JobSeeded(secret, public, seed, false)
			if err != nil {
				t.Fatal(err)
			}
			want := refJob(t, m.Res, k.OutputGlobal, k.OutputLen, seed,
				refInput{k.SecretGlobal, secret}, refInput{k.PublicGlobal, public})
			sameJob(t, name, seed, got, want)
		}
	}
}

// TestMaskedJobAllocs bounds the cost of building one boolean-mask DES job:
// the Writes and Reads slices, and nothing per word.
func TestMaskedJobAllocs(t *testing.T) {
	m, err := desprog.New(compiler.PolicyBooleanMask)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EncryptJobSeeded(1, 2, 3, 0, false); err != nil {
		t.Fatal(err)
	}
	seed := int64(0)
	allocs := testing.AllocsPerRun(20, func() {
		seed++
		if _, err := m.EncryptJobSeeded(0x133457799BBCDFF1, 0x0123456789ABCDEF, seed, 0, false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("boolean-mask EncryptJobSeeded allocates %.1f times per job, want <= 2", allocs)
	}
}
