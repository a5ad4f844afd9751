package sim_test

// Session-level tests of the deprecated Job.Blocks flag. The flag once routed
// unobserved jobs to a block-compiled engine; that engine is gone and the
// flag is ignored, so for every job a Blocks run must be bit-identical to the
// plain run of the same job: ciphertexts, full stats with metered energy,
// registers, memory read-back and errors (down to the exact
// *cpu.CycleLimitError), alone or in a batch.

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/cpu"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/isa"
	"desmask/internal/sim"
)

const desCipher = uint64(0x85E813540F0AB405)

// packBits packs the 64 one-bit words of the DES cipher global (MSB first),
// mirroring desprog's internal layout.
func packBits(words []uint32) uint64 {
	var v uint64
	for i := 0; i < 64; i++ {
		v = v<<1 | uint64(words[i]&1)
	}
	return v
}

func desMachine(t *testing.T, policy compiler.Policy, isaName string) *desprog.Machine {
	t.Helper()
	target, ok := isa.TargetByName(isaName)
	if !ok {
		t.Fatalf("unknown target %q", isaName)
	}
	m, err := desprog.NewFull(compiler.Options{Policy: policy, Target: target}, energy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runBoth runs one job without and with Blocks on the same runner and
// demands bit-identical results.
func runBoth(t *testing.T, m *desprog.Machine, job sim.Job) (plainRes, blockRes sim.Result) {
	t.Helper()
	r := m.Runner()
	job.Blocks = false
	plainRes = r.Run(job)
	job.Blocks = true
	blockRes = r.Run(job)

	if (plainRes.Err == nil) != (blockRes.Err == nil) {
		t.Fatalf("error divergence: plain %v, blocks %v", plainRes.Err, blockRes.Err)
	}
	if plainRes.Err != nil && plainRes.Err.Error() != blockRes.Err.Error() {
		t.Fatalf("errors differ: plain %q, blocks %q", plainRes.Err, blockRes.Err)
	}
	if plainRes.Done != blockRes.Done {
		t.Fatalf("done divergence: plain %v, blocks %v", plainRes.Done, blockRes.Done)
	}
	if plainRes.Stats != blockRes.Stats ||
		math.Float64bits(plainRes.Stats.Energy.Total) != math.Float64bits(blockRes.Stats.Energy.Total) ||
		math.Float64bits(plainRes.Stats.PeakPJ) != math.Float64bits(blockRes.Stats.PeakPJ) {
		t.Errorf("stats diverge:\n plain  %+v\n blocks %+v", plainRes.Stats, blockRes.Stats)
	}
	if plainRes.Regs != blockRes.Regs {
		t.Error("register files diverge")
	}
	if !reflect.DeepEqual(plainRes.Mem, blockRes.Mem) {
		t.Error("memory read-back diverges")
	}
	return plainRes, blockRes
}

// TestBlocksDESEquivalence runs the DES known-answer encryption with and
// without Blocks under every policy on both ISAs: identical ciphertext,
// metered stats, registers and memory, matching the golden manifest on PISA.
func TestBlocksDESEquivalence(t *testing.T) {
	for _, isaName := range []string{"pisa", "rv32"} {
		for _, policy := range compiler.Policies() {
			t.Run(isaName+"/"+policy.String(), func(t *testing.T) {
				m := desMachine(t, policy, isaName)
				job, err := m.EncryptJob(0x133457799BBCDFF1, 0x0123456789ABCDEF, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				_, blockRes := runBoth(t, m, job)
				if !blockRes.Done {
					t.Fatal("encryption did not complete")
				}
				if got := packBits(blockRes.Mem[0]); got != desCipher {
					t.Fatalf("Blocks ciphertext %#016x, want %#016x", got, desCipher)
				}
				if blockRes.Stats.Energy.Total <= 0 || blockRes.Stats.PeakPJ <= 0 {
					t.Error("Blocks run reported no metered energy")
				}
				if entry, ok := goldenEntry(t, "des", policy.String()); ok && isaName == "pisa" {
					if blockRes.Stats.Cycles != entry.Cycles ||
						blockRes.Stats.Insts != entry.Insts ||
						blockRes.Stats.SecureInst != entry.SecureInst {
						t.Errorf("Blocks stats diverge from golden manifest: got %d/%d/%d, want %d/%d/%d",
							blockRes.Stats.Cycles, blockRes.Stats.Insts, blockRes.Stats.SecureInst,
							entry.Cycles, entry.Insts, entry.SecureInst)
					}
					if out := fmt.Sprintf("%016x", packBits(blockRes.Mem[0])); out != entry.Output {
						t.Errorf("Blocks output %s, want golden %s", out, entry.Output)
					}
				}
			})
		}
	}
}

// TestBlocksCycleLimit pins budgets that expire mid-run: the partial Result
// (or the RequireHalt error) is identical with and without Blocks, down to
// the exact *cpu.CycleLimitError.
func TestBlocksCycleLimit(t *testing.T) {
	m := desMachine(t, compiler.PolicyNone, "pisa")
	job, err := m.EncryptJob(0x133457799BBCDFF1, 0x0123456789ABCDEF, 2000, false)
	if err != nil {
		t.Fatal(err)
	}

	plainRes, blockRes := runBoth(t, m, job)
	if plainRes.Done || blockRes.Done {
		t.Fatal("2000-cycle budget unexpectedly completed DES")
	}
	if blockRes.Stats.Cycles != 2000 {
		t.Errorf("partial run simulated %d cycles, want exactly the 2000 budget", blockRes.Stats.Cycles)
	}

	job.RequireHalt = true
	plainRes, blockRes = runBoth(t, m, job)
	var pl, bl *cpu.CycleLimitError
	if !errors.As(plainRes.Err, &pl) || !errors.As(blockRes.Err, &bl) {
		t.Fatalf("RequireHalt errors: plain %v, blocks %v; want cycle-limit errors", plainRes.Err, blockRes.Err)
	}
	if pl.Limit != bl.Limit {
		t.Errorf("cycle-limit errors disagree on the limit: %d vs %d", pl.Limit, bl.Limit)
	}
}

// TestBlocksObservedJobsFallBack pins observed Blocks jobs: a traced job
// still captures the golden trace, and a probed job's probe still sees every
// cycle.
func TestBlocksObservedJobsFallBack(t *testing.T) {
	m, err := desprog.New(compiler.PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Runner()

	t.Run("trace", func(t *testing.T) {
		job, err := m.EncryptJob(goldenKey, goldenPlaintext, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		job.Blocks = true
		res := r.Run(job)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Trace == nil {
			t.Fatal("traced job captured no trace")
		}
		if entry, ok := goldenEntry(t, "des", compiler.PolicySelective.String()); ok {
			if got := traceHash(res.Trace); got != entry.TraceHash {
				t.Errorf("trace hash %s, want golden %s", got, entry.TraceHash)
			}
			if bits := fmt.Sprintf("%016x", math.Float64bits(res.Stats.Energy.Total)); bits != entry.EnergyBits {
				t.Errorf("energy bits %s, want golden %s", bits, entry.EnergyBits)
			}
		}
	})

	t.Run("probe", func(t *testing.T) {
		job, err := m.EncryptJob(goldenKey, goldenPlaintext, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		job.Blocks = true
		var cycles uint64
		job.Probe = sim.SharedProbes(cpu.ProbeFunc(func(cpu.CycleInfo) { cycles++ }))
		res := r.Run(job)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if cycles != res.Stats.Cycles {
			t.Errorf("probe observed %d cycles, run reported %d", cycles, res.Stats.Cycles)
		}
	})
}

// TestBlocksBatch fans a Blocks batch across workers, scalar and
// gang-scheduled, and checks every result and the gang grouping against the
// batch of the same jobs without Blocks.
func TestBlocksBatch(t *testing.T) {
	m := desMachine(t, compiler.PolicyAllSecure, "rv32")
	plaintexts := []uint64{0x0123456789ABCDEF, 0xFFFFFFFFFFFFFFFF, 0, 0x0123456789ABCDEF ^ 1, 0x5555AAAA5555AAAA}
	jobs := func(blocks bool) []sim.Job {
		out := make([]sim.Job, len(plaintexts))
		for i, pt := range plaintexts {
			job, err := m.EncryptJob(0x133457799BBCDFF1, pt, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			job.Blocks = blocks
			out[i] = job
		}
		return out
	}
	r := m.Runner()
	batch := func(blocks bool, opts sim.Options) ([]sim.Result, uint64, uint64) {
		runs, deopts := r.GangRuns(), r.GangDeopts()
		res, err := r.RunBatch(jobs(blocks), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, r.GangRuns() - runs, r.GangDeopts() - deopts
	}

	for _, opts := range []sim.Options{{Workers: 2}, {Workers: 1, GangWidth: 4}} {
		base, baseRuns, baseDeopts := batch(false, opts)
		blk, blkRuns, blkDeopts := batch(true, opts)
		if opts.GangWidth > 1 && baseRuns == 0 {
			t.Fatal("no lane ran in lockstep despite GangWidth > 1")
		}
		if blkRuns != baseRuns || blkDeopts != baseDeopts {
			t.Errorf("%+v: Blocks gang lanes %d (deopts %d), want %d (%d)", opts, blkRuns, blkDeopts, baseRuns, baseDeopts)
		}
		if !reflect.DeepEqual(blk, base) {
			t.Errorf("%+v: Blocks changed batch results", opts)
		}
		for i := range blk {
			if !blk[i].Done {
				t.Errorf("%+v: job %d did not complete", opts, i)
			}
		}
	}
}
