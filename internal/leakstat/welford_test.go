package leakstat

import (
	"math"
	"math/rand"
	"testing"
)

// twoPass computes the reference mean and sample variance in two passes.
func twoPass(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	if len(xs) > 1 {
		variance /= float64(len(xs) - 1)
	} else {
		variance = 0
	}
	return mean, variance
}

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return a == b
	}
	return math.Abs(a-b) <= tol*scale
}

// randomData mimics per-cycle energy: a base magnitude with small jitter,
// the regime where naive sum-of-squares variance loses precision.
func randomData(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 5000 + rng.NormFloat64()*3
	}
	return xs
}

// TestAccMatchesTwoPass: sequential Welford accumulation agrees with the
// two-pass reference to tight relative tolerance.
func TestAccMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3, 17, 1000} {
		xs := randomData(rng, n)
		var a Acc
		for _, x := range xs {
			a.Add(x)
		}
		mean, variance := twoPass(xs)
		if !relClose(a.Mean, mean, 1e-12) || !relClose(a.Variance(), variance, 1e-9) {
			t.Fatalf("n=%d: Welford (%.17g, %.17g) vs two-pass (%.17g, %.17g)",
				n, a.Mean, a.Variance(), mean, variance)
		}
	}
}

// TestAccMergeGroupings: any partition of the data merged in any
// association agrees with sequential accumulation and the two-pass
// reference to tight tolerance — the statistical soundness half of the
// merge contract. (Bit-identity across different groupings is not a float
// property; the engine gets bit-identical verdicts by fixing ONE grouping —
// see TestVecFixedFoldBitIdentical.)
func TestAccMergeGroupings(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := randomData(rng, 999)
	mean, variance := twoPass(xs)

	var seq Acc
	for _, x := range xs {
		seq.Add(x)
	}

	for _, workers := range []int{1, 4, 16} {
		// Split into `workers` contiguous shards, accumulate each, then try
		// two merge associations: left fold and pairwise tree.
		shards := make([]Acc, workers)
		for s := 0; s < workers; s++ {
			lo, hi := s*len(xs)/workers, (s+1)*len(xs)/workers
			for _, x := range xs[lo:hi] {
				shards[s].Add(x)
			}
		}
		var fold Acc
		for _, s := range shards {
			fold.Merge(s)
		}
		tree := make([]Acc, len(shards))
		copy(tree, shards)
		for len(tree) > 1 {
			var next []Acc
			for i := 0; i < len(tree); i += 2 {
				a := tree[i]
				if i+1 < len(tree) {
					a.Merge(tree[i+1])
				}
				next = append(next, a)
			}
			tree = next
		}
		for _, got := range []Acc{fold, tree[0]} {
			if got.N != uint64(len(xs)) {
				t.Fatalf("workers=%d: merged N=%d, want %d", workers, got.N, len(xs))
			}
			if !relClose(got.Mean, mean, 1e-12) || !relClose(got.Variance(), variance, 1e-9) {
				t.Fatalf("workers=%d: merged (%.17g, %.17g) vs two-pass (%.17g, %.17g)",
					workers, got.Mean, got.Variance(), mean, variance)
			}
			if !relClose(got.Mean, seq.Mean, 1e-13) || !relClose(got.M2, seq.M2, 1e-9) {
				t.Fatalf("workers=%d: merged (%.17g, %.17g) vs sequential (%.17g, %.17g)",
					workers, got.Mean, got.M2, seq.Mean, seq.M2)
			}
		}
	}
}

// TestVecFixedFoldBitIdentical: the engine's actual invariant. One fixed
// shard partition folded in shard-index order produces bit-identical state
// no matter how many workers filled the shards — because the reduction tree
// is a function of the partition, not the schedule.
func TestVecFixedFoldBitIdentical(t *testing.T) {
	const nTraces, nSamples, nShards = 64, 37, 8
	rng := rand.New(rand.NewSource(3))
	traces := make([][]float64, nTraces)
	for i := range traces {
		traces[i] = randomData(rng, nSamples)
	}

	fold := func() *Vec {
		shards := make([]*Vec, nShards)
		for s := range shards {
			v := NewVec(nSamples)
			lo, hi := s*nTraces/nShards, (s+1)*nTraces/nShards
			for _, tr := range traces[lo:hi] {
				v.AddTrace(tr)
			}
			shards[s] = v
		}
		out := NewVec(nSamples)
		for _, v := range shards {
			if err := out.Merge(v); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	ref := fold()
	for trial := 0; trial < 3; trial++ {
		got := fold()
		for j := 0; j < nSamples; j++ {
			if math.Float64bits(got.Mean[j]) != math.Float64bits(ref.Mean[j]) ||
				math.Float64bits(got.M2[j]) != math.Float64bits(ref.M2[j]) {
				t.Fatalf("trial %d sample %d: fixed fold not bit-identical", trial, j)
			}
		}
	}

	// And it agrees with per-sample two-pass statistics.
	for j := 0; j < nSamples; j++ {
		col := make([]float64, nTraces)
		for i := range traces {
			col[i] = traces[i][j]
		}
		mean, variance := twoPass(col)
		if !relClose(ref.Mean[j], mean, 1e-12) || !relClose(ref.VarianceAt(j), variance, 1e-9) {
			t.Fatalf("sample %d: fold (%g, %g) vs two-pass (%g, %g)",
				j, ref.Mean[j], ref.VarianceAt(j), mean, variance)
		}
	}
}

// TestVecStreamingMatchesAddTrace: BeginTrace/Set streaming equals AddTrace
// bit-for-bit (same op sequence).
func TestVecStreamingMatchesAddTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := NewVec(11), NewVec(11)
	for i := 0; i < 25; i++ {
		tr := randomData(rng, 11)
		a.AddTrace(tr)
		b.BeginTrace()
		for j, x := range tr {
			b.Set(j, x)
		}
	}
	for j := 0; j < 11; j++ {
		if math.Float64bits(a.Mean[j]) != math.Float64bits(b.Mean[j]) ||
			math.Float64bits(a.M2[j]) != math.Float64bits(b.M2[j]) {
			t.Fatalf("sample %d: streaming path diverged from AddTrace", j)
		}
	}
}

// TestVecResetMatchesFresh: a used accumulator, once Reset, folds the next
// traces bit for bit as a fresh one does, at both orders.
func TestVecResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, order := range []int{1, 2} {
		used, fresh := NewVecOrder(7, order), NewVecOrder(7, order)
		for i := 0; i < 9; i++ {
			used.AddTrace(randomData(rng, 7))
		}
		used.Reset()
		if used.N() != 0 {
			t.Fatalf("order %d: N=%d after Reset", order, used.N())
		}
		for i := 0; i < 13; i++ {
			tr := randomData(rng, 7)
			used.AddTrace(tr)
			fresh.AddTrace(tr)
		}
		got, _ := used.MarshalBinary()
		want, _ := fresh.MarshalBinary()
		if string(got) != string(want) {
			t.Fatalf("order %d: reset accumulator diverged from a fresh one", order)
		}
	}
}

// TestVecExactOnConstantTraces: identical traces leave M2 at exactly zero —
// the property that makes masked-region verdicts exact, not approximate.
func TestVecExactOnConstantTraces(t *testing.T) {
	v := NewVec(5)
	tr := []float64{4017.25, 3990.5, 5123.0, 0, 777.125}
	for i := 0; i < 100; i++ {
		v.AddTrace(tr)
	}
	for j := range tr {
		if v.Mean[j] != tr[j] || v.M2[j] != 0 {
			t.Fatalf("sample %d: mean=%g M2=%g, want exact (%g, 0)", j, v.Mean[j], v.M2[j], tr[j])
		}
	}
}

func TestWelchTZeroVarianceSemantics(t *testing.T) {
	mk := func(n int, traces ...[]float64) *Vec {
		v := NewVec(n)
		for _, tr := range traces {
			v.AddTrace(tr)
		}
		return v
	}
	// Same constant on both sides: no evidence, t = 0.
	f := mk(2, []float64{5, 7}, []float64{5, 7})
	r := mk(2, []float64{5, 7}, []float64{5, 7})
	ts, err := WelchT(f, r)
	if err != nil {
		t.Fatal(err)
	}
	for j, x := range ts {
		if x != 0 {
			t.Fatalf("sample %d: t=%g, want 0 for equal constants", j, x)
		}
	}
	// Different constants, zero variance: deterministic leak, ±Inf.
	r2 := mk(2, []float64{6, 3}, []float64{6, 3})
	ts, err = WelchT(f, r2)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(ts[0], -1) || !math.IsInf(ts[1], 1) {
		t.Fatalf("t=%v, want (-Inf, +Inf) for deterministic mean gap", ts)
	}
	if clampFinite(ts[0]) != math.MaxFloat64 || clampFinite(ts[1]) != math.MaxFloat64 {
		t.Fatalf("clampFinite(|Inf|) must be MaxFloat64")
	}
	// Guards.
	if _, err := WelchT(mk(2, []float64{1, 2}), r); err == nil {
		t.Fatal("want error for single-trace population")
	}
	if _, err := WelchT(mk(3, []float64{1, 2, 3}, []float64{1, 2, 3}), r); err == nil {
		t.Fatal("want error for mismatched lengths")
	}
}

func TestMaxAbs(t *testing.T) {
	if peak, at := MaxAbs(nil); peak != 0 || at != -1 {
		t.Fatalf("empty: got (%g, %d)", peak, at)
	}
	peak, at := MaxAbs([]float64{1, -9, 3})
	if peak != 9 || at != 1 {
		t.Fatalf("got (%g, %d), want (9, 1)", peak, at)
	}
}
