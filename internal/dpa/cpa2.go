package dpa

import "desmask/internal/des"

// Second-order (centered-product) CPA — the attack that breaks first-order
// boolean masking. A masked trace carries each sensitive value v as the pair
// (v XOR m, m); no single sample's mean depends on v, so first-order CPA and
// DoM collapse. But the *product* of two centered samples that process the
// two shares (or one centered sample squared, when the pipeline overlaps the
// shares in one cycle) has an expectation that depends on HW(v) again —
// Messerges' classic second-order DPA, phrased as CPA. The preprocessing
// here is univariate centered-square: y_j = (x_j - mean_j)^2, correlated
// against the usual Hamming-weight model. It needs the per-cycle means and
// the M2 of y (two streaming passes, O(window) memory, once per trace set)
// before each guess's correlation pass.

// centeredSquareM2 returns, per sample of the window, the M2 of the
// preprocessed samples y = (x - mean)^2 — the sample half of the order-2
// Pearson denominator, folded with Welford's update. It depends on the
// traces only, so the attack runs it once per trace set.
func centeredSquareM2(ts *TraceSet, mean []float64) []float64 {
	n := len(mean)
	yMean := make([]float64, n)
	yM2 := make([]float64, n)
	for k, tr := range ts.Traces {
		inv := 1 / float64(k+1)
		seg := tr[ts.Window.Start:ts.Window.End]
		for j, x := range seg {
			d := x - mean[j]
			y := d * d
			dy := y - yMean[j]
			yMean[j] += dy * inv
			yM2[j] += dy * (y - yMean[j])
		}
	}
	return yM2
}

// CorrelationTrace2 returns the per-cycle Pearson correlation between the
// Hamming weight of the predicted round-1 S-box output (for one sub-key
// guess) and the centered-squared energy (x - mean)^2 — the univariate
// second-order distinguisher.
func CorrelationTrace2(ts *TraceSet, box int, guess uint32) []float64 {
	return newCPAStats(ts, 2).correlation(box, guess)
}

// CPA2AttackSBox scores every 6-bit sub-key guess of one S-box by its peak
// absolute second-order correlation.
func CPA2AttackSBox(ts *TraceSet, box int) BoxResult {
	return newCPAStats(ts, 2).attacker()(box)
}

// CPA2AttackAll attacks all eight S-boxes with the second-order
// distinguisher, preparing the trace statistics once and fanning the boxes
// out.
func CPA2AttackAll(ts *TraceSet) [8]BoxResult {
	return attackBoxes(newCPAStats(ts, 2).attacker)
}

// Chunks extracts the eight best-guess 6-bit sub-key chunks of a full-key
// attack, in des.RecoverKey's order (chunk 0 feeds S-box 1).
func Chunks(results [8]BoxResult) [8]uint32 {
	var out [8]uint32
	for box, r := range results {
		out[box] = r.Best.Guess
	}
	return out
}

// FullKeyResult is the outcome of a complete first-round key-recovery attack:
// all eight S-boxes attacked, the 48 recovered K1 bits completed to the
// 56-bit key by trial encryption against one known pair.
type FullKeyResult struct {
	Boxes [8]BoxResult
	// Recovered counts correct 6-bit chunks (needs the true key; filled by
	// VerifyAgainst, -1 until then).
	Recovered int
	// Key is the completed 64-bit key (zero parity bits); OK reports that
	// some candidate reproduced the known ciphertext.
	Key uint64
	OK  bool
}

// Stat names a full-key distinguisher.
type Stat int

const (
	// StatDoM is Kocher-style single-bit difference of means.
	StatDoM Stat = iota
	// StatCPA is first-order Hamming-weight correlation.
	StatCPA
	// StatCPA2 is second-order centered-square correlation.
	StatCPA2
)

// String names the distinguisher as the attack API spells it.
func (s Stat) String() string {
	switch s {
	case StatDoM:
		return "dom"
	case StatCPA:
		return "cpa"
	case StatCPA2:
		return "cpa2"
	}
	return "stat?"
}

// FullKeyAttack runs the complete 48-bit round-key recovery with the chosen
// distinguisher and completes it to the 56-bit key via one known
// (plaintext, ciphertext) pair. Recovered is left at -1; call VerifyAgainst
// with the true key to fill it.
func FullKeyAttack(ts *TraceSet, stat Stat, plaintext, ciphertext uint64) FullKeyResult {
	var res FullKeyResult
	switch stat {
	case StatCPA:
		res.Boxes = CPAAttackAll(ts)
	case StatCPA2:
		res.Boxes = CPA2AttackAll(ts)
	default:
		res.Boxes = AttackAll(ts, 0)
	}
	res.Recovered = -1
	res.Key, res.OK = des.RecoverKey(Chunks(res.Boxes), plaintext, ciphertext)
	return res
}

// VerifyAgainst scores the attack against the true key, filling Recovered.
func (r *FullKeyResult) VerifyAgainst(key uint64) {
	r.Recovered, _ = Verify(r.Boxes, key)
}
