package dpa

import (
	"math"
	"math/bits"

	"desmask/internal/des"
	"desmask/internal/leakstat"
)

// CPA implements correlation power analysis — the natural strengthening of
// the difference-of-means DPA the paper defends against (its "higher-order
// power analysis techniques" that defeat naive countermeasures like random
// noise injection): instead of partitioning on one predicted bit, the
// attacker correlates the full Hamming weight of the predicted round-1
// S-box output against the trace at every cycle. Against the dual-rail
// masked system the predicted power model has zero covariance with the
// (data-independent) trace, so CPA collapses exactly like DPA.

// cpaStats holds the per-sample statistics of a trace set's window that no
// sub-key guess changes, computed once per trace set: the trace mean, and
// the sample half of the Pearson denominator — the trace M2 (order 1) or
// the M2 of the centered-square samples y = (x - mean)^2 (order 2). Each
// guess then costs one covariance pass over the traces, which centers the
// samples on the fly (no centered copy of the traces is stored).
type cpaStats struct {
	ts    *TraceSet
	order int
	mean  []float64 // nil for an empty set or window
	m2    []float64
}

// newCPAStats prepares ts for the order-1 or order-2 correlation attack.
func newCPAStats(ts *TraceSet, order int) *cpaStats {
	s := &cpaStats{ts: ts, order: order}
	n := ts.Window.Len()
	if len(ts.Traces) == 0 || n <= 0 {
		return s
	}
	// Per-cycle trace mean and M2 in one streaming pass.
	v := leakstat.NewVec(n)
	for _, tr := range ts.Traces {
		v.AddTrace(tr[ts.Window.Start:ts.Window.End])
	}
	s.mean, s.m2 = v.Mean, v.M2
	if order == 2 {
		s.m2 = centeredSquareM2(ts, v.Mean)
	}
	return s
}

// correlate writes one guess's per-sample Pearson correlation between the
// Hamming weight of the predicted round-1 output of S-box box and the
// (order-2: centered-squared) energy into out, a window-length buffer that
// doubles as the covariance accumulator; h is trace-count scratch for the
// predictions. It reports false, with out zeroed, when the prediction is
// constant over the set — a degenerate guess that carries no signal.
func (s *cpaStats) correlate(box int, guess uint32, h, out []float64) bool {
	// Power-model predictions through the leakstat scalar accumulator
	// (hAcc.M2 is the sum of squared deviations, the Pearson denominator).
	var hAcc leakstat.Acc
	for i := range h {
		h[i] = float64(bits.OnesCount8(des.FirstRoundSBoxOutput(s.ts.Plaintexts[i], box, guess)))
		hAcc.Add(h[i])
	}
	clear(out)
	if hAcc.M2 == 0 {
		return false
	}
	if s.mean == nil {
		return true
	}

	// Covariance against the centered prediction, in trace order. Order 2
	// accumulates sum(h_c * y) without centering y: sum(h_c) == 0 makes the
	// correction term m*mean(h_c)*mean(y) vanish.
	w := s.ts.Window
	mean := s.mean[:len(out)]
	for i, tr := range s.ts.Traces {
		hi := h[i] - hAcc.Mean
		seg := tr[w.Start:w.End]
		seg = seg[:len(out)]
		if s.order == 2 {
			for j, x := range seg {
				d := x - mean[j]
				y := d * d
				out[j] += hi * y
			}
			continue
		}
		for j, x := range seg {
			out[j] += hi * (x - mean[j])
		}
	}
	// r = cov / sqrt(hM2 * sampleM2), with the product guarded as a whole:
	// masked traces make whole stretches of samples energy-constant
	// (sampleM2 == 0), where the unguarded division yields NaN and poisons
	// every peak scan downstream; a zero-variance sample simply carries no
	// correlation, r = 0.
	for j := range out {
		if d := hAcc.M2 * s.m2[j]; d > 0 {
			out[j] /= math.Sqrt(d)
		} else {
			out[j] = 0
		}
	}
	return true
}

// correlation returns one guess's correlation trace in a fresh slice (nil
// for an empty set or window).
func (s *cpaStats) correlation(box int, guess uint32) []float64 {
	if s.mean == nil {
		return nil
	}
	out := make([]float64, len(s.mean))
	s.correlate(box, guess, make([]float64, len(s.ts.Traces)), out)
	return out
}

// attacker returns a function that scores all 64 guesses of one S-box by
// their peak absolute correlation, with its own scratch buffers (one per
// goroutine; see attackBoxes). Guesses with a constant prediction count as
// Degenerate.
func (s *cpaStats) attacker() func(box int) BoxResult {
	h := make([]float64, len(s.ts.Traces))
	out := make([]float64, len(s.mean))
	return func(box int) BoxResult {
		res := newBoxResult(box, -s.order)
		for guess := uint32(0); guess < 64; guess++ {
			if !s.correlate(box, guess, h, out) {
				res.Degenerate++
			}
			res.score(guess, peakAbs(out))
		}
		return res
	}
}

// CorrelationTrace returns the per-cycle Pearson correlation between the
// Hamming weight of the predicted S-box output (for one sub-key guess) and
// the measured energy.
func CorrelationTrace(ts *TraceSet, box int, guess uint32) []float64 {
	return newCPAStats(ts, 1).correlation(box, guess)
}

// CPAAttackSBox scores every 6-bit sub-key guess of one S-box by its peak
// absolute correlation.
func CPAAttackSBox(ts *TraceSet, box int) BoxResult {
	return newCPAStats(ts, 1).attacker()(box)
}

// CPAAttackAll attacks all eight S-boxes with the correlation distinguisher,
// preparing the trace statistics once and fanning the boxes out.
func CPAAttackAll(ts *TraceSet) [8]BoxResult {
	return attackBoxes(newCPAStats(ts, 1).attacker)
}
