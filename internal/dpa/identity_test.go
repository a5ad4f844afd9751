package dpa

import (
	"math"
	"math/bits"
	"runtime"
	"testing"

	"desmask/internal/des"
	"desmask/internal/leakstat"
	"desmask/internal/trace"
)

// The reference distinguishers below are the per-guess implementations the
// prepared-statistics kernels replaced, kept verbatim: every guess redoes
// the guess-independent passes. The identity test pins the kernels and the
// box fan-out to them bit for bit.

func refCorrelationTrace(ts *TraceSet, box int, guess uint32) []float64 {
	n := ts.Window.Len()
	m := len(ts.Traces)
	if m == 0 || n <= 0 {
		return nil
	}
	h := make([]float64, m)
	var hAcc leakstat.Acc
	for i, pt := range ts.Plaintexts {
		h[i] = float64(bits.OnesCount8(des.FirstRoundSBoxOutput(pt, box, guess)))
		hAcc.Add(h[i])
	}
	out := make([]float64, n)
	if hAcc.M2 == 0 {
		return out
	}
	v := leakstat.NewVec(n)
	for _, tr := range ts.Traces {
		v.AddTrace(tr[ts.Window.Start:ts.Window.End])
	}
	cov := make([]float64, n)
	for i, tr := range ts.Traces {
		hi := h[i] - hAcc.Mean
		seg := tr[ts.Window.Start:ts.Window.End]
		for j, x := range seg {
			cov[j] += hi * (x - v.Mean[j])
		}
	}
	for j := range out {
		if d := hAcc.M2 * v.M2[j]; d > 0 {
			out[j] = cov[j] / math.Sqrt(d)
		}
	}
	return out
}

func refCorrelationTrace2(ts *TraceSet, box int, guess uint32) []float64 {
	n := ts.Window.Len()
	m := len(ts.Traces)
	if m == 0 || n <= 0 {
		return nil
	}
	h := make([]float64, m)
	var hAcc leakstat.Acc
	for i, pt := range ts.Plaintexts {
		h[i] = float64(bits.OnesCount8(des.FirstRoundSBoxOutput(pt, box, guess)))
		hAcc.Add(h[i])
	}
	out := make([]float64, n)
	if hAcc.M2 == 0 {
		return out
	}
	raw := leakstat.NewVec(n)
	for _, tr := range ts.Traces {
		raw.AddTrace(tr[ts.Window.Start:ts.Window.End])
	}
	yMean := make([]float64, n)
	yM2 := make([]float64, n)
	cov := make([]float64, n)
	for i, tr := range ts.Traces {
		inv := 1 / float64(i+1)
		seg := tr[ts.Window.Start:ts.Window.End]
		hi := h[i] - hAcc.Mean
		for j, x := range seg {
			d := x - raw.Mean[j]
			y := d * d
			dy := y - yMean[j]
			yMean[j] += dy * inv
			yM2[j] += dy * (y - yMean[j])
			cov[j] += hi * y
		}
	}
	for j := range out {
		if d := hAcc.M2 * yM2[j]; d > 0 {
			out[j] = cov[j] / math.Sqrt(d)
		}
	}
	return out
}

func refDifferenceOfMeansDetail(ts *TraceSet, box, bit int, guess uint32) (dom []float64, n1, n0 int) {
	n := ts.Window.Len()
	g1, g0 := leakstat.NewVec(n), leakstat.NewVec(n)
	for i, tr := range ts.Traces {
		out := des.FirstRoundSBoxOutput(ts.Plaintexts[i], box, guess)
		seg := tr[ts.Window.Start:ts.Window.End]
		if out>>(3-bit)&1 == 1 {
			g1.AddTrace(seg)
		} else {
			g0.AddTrace(seg)
		}
	}
	n1, n0 = int(g1.N()), int(g0.N())
	dom = make([]float64, n)
	if n1 == 0 || n0 == 0 {
		return dom, n1, n0
	}
	for j := range dom {
		dom[j] = g1.Mean[j] - g0.Mean[j]
	}
	return dom, n1, n0
}

// refConstantPrediction reports whether one guess's Hamming-weight
// prediction is constant over the set — the case the CPA reference scores
// as zero and the kernels also count in BoxResult.Degenerate.
func refConstantPrediction(ts *TraceSet, box int, guess uint32) bool {
	var hAcc leakstat.Acc
	for _, pt := range ts.Plaintexts {
		hAcc.Add(float64(bits.OnesCount8(des.FirstRoundSBoxOutput(pt, box, guess))))
	}
	return hAcc.M2 == 0
}

// refAttackSBox is the per-guess box loop shared by the three references.
func refAttackSBox(ts *TraceSet, stat Stat, box int) BoxResult {
	bit := 0
	switch stat {
	case StatCPA:
		bit = -1
	case StatCPA2:
		bit = -2
	}
	res := BoxResult{Box: box, Bit: bit, Best: GuessScore{Peak: -1}, RunnerUp: GuessScore{Peak: -1}}
	for guess := uint32(0); guess < 64; guess++ {
		var v []float64
		switch stat {
		case StatCPA, StatCPA2:
			if stat == StatCPA {
				v = refCorrelationTrace(ts, box, guess)
			} else {
				v = refCorrelationTrace2(ts, box, guess)
			}
			if refConstantPrediction(ts, box, guess) {
				res.Degenerate++
			}
		default:
			dom, n1, n0 := refDifferenceOfMeansDetail(ts, box, 0, guess)
			if n1 == 0 || n0 == 0 {
				res.Degenerate++
			}
			v = dom
		}
		peak := 0.0
		for _, x := range v {
			if a := math.Abs(x); a > peak {
				peak = a
			}
		}
		res.AllScores[guess] = peak
		switch {
		case peak > res.Best.Peak:
			res.RunnerUp = res.Best
			res.Best = GuessScore{Guess: guess, Peak: peak}
		case peak > res.RunnerUp.Peak:
			res.RunnerUp = GuessScore{Guess: guess, Peak: peak}
		}
	}
	return res
}

// identitySets returns the trace sets the whole-attack identity test
// covers. The per-guess reference costs a full pass over the set for each of
// the 512 guesses, so the unmasked fixture set enters as a 5-trace prefix;
// the constant-energy set hits the zero-variance guard everywhere and the
// 1-trace set makes every prediction constant.
func identitySets(t *testing.T) map[string]*TraceSet {
	t.Helper()
	setup(t)
	constant := &TraceSet{
		Plaintexts: []uint64{0, ^uint64(0), 0x0123456789ABCDEF, 0xFEDCBA9876543210, 42},
		Window:     trace.Window{Start: 1, End: 6},
	}
	for range constant.Plaintexts {
		constant.Traces = append(constant.Traces, []float64{1, 9, 9, 9, 9, 9, 2})
	}
	return map[string]*TraceSet{
		"unmasked/prefix5": withWindow(unmaskedSet, 5, roundWin),
		"constant":         constant,
		"single":           withWindow(unmaskedSet, 1, roundWin),
	}
}

var fullWin = trace.Window{Start: 0, End: 25_000}

// withWindow views the first n traces of ts through window w.
func withWindow(ts *TraceSet, n int, w trace.Window) *TraceSet {
	return &TraceSet{Plaintexts: ts.Plaintexts[:n], Traces: ts.Traces[:n], Window: w}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

// TestFullKeyAttackMatchesPerGuessReference: preparing the guess-independent
// statistics once, reusing the per-box buffers and fanning the boxes out
// change no bit of any BoxResult or correlation vector.
func TestFullKeyAttackMatchesPerGuessReference(t *testing.T) {
	ct := des.Encrypt(attackKey, 0)
	for name, ts := range identitySets(t) {
		for _, stat := range []Stat{StatCPA, StatCPA2, StatDoM} {
			got := FullKeyAttack(ts, stat, 0, ct).Boxes
			for box := 0; box < 8; box++ {
				if want := refAttackSBox(ts, stat, box); got[box] != want {
					t.Errorf("%s %v box %d:\n got %+v\nwant %+v", name, stat, box, got[box], want)
				}
			}
		}
		for box := 0; box < 8; box++ {
			for guess := uint32(0); guess < 64; guess += 21 {
				if !sameBits(CorrelationTrace(ts, box, guess), refCorrelationTrace(ts, box, guess)) {
					t.Errorf("%s box %d guess %d: CorrelationTrace differs", name, box, guess)
				}
				if !sameBits(CorrelationTrace2(ts, box, guess), refCorrelationTrace2(ts, box, guess)) {
					t.Errorf("%s box %d guess %d: CorrelationTrace2 differs", name, box, guess)
				}
			}
		}
	}
}

// TestCorrelationKernelMatchesReferenceOnFixtures: on the whole 128-trace
// unmasked and selective fixture sets, round and full window, the prepared
// kernels reproduce the per-guess reference vectors bit for bit. The
// reference costs a full pass per guess, so each (set, window) pair checks
// two boxes — the true sub-key chunk of one and a wrong guess of the other
// — and the four pairs together cover all eight boxes.
func TestCorrelationKernelMatchesReferenceOnFixtures(t *testing.T) {
	setup(t)
	pair := 0
	for _, set := range []struct {
		name string
		ts   *TraceSet
	}{{"unmasked", unmaskedSet}, {"selective", maskedSet}} {
		for _, w := range []trace.Window{roundWin, fullWin} {
			ts := withWindow(set.ts, set.ts.Len(), w)
			s1, s2 := newCPAStats(ts, 1), newCPAStats(ts, 2)
			for _, box := range []int{pair, pair + 4} {
				guess := des.SubkeySixBits(attackKey, box)
				if box >= 4 {
					guess ^= 0x2A
				}
				if !sameBits(s1.correlation(box, guess), refCorrelationTrace(ts, box, guess)) {
					t.Errorf("%s %v box %d guess %d: order-1 correlation differs", set.name, w, box, guess)
				}
				if !sameBits(s2.correlation(box, guess), refCorrelationTrace2(ts, box, guess)) {
					t.Errorf("%s %v box %d guess %d: order-2 correlation differs", set.name, w, box, guess)
				}
				dom, n1, n0 := DifferenceOfMeansDetail(ts, box, 0, guess)
				rdom, rn1, rn0 := refDifferenceOfMeansDetail(ts, box, 0, guess)
				if !sameBits(dom, rdom) || n1 != rn1 || n0 != rn0 {
					t.Errorf("%s %v box %d guess %d: difference of means differs", set.name, w, box, guess)
				}
			}
			pair++
		}
	}
}

// TestBoxFanOutIndependentOfGOMAXPROCS: the box fan-out gives the
// per-guess reference's results whether the boxes run on one goroutine or
// on eight.
func TestBoxFanOutIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ts, _ := varianceLeakSet(t, 200)
	for _, stat := range []Stat{StatCPA, StatCPA2, StatDoM} {
		for _, procs := range []int{1, 8} {
			runtime.GOMAXPROCS(procs)
			got := FullKeyAttack(ts, stat, 0, 0).Boxes
			for box := 0; box < 8; box++ {
				if want := refAttackSBox(ts, stat, box); got[box] != want {
					t.Errorf("%v GOMAXPROCS=%d box %d:\n got %+v\nwant %+v", stat, procs, box, got[box], want)
				}
			}
		}
	}
}
