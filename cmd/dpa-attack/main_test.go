package main

import (
	"encoding/json"
	"strings"
	"testing"

	"desmask/internal/des"
	"desmask/internal/dpa"
	"desmask/internal/trace"
)

const testKey = 0x133457799BBCDFF1

// tinySet is a synthetic 4-trace set, small enough to attack in a test.
func tinySet(truncated bool) *dpa.TraceSet {
	ts := &dpa.TraceSet{
		Plaintexts: []uint64{0, ^uint64(0), 0x0123456789ABCDEF, 0xFEDCBA9876543210},
		Traces:     [][]float64{{1, 2, 3}, {2, 3, 1}, {3, 1, 2}, {1, 1, 1}},
		OrigLens:   []int{3, 3, 3, 3},
		Window:     trace.Window{Start: 0, End: 3},
	}
	if truncated {
		ts.OrigLens = []int{3, 5, 3, 4}
		ts.Truncated = true
	}
	return ts
}

// TestTruncatedSetIsReported: a set Collect cut to its shortest run draws a
// warning naming the original lengths and is marked in the JSON record.
func TestTruncatedSetIsReported(t *testing.T) {
	ct := des.Encrypt(testKey, 0)
	if w := truncationWarning(tinySet(false)); w != "" {
		t.Errorf("untruncated set warned: %q", w)
	}
	_, rec := attack(tinySet(false), dpa.StatCPA, testKey, 0, ct)
	if data, _ := json.Marshal(rec); strings.Contains(string(data), "truncated") {
		t.Errorf("untruncated record mentions truncation: %s", data)
	}

	w := truncationWarning(tinySet(true))
	for _, want := range []string{"(3 cycles)", "3 cycles x2", "4 cycles x1", "5 cycles x1"} {
		if !strings.Contains(w, want) {
			t.Errorf("warning %q does not mention %q", w, want)
		}
	}
	_, rec = attack(tinySet(true), dpa.StatCPA, testKey, 0, ct)
	if data, _ := json.Marshal(rec); !strings.Contains(string(data), `"truncated":true`) {
		t.Errorf("truncated record lacks truncated=true: %s", data)
	}
}

// TestBoxReportShowsDegenerateGuesses: a box whose guesses degenerated says
// how many, and a healthy box line stays as it was.
func TestBoxReportShowsDegenerateGuesses(t *testing.T) {
	one := &dpa.TraceSet{
		Plaintexts: []uint64{0x0123456789ABCDEF},
		Traces:     [][]float64{{5, 6, 7}},
		Window:     trace.Window{Start: 0, End: 3},
	}
	line, rec := boxReport(dpa.CPAAttackSBox(one, 0), testKey)
	if !strings.Contains(line, "degenerate=64/64") || rec.Degenerate != 64 {
		t.Errorf("1-trace box: line %q, record degenerate %d; want 64/64", line, rec.Degenerate)
	}
	line, rec = boxReport(dpa.BoxResult{Box: 2, Best: dpa.GuessScore{Guess: 5, Peak: 1}}, testKey)
	if strings.Contains(line, "degenerate") || rec.Degenerate != 0 {
		t.Errorf("healthy box line %q mentions degenerate guesses", line)
	}
}
