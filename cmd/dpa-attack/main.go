// Command dpa-attack runs the complete first-round key-recovery attack
// against a simulated DES build: collect energy traces under a chosen
// protection (policy, masking, shuffling), attack all eight S-boxes with the
// selected distinguisher to recover the 48 round-1 sub-key bits, and complete
// them to the full 56-bit key by trial encryption against one known
// (plaintext, ciphertext) pair.
//
// The distinguisher comes from the same structured attack object leakd and
// cmd/tvla share: -stat dom is Kocher's single-bit difference of means, -stat
// cpa the Hamming-weight correlation attack, and -stat cpa -order 2 the
// second-order centered-square correlation attack that defeats first-order
// boolean masking. -stat tvla is rejected here — leakage assessment without
// key recovery is cmd/tvla's job.
//
// Usage:
//
//	dpa-attack [-stat dom|cpa] [-order 1|2] [-policy none] [-shuffle]
//	           [-traces N] [-seed N] [-workers N] [-max N]
//	           [-key HEX] [-plaintext HEX] [-expect recover|fail]
//	           [-curve N1,N2,...] [-o attack.json]
//
// -curve runs the success-rate-vs-trace-count sweep behind
// BENCH_keyrecovery.json: for each listed trace count, the attack runs
// against the unprotected AND the shuffled build (one collection each, at the
// largest count; smaller counts attack its prefix — the plaintext sequence is
// drawn up front, so a prefix is exactly the smaller acquisition). -shuffle
// and -expect are ignored in curve mode.
//
// The exit status reports tool failure, not attack failure: an attack that
// does not recover the key exits 0 unless -expect recover was given (and
// vice versa with -expect fail), which is how the CI smoke tests assert that
// unprotected DES falls and protected DES holds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"desmask/internal/cliconf"
	"desmask/internal/des"
	"desmask/internal/desprog"
	"desmask/internal/dpa"
	"desmask/internal/energy"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpa-attack:", err)
	os.Exit(1)
}

// boxRecord is one S-box's attack outcome in the JSON record.
type boxRecord struct {
	Box      int     `json:"box"`
	Guess    uint32  `json:"guess"`
	Truth    uint32  `json:"truth"`
	Correct  bool    `json:"correct"`
	Peak     float64 `json:"peak"`
	RunnerUp float64 `json:"runner_up_peak"`
	// Margin is Peak/RunnerUp — how decisively the best guess won (1.0 means
	// a dead heat, i.e. no signal).
	Margin float64 `json:"margin"`
	// Degenerate counts guesses that scored zero because their prediction
	// never varied over the set (dpa.BoxResult.Degenerate).
	Degenerate int `json:"degenerate,omitempty"`
}

// attackRecord is one full-key attack outcome.
type attackRecord struct {
	Stat      string  `json:"stat"`
	Order     int     `json:"order"`
	Policy    string  `json:"policy"`
	Shuffle   bool    `json:"shuffle"`
	Traces    int     `json:"traces"`
	Seed      int64   `json:"seed"`
	MaxCycles uint64  `json:"max_cycles"`
	Seconds   float64 `json:"seconds"`
	// Truncated marks a set whose runs came back with unequal lengths and
	// were cut to the shortest (dpa.TraceSet.Truncated).
	Truncated bool `json:"truncated,omitempty"`

	Boxes           []boxRecord `json:"boxes,omitempty"`
	RecoveredChunks int         `json:"recovered_chunks"`
	Key             string      `json:"key,omitempty"`
	KeyOK           bool        `json:"key_ok"`
}

// curveRecord is the BENCH_keyrecovery.json shape: attack success vs trace
// count, unprotected vs shuffled.
type curveRecord struct {
	Stat      string         `json:"stat"`
	Order     int            `json:"order"`
	Policy    string         `json:"policy"`
	Seed      int64          `json:"seed"`
	MaxCycles uint64         `json:"max_cycles"`
	Curve     []attackRecord `json:"curve"`
}

// attack runs the full-key attack over ts and fills a record (without the
// per-box detail).
func attack(ts *dpa.TraceSet, st dpa.Stat, key, plaintext, ciphertext uint64) (dpa.FullKeyResult, attackRecord) {
	start := time.Now()
	res := dpa.FullKeyAttack(ts, st, plaintext, ciphertext)
	res.VerifyAgainst(key)
	rec := attackRecord{
		Stat: st.String(), Traces: ts.Len(), Seconds: time.Since(start).Seconds(),
		RecoveredChunks: res.Recovered, KeyOK: res.OK, Truncated: ts.Truncated,
	}
	if res.OK {
		rec.Key = fmt.Sprintf("%016X", res.Key)
	}
	return res, rec
}

// truncationWarning names the original run lengths of a set that Collect cut
// to its shortest run, or returns "" for an untruncated set. The attack then
// sees only the common prefix, which may end before the round-1 leak.
func truncationWarning(ts *dpa.TraceSet) string {
	if !ts.Truncated {
		return ""
	}
	counts := map[int]int{}
	for _, l := range ts.OrigLens {
		counts[l]++
	}
	lens := make([]int, 0, len(counts))
	for l := range counts {
		lens = append(lens, l)
	}
	sort.Ints(lens)
	parts := make([]string, len(lens))
	for i, l := range lens {
		parts[i] = fmt.Sprintf("%d cycles x%d", l, counts[l])
	}
	return fmt.Sprintf("warning: traces were truncated to the shortest run (%d cycles); original lengths: %s",
		lens[0], strings.Join(parts, ", "))
}

// boxReport formats one S-box's outcome as the per-box output line and its
// JSON record.
func boxReport(b dpa.BoxResult, key uint64) (string, boxRecord) {
	truth := des.SubkeySixBits(key, b.Box)
	margin := 0.0
	if b.RunnerUp.Peak > 0 {
		margin = b.Best.Peak / b.RunnerUp.Peak
	}
	mark := " "
	if b.Best.Guess == truth {
		mark = "*"
	}
	line := fmt.Sprintf("  S%d: guess=%02o truth=%02o %s peak=%-10.4g runner-up=%-10.4g margin=%.2f",
		b.Box+1, b.Best.Guess, truth, mark, b.Best.Peak, b.RunnerUp.Peak, margin)
	if b.Degenerate > 0 {
		line += fmt.Sprintf(" degenerate=%d/64", b.Degenerate)
	}
	return line, boxRecord{
		Box: b.Box, Guess: b.Best.Guess, Truth: truth,
		Correct: b.Best.Guess == truth,
		Peak:    b.Best.Peak, RunnerUp: b.RunnerUp.Peak, Margin: margin,
		Degenerate: b.Degenerate,
	}
}

// prefix views the first n traces of a set — exactly the acquisition a
// smaller -traces run would have produced, because the plaintext sequence is
// drawn up front from the seeded generator.
func prefix(ts *dpa.TraceSet, n int) *dpa.TraceSet {
	return &dpa.TraceSet{
		Plaintexts: ts.Plaintexts[:n], Traces: ts.Traces[:n],
		Window: ts.Window, OrigLens: ts.OrigLens[:n], Truncated: ts.Truncated,
	}
}

func writeOut(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}

func main() {
	params := cliconf.DefaultAssess()
	// Attack-tool defaults: the victim is the unprotected build and 256 traces
	// recover the full key on it; assessments' selective default would make
	// every run a (correct but confusing) failure report.
	params.Policy = "none"
	params.Traces = 256
	params.AddFlags(flag.CommandLine)
	stat := flag.String("stat", "cpa", "distinguisher: dom | cpa (-order 2 selects the second-order centered-square cpa)")
	expect := flag.String("expect", "", "assert the outcome: recover (exit 1 unless the key is recovered) or fail (exit 1 if it is)")
	curve := flag.String("curve", "", "comma-separated trace counts: run the success-vs-traces sweep (unprotected and shuffled) instead of one attack")
	out := flag.String("o", "", "write the attack record as JSON to this file")
	flag.Parse()

	params.Attack.Stat = *stat
	r, err := params.Validate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpa-attack:", err)
		os.Exit(2)
	}
	if r.Kernel != "des" {
		fmt.Fprintln(os.Stderr, "dpa-attack: key recovery is DES-only; -kernel must be des")
		os.Exit(2)
	}
	var st dpa.Stat
	switch {
	case r.StatV == "dom":
		st = dpa.StatDoM
	case r.StatV == "cpa" && r.OrderV == 2:
		st = dpa.StatCPA2
	case r.StatV == "cpa":
		st = dpa.StatCPA
	default:
		fmt.Fprintf(os.Stderr, "dpa-attack: -stat %s is a leakage assessment, not a key-recovery attack; use cmd/tvla\n", r.StatV)
		os.Exit(2)
	}
	switch *expect {
	case "", "recover", "fail":
	default:
		fmt.Fprintf(os.Stderr, "dpa-attack: -expect %q (want recover or fail)\n", *expect)
		os.Exit(2)
	}
	ciphertext := des.Encrypt(r.KeyV, r.PlaintextV)

	if *curve != "" {
		runCurve(r, st, *curve, ciphertext, *out)
		return
	}

	m, err := desprog.NewFull(r.CompilerOptions(), energy.DefaultConfig())
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	ts, err := dpa.Collect(m, r.KeyV, dpa.Config{
		NumTraces: r.Traces, Seed: r.Seed, MaxCycles: r.MaxCycles,
		Workers: r.Workers, Gang: r.Gang,
	})
	if err != nil {
		fatal(err)
	}
	collectSec := time.Since(start).Seconds()
	if w := truncationWarning(ts); w != "" {
		fmt.Fprintln(os.Stderr, "dpa-attack:", w)
	}

	res, rec := attack(ts, st, r.KeyV, r.PlaintextV, ciphertext)
	rec.Order, rec.Policy, rec.Shuffle = r.OrderV, r.PolicyV.String(), r.ShuffleV
	rec.Seed, rec.MaxCycles = r.Seed, r.MaxCycles

	pol := rec.Policy
	if rec.Shuffle {
		pol += "+shuffle"
	}
	fmt.Printf("attack %-4s order=%d policy=%-16s traces=%d max=%d (collected in %.1fs, attacked in %.1fs)\n",
		rec.Stat, rec.Order, pol, rec.Traces, rec.MaxCycles, collectSec, rec.Seconds)
	for _, b := range res.Boxes {
		line, br := boxReport(b, r.KeyV)
		fmt.Println(line)
		rec.Boxes = append(rec.Boxes, br)
	}
	fmt.Printf("recovered %d/8 sub-key chunks\n", res.Recovered)
	if res.OK {
		fmt.Printf("KEY RECOVERED: %016X (parity bits zero) reproduces the known ciphertext\n", res.Key)
	} else {
		fmt.Println("key not recovered: no completion of the guessed chunks reproduces the known ciphertext")
	}

	if *out != "" {
		writeOut(*out, rec)
	}

	if *expect == "recover" && !res.OK {
		fmt.Fprintln(os.Stderr, "dpa-attack: FAIL: expected key recovery")
		os.Exit(1)
	}
	if *expect == "fail" && res.OK {
		fmt.Fprintln(os.Stderr, "dpa-attack: FAIL: expected the countermeasure to hold, but the key was recovered")
		os.Exit(1)
	}
}

// runCurve sweeps trace counts against the unprotected and shuffled builds of
// the configured policy: one acquisition per build at the largest count,
// attacked at each prefix.
func runCurve(r *cliconf.ResolvedAssess, st dpa.Stat, spec string, ciphertext uint64, out string) {
	var counts []int
	maxN := 0
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 8 {
			fatal(fmt.Errorf("bad -curve entry %q: want trace counts >= 8", f))
		}
		counts = append(counts, n)
		if n > maxN {
			maxN = n
		}
	}
	rec := curveRecord{
		Stat: st.String(), Order: r.OrderV, Policy: r.PolicyV.String(),
		Seed: r.Seed, MaxCycles: r.MaxCycles,
	}
	for _, shuffle := range []bool{false, true} {
		opt := r.CompilerOptions()
		opt.Shuffle = shuffle
		m, err := desprog.NewFull(opt, energy.DefaultConfig())
		if err != nil {
			fatal(err)
		}
		ts, err := dpa.Collect(m, r.KeyV, dpa.Config{
			NumTraces: maxN, Seed: r.Seed, MaxCycles: r.MaxCycles,
			Workers: r.Workers, Gang: r.Gang,
		})
		if err != nil {
			fatal(err)
		}
		if w := truncationWarning(ts); w != "" {
			fmt.Fprintln(os.Stderr, "dpa-attack:", w)
		}
		for _, n := range counts {
			_, one := attack(prefix(ts, n), st, r.KeyV, r.PlaintextV, ciphertext)
			one.Boxes = nil
			one.Order, one.Policy, one.Shuffle = r.OrderV, rec.Policy, shuffle
			one.Seed, one.MaxCycles = r.Seed, r.MaxCycles
			pol := one.Policy
			if shuffle {
				pol += "+shuffle"
			}
			fmt.Printf("curve %-4s policy=%-16s traces=%4d recovered=%d/8 key=%v (%.1fs)\n",
				one.Stat, pol, n, one.RecoveredChunks, one.KeyOK, one.Seconds)
			rec.Curve = append(rec.Curve, one)
		}
	}
	if out == "" {
		out = "BENCH_keyrecovery.json"
	}
	writeOut(out, rec)
}
