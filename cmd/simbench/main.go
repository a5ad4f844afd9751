// Command simbench measures simulator performance on two axes and writes
// both results as JSON:
//
//  1. Core throughput: full DES encryptions on one predecoded pipeline,
//     untraced and traced, reporting simulated cycles/sec, ns/cycle and
//     allocs per encryption (-trials, BENCH_predecode.json).
//  2. Batch trace acquisition — the workload behind DPA trace collection —
//     sequentially (workers=1) and in parallel (GOMAXPROCS workers) on the
//     same simulation session, verifying the two trace sets are
//     bit-identical (BENCH_parallel_traces.json).
//
// With -gang N (N > 1) it instead benchmarks gang-scheduled lockstep
// assessment against the scalar path on the fixed-vs-random DES TVLA
// workload for every protection policy, verifying that the gang t-vector is
// bit-identical to the scalar one, and writes BENCH_gang.json.
//
// Usage:
//
//	simbench [-traces N] [-trials N] [-max N] [-policy none]
//	         [-o BENCH_parallel_traces.json] [-core-o BENCH_predecode.json]
//	         [-gang N] [-gang-o BENCH_gang.json]
//	         [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"desmask/internal/cliconf"
	"desmask/internal/compiler"
	"desmask/internal/desprog"
	"desmask/internal/dpa"
	"desmask/internal/leakstat"
)

// Result is the batch-acquisition benchmark record emitted as JSON.
type Result struct {
	Policy     string `json:"policy"`
	Traces     int    `json:"traces"`
	MaxCycles  uint64 `json:"max_cycles"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// CoresLimited flags runs where the machine has fewer physical cores
	// than requested workers, so the parallel number understates what the
	// session layer delivers on adequate hardware.
	CoresLimited      bool    `json:"cores_limited"`
	SequentialSeconds float64 `json:"sequential_seconds"`
	ParallelSeconds   float64 `json:"parallel_seconds"`
	SequentialPerSec  float64 `json:"sequential_traces_per_sec"`
	ParallelPerSec    float64 `json:"parallel_traces_per_sec"`
	Speedup           float64 `json:"speedup"`
	BitIdentical      bool    `json:"bit_identical"`
	SequentialWorkers int     `json:"sequential_workers"`
	ParallelWorkers   int     `json:"parallel_workers"`
}

// CoreRun is one core-throughput configuration (traced or untraced).
type CoreRun struct {
	CyclesPerSec float64 `json:"cycles_per_sec"`
	NsPerCycle   float64 `json:"ns_per_cycle"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	Seconds      float64 `json:"seconds"`
}

// CoreResult is the predecoded-core benchmark record emitted as JSON.
type CoreResult struct {
	Policy      string  `json:"policy"`
	Trials      int     `json:"trials"`
	CyclesPerOp uint64  `json:"cycles_per_encryption"`
	Untraced    CoreRun `json:"untraced"`
	Traced      CoreRun `json:"traced"`
}

// GangPolicyRun is the scalar-vs-gang assessment comparison for one policy.
type GangPolicyRun struct {
	Policy        string  `json:"policy"`
	ScalarSeconds float64 `json:"scalar_seconds"`
	GangSeconds   float64 `json:"gang_seconds"`
	ScalarPerSec  float64 `json:"scalar_traces_per_sec"`
	GangPerSec    float64 `json:"gang_traces_per_sec"`
	Speedup       float64 `json:"speedup"`
	// BitIdentical reports that the gang run's per-sample t-vector (and so
	// the verdict) matched the scalar run bit-for-bit.
	BitIdentical bool    `json:"bit_identical"`
	THash        string  `json:"t_hash"`
	MaxAbsT      float64 `json:"max_abs_t"`
	Leak         bool    `json:"leak"`
	GangRuns     uint64  `json:"gang_runs"`
	GangDeopts   uint64  `json:"gang_deopts"`
}

// GangResult is the gang benchmark record (BENCH_gang.json).
type GangResult struct {
	Traces       int             `json:"traces"`
	MaxCycles    uint64          `json:"max_cycles"`
	Gang         int             `json:"gang"`
	Workers      int             `json:"workers"`
	Shards       int             `json:"shards"`
	GOMAXPROCS   int             `json:"gomaxprocs"`
	NumCPU       int             `json:"num_cpu"`
	CoresLimited bool            `json:"cores_limited"`
	Runs         []GangPolicyRun `json:"runs"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simbench:", err)
	os.Exit(1)
}

// benchCore runs full DES encryptions through the session layer on a single
// worker and reports simulated throughput plus the allocation cost of one
// encryption. The first run warms the worker pool and trace buffers so the
// timed loop sees the steady state the predecoded core is optimized for.
func benchCore(m *desprog.Machine, trials int, capture bool) (CoreRun, uint64, error) {
	const (
		key   = 0x133457799BBCDFF1
		plain = 0x0123456789ABCDEF
	)
	job, err := m.EncryptJob(key, plain, 0, capture)
	if err != nil {
		return CoreRun{}, 0, err
	}
	r := m.Runner()
	warm := r.Run(job)
	if warm.Err != nil || !warm.Done {
		return CoreRun{}, 0, fmt.Errorf("warm-up run failed: done=%v err=%v", warm.Done, warm.Err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var cycles uint64
	for i := 0; i < trials; i++ {
		res := r.Run(job)
		if res.Err != nil || !res.Done {
			return CoreRun{}, 0, fmt.Errorf("trial %d failed: done=%v err=%v", i, res.Done, res.Err)
		}
		cycles += res.Stats.Cycles
	}
	sec := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	run := CoreRun{
		CyclesPerSec: float64(cycles) / sec,
		NsPerCycle:   sec * 1e9 / float64(cycles),
		AllocsPerOp:  float64(after.Mallocs-before.Mallocs) / float64(trials),
		Seconds:      sec,
	}
	return run, cycles / uint64(trials), nil
}

// tBitsHash is an order-sensitive FNV-1a hash over the raw float64 bits of a
// t-vector: equal hashes mean bit-identical statistics.
func tBitsHash(t []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range t {
		b := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// benchGang times the fixed-vs-random DES assessment once scalar and once
// gang-scheduled for every protection policy, asserting that both paths
// produce the same t-vector bit-for-bit. The shard count is part of the
// verdict's identity, so both runs pin the same Shards.
func benchGang(traces, gangW, workers int, maxCycles uint64) (GangResult, error) {
	const (
		key    = 0x133457799BBCDFF1
		plain  = 0x0123456789ABCDEF
		shards = 2
	)
	res := GangResult{
		Traces:       traces,
		MaxCycles:    maxCycles,
		Gang:         gangW,
		Workers:      workers,
		Shards:       shards,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CoresLimited: runtime.NumCPU() < workers,
	}
	for _, policy := range []compiler.Policy{compiler.PolicyNone, compiler.PolicySelective, compiler.PolicyAllSecure} {
		m, err := desprog.New(policy)
		if err != nil {
			return res, err
		}
		win, err := leakstat.DESMaskedWindow(m, key, plain, maxCycles)
		if err != nil {
			return res, fmt.Errorf("%s: window: %w", policy, err)
		}
		src := leakstat.DESKeySource(m, key, plain, 7, maxCycles)
		cfg := leakstat.Config{
			NumTraces: traces,
			Seed:      7,
			Shards:    shards,
			Workers:   workers,
			Window:    win,
		}
		var runs0, deopts0 uint64
		assess := func(gang int) (*leakstat.Report, float64, error) {
			c := cfg
			c.Gang = gang
			// Warm the session's worker pool (and gang engines) so the
			// timed run sees the steady state; the lockstep counters are
			// snapshotted after warming so the deltas cover the timed run.
			if _, err := leakstat.Assess(src, c); err != nil {
				return nil, 0, err
			}
			runs0, deopts0 = m.Runner().GangRuns(), m.Runner().GangDeopts()
			start := time.Now()
			rep, err := leakstat.Assess(src, c)
			return rep, time.Since(start).Seconds(), err
		}
		scalarRep, scalarSec, err := assess(0)
		if err != nil {
			return res, fmt.Errorf("%s: scalar assess: %w", policy, err)
		}
		gangRep, gangSec, err := assess(gangW)
		if err != nil {
			return res, fmt.Errorf("%s: gang assess: %w", policy, err)
		}
		scalarHash, gangHash := tBitsHash(scalarRep.T), tBitsHash(gangRep.T)
		res.Runs = append(res.Runs, GangPolicyRun{
			Policy:        policy.String(),
			ScalarSeconds: scalarSec,
			GangSeconds:   gangSec,
			ScalarPerSec:  float64(traces) / scalarSec,
			GangPerSec:    float64(traces) / gangSec,
			Speedup:       scalarSec / gangSec,
			BitIdentical:  scalarHash == gangHash && scalarRep.Leak == gangRep.Leak,
			THash:         gangHash,
			MaxAbsT:       gangRep.MaxAbsT,
			Leak:          gangRep.Leak,
			GangRuns:      m.Runner().GangRuns() - runs0,
			GangDeopts:    m.Runner().GangDeopts() - deopts0,
		})
	}
	return res, nil
}

func writeJSON(path string, v any) {
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
	batch := cliconf.Batch{Traces: 64, Trials: 5, MaxCycles: 25_000}
	batch.AddFlags(flag.CommandLine)
	policyStr := flag.String("policy", "none", "protection policy to benchmark: "+cliconf.PolicyUsage())
	out := flag.String("o", "BENCH_parallel_traces.json", "batch benchmark output JSON file")
	coreOut := flag.String("core-o", "BENCH_predecode.json", "core benchmark output JSON file")
	gangOut := flag.String("gang-o", "BENCH_gang.json", "gang benchmark output JSON file (used with -gang N)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if err := batch.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(2)
	}
	policy, err := cliconf.ParsePolicy(*policyStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(2)
	}
	traces, trials, maxCycles := &batch.Traces, &batch.Trials, &batch.MaxCycles
	m, err := desprog.New(policy)
	if err != nil {
		fatal(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if batch.Gang > 1 {
		workers := batch.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		res, err := benchGang(*traces, batch.Gang, workers, *maxCycles)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("gang (traces=%d max=%d gang=%d workers=%d shards=%d):\n",
			res.Traces, res.MaxCycles, res.Gang, res.Workers, res.Shards)
		if res.CoresLimited {
			fmt.Fprintf(os.Stderr, "simbench: warning: only %d CPUs for %d workers; parallel numbers are core-limited\n",
				res.NumCPU, res.Workers)
		}
		ok := true
		for _, r := range res.Runs {
			fmt.Printf("  %-10s scalar %7.1f traces/s  gang %7.1f traces/s  speedup %.2fx  bit-identical: %v  (gang runs %d, deopts %d)\n",
				r.Policy, r.ScalarPerSec, r.GangPerSec, r.Speedup, r.BitIdentical, r.GangRuns, r.GangDeopts)
			ok = ok && r.BitIdentical
		}
		if !ok {
			fmt.Fprintln(os.Stderr, "simbench: FAIL: gang t-vector diverged from scalar")
			os.Exit(1)
		}
		writeJSON(*gangOut, res)
		return
	}

	// Part 1: core throughput on the predecoded micro-op pipeline.
	untraced, cyclesPerOp, err := benchCore(m, *trials, false)
	if err != nil {
		fatal(err)
	}
	traced, _, err := benchCore(m, *trials, true)
	if err != nil {
		fatal(err)
	}
	core := CoreResult{
		Policy:      policy.String(),
		Trials:      *trials,
		CyclesPerOp: cyclesPerOp,
		Untraced:    untraced,
		Traced:      traced,
	}
	fmt.Printf("core (policy=%s, %d cycles/encryption, %d trials):\n", core.Policy, core.CyclesPerOp, core.Trials)
	fmt.Printf("  untraced: %8.0f cycles/s  %6.2f ns/cycle  %8.1f allocs/op\n",
		untraced.CyclesPerSec, untraced.NsPerCycle, untraced.AllocsPerOp)
	fmt.Printf("  traced:   %8.0f cycles/s  %6.2f ns/cycle  %8.1f allocs/op\n",
		traced.CyclesPerSec, traced.NsPerCycle, traced.AllocsPerOp)
	writeJSON(*coreOut, core)

	// Part 2: batch trace acquisition, sequential vs parallel.
	collect := func(workers int) (*dpa.TraceSet, float64, error) {
		cfg := dpa.Config{NumTraces: *traces, Seed: 42, MaxCycles: *maxCycles, Workers: workers}
		start := time.Now()
		ts, err := dpa.Collect(m, 0x133457799BBCDFF1, cfg)
		return ts, time.Since(start).Seconds(), err
	}
	// Warm the session's worker pool and trace-size hint so both timed runs
	// see the same steady state.
	if _, _, err := collect(0); err != nil {
		fatal(err)
	}
	seqTS, seqSec, err := collect(1)
	if err != nil {
		fatal(err)
	}
	parWorkers := runtime.GOMAXPROCS(0)
	if batch.Workers > 0 {
		parWorkers = batch.Workers
	}
	parTS, parSec, err := collect(parWorkers)
	if err != nil {
		fatal(err)
	}

	identical := len(seqTS.Traces) == len(parTS.Traces)
	for i := 0; identical && i < len(seqTS.Traces); i++ {
		if seqTS.Plaintexts[i] != parTS.Plaintexts[i] || len(seqTS.Traces[i]) != len(parTS.Traces[i]) {
			identical = false
			break
		}
		for j := range seqTS.Traces[i] {
			if seqTS.Traces[i][j] != parTS.Traces[i][j] {
				identical = false
				break
			}
		}
	}

	res := Result{
		Policy:            policy.String(),
		Traces:            *traces,
		MaxCycles:         *maxCycles,
		GOMAXPROCS:        parWorkers,
		NumCPU:            runtime.NumCPU(),
		CoresLimited:      runtime.NumCPU() < parWorkers,
		SequentialSeconds: seqSec,
		ParallelSeconds:   parSec,
		SequentialPerSec:  float64(*traces) / seqSec,
		ParallelPerSec:    float64(*traces) / parSec,
		Speedup:           seqSec / parSec,
		BitIdentical:      identical,
		SequentialWorkers: 1,
		ParallelWorkers:   parWorkers,
	}
	fmt.Printf("batch (policy=%s traces=%d max=%d):\n", res.Policy, res.Traces, res.MaxCycles)
	fmt.Printf("  sequential: %6.2f traces/s (%.2fs, 1 worker)\n", res.SequentialPerSec, seqSec)
	fmt.Printf("  parallel:   %6.2f traces/s (%.2fs, %d workers)\n", res.ParallelPerSec, parSec, parWorkers)
	fmt.Printf("  speedup: %.2fx  bit-identical: %v\n", res.Speedup, res.BitIdentical)
	if res.CoresLimited {
		fmt.Fprintf(os.Stderr, "simbench: warning: only %d CPUs for %d workers; parallel speedup is core-limited\n",
			res.NumCPU, parWorkers)
	}
	if !identical {
		fmt.Fprintln(os.Stderr, "simbench: FAIL: parallel trace set diverged from sequential")
		os.Exit(1)
	}
	writeJSON(*out, res)

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}
