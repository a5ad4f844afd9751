// Command tvla runs the streaming fixed-vs-random Welch t-test leakage
// assessment (TVLA) against the masked builds: the statistical
// generalization of the exact two-trace differentials in cmd/experiments,
// scaled to thousands of traces in constant memory.
//
// Report mode assesses one workload/policy (or every policy with -all) and
// prints — optionally writes as JSON — the max |t| verdict. For DES, -vary
// chooses what differs between the populations: "key" (default; the window
// is the whole masked region, [0, output permutation)) or "plaintext" (the
// window is round 1, past the insecure-by-design initial permutation).
//
// Bench mode (-bench) is the acceptance harness behind BENCH_tvla.json: it
// assesses unprotected and soundly masked DES builds at workers 1/4/16,
// checks the t-vectors are bit-identical across worker counts, checks the
// masked verdicts stay under threshold while the unprotected build exceeds
// it, reports the deliberately weak policies (seeds-only, naive-loadstore)
// without asserting on them, and compares throughput and memory against the
// materialized dpa.Collect baseline. It exits nonzero if any asserted
// property fails.
//
// Usage:
//
//	tvla [-kernel des|aes128|tea|sha1] [-policy selective | -all]
//	     [-vary key|plaintext] [-traces N] [-seed N] [-workers N]
//	     [-shards N] [-threshold T] [-max N] [-key HEX] [-plaintext HEX]
//	     [-leakcheck] [-o report.json]
//
//	tvla -bench [-traces N] [-baseline-traces N] [-o BENCH_tvla.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"time"

	"desmask/internal/cliconf"
	"desmask/internal/compiler"
	"desmask/internal/desprog"
	"desmask/internal/dpa"
	"desmask/internal/energy"
	"desmask/internal/isa"
	"desmask/internal/kernels"
	"desmask/internal/leakcheck"
	"desmask/internal/leakstat"
	"desmask/internal/trace"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tvla:", err)
	os.Exit(1)
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

// assessment is one policy's report-mode record.
type assessment struct {
	Workload string `json:"workload"`
	Policy   string `json:"policy"`
	ISA      string `json:"isa"`
	Vary     string `json:"vary"`
	Shuffle  bool   `json:"shuffle,omitempty"`
	*leakstat.Report
	Seconds      float64 `json:"seconds"`
	TracesPerSec float64 `json:"traces_per_sec"`
	// Taint leak sites outside declassification, when -leakcheck ran.
	TaintLeakSites *int `json:"taint_leak_sites,omitempty"`
}

// desSetup builds the machine, source, and window of one DES assessment.
func desSetup(opt compiler.Options, vary string, key, plain uint64, seed int64, maxCycles uint64) (*desprog.Machine, leakstat.Source, trace.Window, error) {
	m, err := desprog.NewFull(opt, energy.DefaultConfig())
	if err != nil {
		return nil, leakstat.Source{}, trace.Window{}, err
	}
	var src leakstat.Source
	var win trace.Window
	switch vary {
	case "key":
		src = leakstat.DESKeySource(m, key, plain, seed, maxCycles)
		win, err = leakstat.DESMaskedWindow(m, key, plain, maxCycles)
	case "plaintext":
		src = leakstat.DESPlaintextSource(m, key, plain, seed, maxCycles)
		win, err = leakstat.DESRound1Window(m, key, plain, maxCycles)
	default:
		err = fmt.Errorf("unknown -vary %q (want key or plaintext)", vary)
	}
	return m, src, win, err
}

func assess(kernel string, opt compiler.Options, vary string, key, plain uint64,
	cfg leakstat.Config, maxCycles uint64, runLeakcheck bool) (*assessment, error) {
	var (
		src leakstat.Source
		win trace.Window
		err error

		taintN *int
	)
	switch kernel {
	case "des":
		var m *desprog.Machine
		m, src, win, err = desSetup(opt, vary, key, plain, cfg.Seed, maxCycles)
		if err != nil {
			return nil, err
		}
		if runLeakcheck {
			keyAddr, ok := m.Res.Program.Symbols[compiler.GlobalLabel("key")]
			if !ok {
				return nil, fmt.Errorf("no key global")
			}
			rep, err := leakcheck.CheckProgram(m.Res.Program, []leakcheck.TaintRange{{Addr: keyAddr, Words: 64}})
			if err != nil {
				return nil, err
			}
			lo := m.Res.Program.Symbols["f_output_permutation"]
			hi := m.Res.Program.Symbols["f_main"]
			n := len(rep.LeaksOutsideRegion(lo, hi))
			taintN = &n
		}
	default:
		k, ok := kernels.ByName(kernel)
		if !ok {
			return nil, fmt.Errorf("unknown -kernel %q (want des, aes128, tea or sha1)", kernel)
		}
		if vary != "key" {
			return nil, fmt.Errorf("-vary %s is DES-only; kernel populations always vary the secret", vary)
		}
		m, err := kernels.Build(k, opt, energy.DefaultConfig())
		if err != nil {
			return nil, err
		}
		secret, public, mask := kernels.TVLAInputs(k)
		src = leakstat.KernelSecretSource(m, secret, public, mask, cfg.Seed, maxCycles)
		win, err = leakstat.KernelMaskedWindow(m, secret, public)
		if err != nil {
			return nil, err
		}
		if runLeakcheck {
			addr, ok := m.Res.Program.Symbols[compiler.GlobalLabel(k.SecretGlobal)]
			if !ok {
				return nil, fmt.Errorf("no %s global", k.SecretGlobal)
			}
			rep, err := leakcheck.CheckProgram(m.Res.Program, []leakcheck.TaintRange{{Addr: addr, Words: len(secret)}})
			if err != nil {
				return nil, err
			}
			lo, hi := m.Res.Program.Symbols["f_emit_output"], m.Res.Program.Symbols["f_main"]
			n := len(rep.LeaksOutsideRegion(lo, hi))
			taintN = &n
		}
		vary = "secret"
	}
	cfg.Window = win
	start := time.Now()
	rep, err := leakstat.Assess(src, cfg)
	if err != nil {
		return nil, err
	}
	sec := time.Since(start).Seconds()
	return &assessment{
		Workload: kernel, Policy: opt.Policy.String(), ISA: opt.Target.Name(), Vary: vary,
		Shuffle: opt.Shuffle,
		Report:  rep, Seconds: sec, TracesPerSec: float64(rep.NumTraces) / sec,
		TaintLeakSites: taintN,
	}, nil
}

func printAssessment(a *assessment) {
	verdict := "no leak"
	if a.Leak {
		verdict = "LEAK"
	}
	pol := a.Policy
	if a.Shuffle {
		pol += "+shuffle"
	}
	fmt.Printf("%-8s %-16s isa=%-4s vary=%-9s order=%d traces=%d window=[%d,%d) max|t|=%.4g @%d  %s (threshold %.1f)\n",
		a.Workload, pol, a.ISA, a.Vary, a.Order, a.NumTraces, a.WindowStart, a.WindowEnd,
		a.MaxAbsT, a.MaxTCycle, verdict, a.Threshold)
	fmt.Printf("         fixed/random=%d/%d shards=%d state=%.1f KiB  %.1f traces/s\n",
		a.FixedN, a.RandomN, a.Shards, float64(a.StateBytes)/1024, a.TracesPerSec)
	if a.TaintLeakSites != nil {
		fmt.Printf("         taint check: %d leak sites outside declassification\n", *a.TaintLeakSites)
	}
}

func main() {
	params := cliconf.DefaultAssess()
	params.AddFlags(flag.CommandLine)
	all := flag.Bool("all", false, "assess every policy")
	runLeakcheck := flag.Bool("leakcheck", false, "also run the dynamic taint check on each build")
	bench := flag.Bool("bench", false, "benchmark mode: acceptance checks + BENCH_tvla.json")
	baselineTraces := flag.Int("baseline-traces", 1024, "materialized-baseline collection size (bench mode)")
	out := flag.String("o", "", "write the report/benchmark as JSON to this file")
	flag.Parse()

	r, err := params.Validate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tvla:", err)
		os.Exit(2)
	}

	if *bench {
		runBench(r.Traces, *baselineTraces, r.Workers, r.MaxCycles, r.KeyV, r.PlaintextV, r.Seed, *out)
		return
	}

	pols := []compiler.Policy{r.PolicyV}
	if *all {
		pols = compiler.Policies()
	}

	cfg := r.Config()
	opt := r.CompilerOptions()
	var reports []*assessment
	for _, pol := range pols {
		opt.Policy = pol
		a, err := assess(r.Kernel, opt, r.Vary, r.KeyV, r.PlaintextV, cfg, r.MaxCycles, *runLeakcheck)
		if err != nil {
			fatal(err)
		}
		printAssessment(a)
		reports = append(reports, a)
	}
	if *out != "" {
		if *all {
			writeJSON(*out, reports)
		} else {
			writeJSON(*out, reports[0])
		}
	}
}

// tBitsHash fingerprints a t-vector's exact bit pattern, the cheap witness
// for cross-worker bit-identity in the JSON record.
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

// benchRun is one (policy, workers) assessment in the benchmark record.
type benchRun struct {
	Policy       string  `json:"policy"`
	Workers      int     `json:"workers"`
	Seconds      float64 `json:"seconds"`
	TracesPerSec float64 `json:"traces_per_sec"`
	MaxAbsT      float64 `json:"max_abs_t"`
	Leak         bool    `json:"leak"`
	TBitsHash    string  `json:"t_bits_fnv64"`
	StateBytes   int     `json:"state_bytes"`
}

// benchBaseline is the materialized dpa.Collect comparison.
type benchBaseline struct {
	Traces       int     `json:"traces"`
	Seconds      float64 `json:"seconds"`
	TracesPerSec float64 `json:"traces_per_sec"`
	// RetainedBytes is the exact size of the materialized trace set (trace
	// buffers + plaintexts + lengths); MeasuredHeapBytes the observed
	// live-heap growth while holding it (0 if unrelated frees swamped it);
	// ExtrapolatedBytesAtN is the per-trace retained cost at the streaming
	// run's trace count — the O(N) memory the engine avoids.
	RetainedBytes        uint64  `json:"retained_bytes"`
	MeasuredHeapBytes    uint64  `json:"measured_heap_bytes"`
	BytesPerTrace        float64 `json:"bytes_per_trace"`
	ExtrapolatedBytesAtN uint64  `json:"extrapolated_bytes_at_n"`
}

// benchResult is the BENCH_tvla.json record.
type benchResult struct {
	Workload   string  `json:"workload"`
	Vary       string  `json:"vary"`
	Traces     int     `json:"traces"`
	MaxCycles  uint64  `json:"max_cycles"`
	WindowLen  int     `json:"window_len"`
	Threshold  float64 `json:"threshold"`
	GOMAXPROCS int     `json:"gomaxprocs"`

	Runs []benchRun `json:"runs"`
	// WeakPolicies reports the deliberately unsound policies (seeds-only,
	// naive-loadstore); they are expected to leak and are not asserted on.
	WeakPolicies []benchRun `json:"weak_policies"`

	BitIdenticalAcrossWorkers bool `json:"bit_identical_across_workers"`
	MaskedBelowThreshold      bool `json:"masked_below_threshold"`
	UnprotectedAboveThreshold bool `json:"unprotected_above_threshold"`

	EngineStateBytes      int           `json:"engine_state_bytes"`
	Baseline              benchBaseline `json:"materialized_baseline"`
	BaselineOverEngineMem float64       `json:"baseline_extrapolated_over_engine_bytes"`
}

func runBench(traces, baselineTraces, workers int, maxCycles uint64, key, plain uint64, seed int64, out string) {
	if out == "" {
		out = "BENCH_tvla.json"
	}
	_ = workers
	res := benchResult{
		Workload: "des", Vary: "key", Traces: traces, MaxCycles: maxCycles,
		Threshold: leakstat.DefaultThreshold, GOMAXPROCS: runtime.GOMAXPROCS(0),
		BitIdenticalAcrossWorkers: true,
		MaskedBelowThreshold:      true,
		UnprotectedAboveThreshold: false,
	}

	sound := []compiler.Policy{compiler.PolicyNone, compiler.PolicySelective, compiler.PolicyAllSecure}
	workerCounts := []int{1, 4, 16}
	for _, pol := range sound {
		_, src, win, err := desSetup(compiler.Options{Policy: pol, Target: isa.PISA}, "key", key, plain, seed, maxCycles)
		if err != nil {
			fatal(err)
		}
		res.WindowLen = win.Len()
		var ref []float64
		for _, w := range workerCounts {
			start := time.Now()
			rep, err := leakstat.Assess(src, leakstat.Config{
				NumTraces: traces, Seed: seed, Workers: w, Window: win,
			})
			if err != nil {
				fatal(err)
			}
			sec := time.Since(start).Seconds()
			run := benchRun{
				Policy: pol.String(), Workers: w, Seconds: sec,
				TracesPerSec: float64(traces) / sec,
				MaxAbsT:      rep.MaxAbsT, Leak: rep.Leak,
				TBitsHash:  tBitsHash(rep.T),
				StateBytes: rep.StateBytes,
			}
			res.Runs = append(res.Runs, run)
			res.EngineStateBytes = rep.StateBytes
			fmt.Printf("bench %-15s workers=%-2d  %8.1f traces/s  max|t|=%-10.4g leak=%-5v state=%.1f MiB\n",
				run.Policy, w, run.TracesPerSec, run.MaxAbsT, run.Leak, float64(run.StateBytes)/(1<<20))
			if ref == nil {
				ref = rep.T
				continue
			}
			for j := range ref {
				if math.Float64bits(ref[j]) != math.Float64bits(rep.T[j]) {
					res.BitIdenticalAcrossWorkers = false
					fmt.Fprintf(os.Stderr, "tvla: FAIL: %s T[%d] differs between workers=1 and workers=%d\n", pol, j, w)
					break
				}
			}
		}
		last := res.Runs[len(res.Runs)-1]
		if pol == compiler.PolicyNone {
			res.UnprotectedAboveThreshold = last.MaxAbsT > leakstat.DefaultThreshold
		} else if last.MaxAbsT >= leakstat.DefaultThreshold {
			res.MaskedBelowThreshold = false
		}
	}

	// The deliberately weak policies: reported, not asserted — seeds-only
	// leaves non-seed key loads unprotected, naive-loadstore leaves ALU ops
	// on secrets unprotected; TVLA should rediscover both.
	for _, pol := range []compiler.Policy{compiler.PolicySeedsOnly, compiler.PolicyNaiveLoadStore} {
		_, src, win, err := desSetup(compiler.Options{Policy: pol, Target: isa.PISA}, "key", key, plain, seed, maxCycles)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		rep, err := leakstat.Assess(src, leakstat.Config{
			NumTraces: traces, Seed: seed, Window: win,
		})
		if err != nil {
			fatal(err)
		}
		sec := time.Since(start).Seconds()
		run := benchRun{
			Policy: pol.String(), Workers: 0, Seconds: sec,
			TracesPerSec: float64(traces) / sec,
			MaxAbsT:      rep.MaxAbsT, Leak: rep.Leak,
			TBitsHash: tBitsHash(rep.T), StateBytes: rep.StateBytes,
		}
		res.WeakPolicies = append(res.WeakPolicies, run)
		fmt.Printf("weak  %-15s             %8.1f traces/s  max|t|=%-10.4g leak=%v\n",
			run.Policy, run.TracesPerSec, run.MaxAbsT, run.Leak)
	}

	// Materialized baseline: dpa.Collect holds every trace in memory, so its
	// footprint grows linearly with N — measure at a feasible size and
	// extrapolate to the streaming run's N.
	if baselineTraces > traces {
		baselineTraces = traces
	}
	mNone, err := desprog.New(compiler.PolicyNone)
	if err != nil {
		fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ts, err := dpa.Collect(mNone, key, dpa.Config{
		NumTraces: baselineTraces, Seed: seed, MaxCycles: maxCycles,
	})
	if err != nil {
		fatal(err)
	}
	sec := time.Since(start).Seconds()
	runtime.GC()
	runtime.ReadMemStats(&after)
	var heap uint64
	if after.HeapAlloc > before.HeapAlloc {
		heap = after.HeapAlloc - before.HeapAlloc
	}
	var retained uint64
	for _, tr := range ts.Traces {
		retained += uint64(cap(tr)) * 8
	}
	retained += uint64(len(ts.Plaintexts))*8 + uint64(len(ts.OrigLens))*8
	perTrace := float64(retained) / float64(ts.Len())
	res.Baseline = benchBaseline{
		Traces: ts.Len(), Seconds: sec, TracesPerSec: float64(ts.Len()) / sec,
		RetainedBytes: retained, MeasuredHeapBytes: heap, BytesPerTrace: perTrace,
		ExtrapolatedBytesAtN: uint64(perTrace * float64(traces)),
	}
	res.BaselineOverEngineMem = float64(res.Baseline.ExtrapolatedBytesAtN) / float64(res.EngineStateBytes)
	fmt.Printf("baseline dpa.Collect: %d traces  %8.1f traces/s  retained=%.1f MiB (%.0f B/trace, %.1f MiB at N=%d)\n",
		ts.Len(), res.Baseline.TracesPerSec, float64(retained)/(1<<20), perTrace,
		float64(res.Baseline.ExtrapolatedBytesAtN)/(1<<20), traces)
	fmt.Printf("memory: engine %.1f MiB constant vs baseline %.1f MiB at N=%d (%.0fx)\n",
		float64(res.EngineStateBytes)/(1<<20),
		float64(res.Baseline.ExtrapolatedBytesAtN)/(1<<20), traces, res.BaselineOverEngineMem)

	writeJSON(out, res)
	if !res.BitIdenticalAcrossWorkers || !res.MaskedBelowThreshold || !res.UnprotectedAboveThreshold {
		fmt.Fprintf(os.Stderr, "tvla: FAIL: bit_identical=%v masked_below=%v unprotected_above=%v\n",
			res.BitIdenticalAcrossWorkers, res.MaskedBelowThreshold, res.UnprotectedAboveThreshold)
		os.Exit(1)
	}
	fmt.Println("acceptance: bit-identical across workers; masked < 4.5; unprotected > 4.5")
}
