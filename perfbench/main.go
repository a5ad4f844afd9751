// Command perfbench is the repository's cost-per-verdict benchmark. It runs
// one workload from a seed for a fixed time, checks every output, and prints
// one JSON result as the last line of standard output: the end-to-end
// metrics untraced (--trace 0) or the per-layer metrics traced (--trace 1).
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported quantity with its unit.
type metric struct {
	Name string
	Unit string
}

// endToEnd are the metrics an untraced run reports on every workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"verdict_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"energy_uj_per_enc", "uJ"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the metrics a traced run reports on every workload, each
// the median of the samples its layer calls produced in the run.
var perLayer = []metric{
	{"compiler.compile_ms", "ms"},
	{"compiler.static_insts", "count"},
	{"compiler.secure_insts", "count"},
	{"isa.predecode_ms", "ms"},
	{"leakstat.window_ms", "ms"},
	{"leakstat.job_build_us", "us"},
	{"leakstat.job_writes", "count"},
	{"cpu.bare_ns_per_cycle", "ns/cycle"},
	{"energy.probe_ns_per_cycle", "ns/cycle"},
	{"sim.scalar_ns_per_cycle", "ns/cycle"},
	{"sim.traced_ns_per_cycle", "ns/cycle"},
	{"sim.cycles_per_enc", "cycles"},
	{"gang.ns_per_lane_cycle", "ns/cycle"},
	{"gang.lanes", "count"},
	{"gang.deopts", "count"},
	{"gang.lockstep_ratio", "ratio"},
	{"leakstat.accumulate_ns_per_sample", "ns/sample"},
	{"leakstat.fold_ms", "ms"},
	{"leakstat.shard_bytes", "bytes"},
	{"dpa.collect_s", "s"},
	{"dpa.fullkey_s", "s"},
	{"server.req_latency_ms_p90", "ms"},
	{"server.req_per_s", "1/s"},
	{"server.stage_compile_ms", "ms"},
	{"server.stage_window_ms", "ms"},
	{"server.stage_assess_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.rejected", "count"},
	{"jobstore.create_ms", "ms"},
	{"jobstore.put_shard_ms", "ms"},
	{"jobstore.complete_ms", "ms"},
	{"jobstore.replay_ms", "ms"},
	{"jobstore.replay_ratio", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*runCtx) error{
	"tvla-gang":          func(rc *runCtx) error { return runTVLA(rc, gangSpec) },
	"tvla-masked-scalar": func(rc *runCtx) error { return runTVLA(rc, maskedSpec) },
	"cpa-fullkey":        runCPA,
	"leakd-durable":      runLeakd,
}

// runCtx is one benchmark run: its inputs, budget, sinks and tallies.
type runCtx struct {
	env
	name      string
	seed      int64
	in        inputs
	seconds   float64
	scratch   string
	e2e       map[string]float64
	attempted int
	failed    int
}

// loop calls fn with k = 0, 1, ... until the run's time is spent and at
// least minVerdicts calls were made.
func (rc *runCtx) loop(fn func(k int)) {
	start := time.Now()
	for k := 0; k < minVerdicts || time.Since(start).Seconds() < rc.seconds; k++ {
		fn(k)
	}
}

// fail counts a wrong or failed output and says what it was.
func (rc *runCtx) fail(format string, args ...any) {
	rc.failed++
	fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", rc.name, fmt.Sprintf(format, args...))
}

func (rc *runCtx) note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", rc.name, fmt.Sprintf(format, args...))
}

// spread notes the sample count and quartiles behind a reported median.
func (rc *runCtx) spread(name string, xs []float64) {
	rc.note("%s over %d samples: p25 %.4g, median %.4g, p75 %.4g, max %.4g",
		name, len(xs), quantile(xs, 0.25), median(xs), quantile(xs, 0.75), quantile(xs, 1))
}

// gangCounters records the gang engine's lane counts over a run, per verdict.
func (rc *runCtx) gangCounters(runs, deopts uint64, verdicts int) {
	if runs+deopts == 0 || verdicts == 0 {
		return
	}
	rc.obs.add("gang.lanes", float64(runs)/float64(verdicts))
	rc.obs.add("gang.deopts", float64(deopts)/float64(verdicts))
	rc.obs.add("gang.lockstep_ratio", float64(runs)/float64(runs+deopts))
}

// overhead records the tracing overhead: the traced median verdict time
// over the untraced one, minus one.
func (rc *runCtx) overhead(plain, traced []float64) {
	if len(plain) == 0 || len(traced) == 0 {
		return
	}
	p, t := median(plain), median(traced)
	rc.obs.add("trace.overhead_frac", t/p-1)
	rc.note("tracing overhead: traced verdict %.4f s vs untraced %.4f s (%+.1f%%)", t, p, 100*(t/p-1))
}

// loadWidth is the number of client connections, server execution slots and
// statistics workers the benchmark uses: two, never more than the host's
// CPUs.
func loadWidth() int { return min(2, runtime.NumCPU()) }

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed: all inputs derive from it")
	seconds := flag.Float64("seconds", 10, "how long the timed phase runs")
	traced := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, names)
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root")
		return 2
	}
	scratch, err := filepath.Abs(filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(scratch, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	rc := &runCtx{
		env:     env{obs: newSamples(), workers: loadWidth()},
		name:    *name,
		seed:    *seed,
		in:      genInputs(*seed),
		seconds: *seconds,
		scratch: scratch,
		e2e:     make(map[string]float64),
	}
	if *traced == 1 {
		rc.tr = newTracer()
	}
	host := hostHeader(*name, *seed)
	hb, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(hb))

	if err := drive(rc); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *name, err)
		return 1
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rc.e2e["max_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}

	want := endToEnd
	values := rc.e2e
	if rc.tr != nil {
		want = perLayer
		values = rc.layerValues()
		spans := rc.tr.snapshot()
		printLayerSelf(os.Stderr, spans)
		dir := filepath.Join(".bench_build", "spans")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		err := os.MkdirAll(dir, 0o755)
		if err == nil {
			err = writeJSONL(path, spans)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	}
	out := make(map[string]any, len(want))
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench %s: metric %s was not measured\n", *name, m.Name)
			return 1
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	// A wrong output still prints the result, marked incorrect, and fails
	// the run.
	correct := rc.failed == 0
	b, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": rc.attempted, "failed": rc.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench %s: %d of %d operations failed\n", *name, rc.failed, rc.attempted)
		return 1
	}
	return 0
}

// layerValues reduces the per-layer samples to one value per metric.
func (rc *runCtx) layerValues() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		if xs := rc.obs.get(m.Name); len(xs) > 0 {
			out[m.Name] = median(xs)
		}
	}
	return out
}
