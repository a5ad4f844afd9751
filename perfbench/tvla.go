package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"desmask/internal/compiler"
	"desmask/internal/des"
	"desmask/internal/dpa"
	"desmask/internal/leakstat"
)

// Workload sizes. The TVLA window is the first 12,000 cycles of the
// encryption (the production assessment window); the CPA budget covers
// round 1 at 25,000 cycles, as cmd/dpa-attack needs.
const (
	tvlaMaxCycles = 12_000
	cpaMaxCycles  = 25_000
	// gangTraces fills every one of the 32 default shards with 16 traces,
	// so each shard runs exactly one gang of full width 16.
	gangTraces   = 512
	gangWidth    = 16
	scalarTraces = 96
	// cpaTraces is 1.6 times the fewest traces (20) at which CPA recovered
	// the key on each of seeds 1-150; at 16 traces 3 of them failed.
	cpaTraces = 32
	// setupReps is how many times a run sets up from scratch; setup_s is
	// their median.
	setupReps = 9
	// minVerdicts is the fewest verdicts a run times, however long they take.
	minVerdicts = 5
)

// tvlaSpec is one TVLA workload: a build, a population size and the
// engine knobs.
type tvlaSpec struct {
	opt    compiler.Options
	traces int
	gang   int
	order  int
	// wantLeak asserts the first-order verdict. The order-2 verdict of the
	// masked build depends on the seed, so it is never asserted.
	wantLeak bool
}

// The two TVLA workloads: the production first-order assessment on the gang
// engine, and the second-order assessment of the boolean-masked build on
// the scalar engine.
var (
	gangSpec = tvlaSpec{
		opt: compiler.Options{Policy: compiler.PolicyNone}, traces: gangTraces,
		gang: gangWidth, order: 1, wantLeak: true,
	}
	maskedSpec = tvlaSpec{
		opt: compiler.Options{Policy: compiler.PolicyBooleanMask}, traces: scalarTraces,
		order: 2,
	}
)

// setupBuilds sets up the build setupReps times from scratch and returns the
// last one with the median set-up time. Each set-up is followed, untimed, by
// a standalone predecode for the isa layer's metric.
func (rc *runCtx) setupBuilds(opt compiler.Options, maxCycles uint64) (*build, float64, error) {
	var (
		b     *build
		times []float64
	)
	for r := 0; r < setupReps; r++ {
		root := rc.tr.start("bench.setup", 0, "setup")
		t0 := time.Now()
		nb, err := rc.newBuild(root, "setup", opt, rc.in, maxCycles)
		times = append(times, time.Since(t0).Seconds())
		if err == nil {
			err = rc.predecode(root, "setup", nb)
		}
		rc.tr.end(root)
		if err != nil {
			return nil, 0, err
		}
		b = nb
	}
	return b, median(times), nil
}

func runTVLA(rc *runCtx, sp tvlaSpec) error {
	b, setup, err := rc.setupBuilds(sp.opt, tvlaMaxCycles)
	if err != nil {
		return err
	}
	rc.e2e["setup_s"] = setup
	enc, ok := rc.checkEncryptions(b, 4)
	if !ok {
		return fmt.Errorf("build does not encrypt correctly")
	}
	rc.e2e["energy_uj_per_enc"] = enc.EnergyUJ

	src := leakstat.DESKeySource(b.m, rc.in.Key, rc.in.Plaintext, rc.in.AssessSeed, tvlaMaxCycles)
	cfg := leakstat.Config{
		NumTraces: sp.traces, Seed: rc.in.AssessSeed, Workers: rc.workers,
		Gang: sp.gang, Order: sp.order, Window: b.win,
	}
	r := b.m.Runner()
	runs0, deopts0 := r.GangRuns(), r.GangDeopts()
	var (
		plain, traced []float64
		throughput    []float64
		want          string
		parts         []*leakstat.ShardAccum
	)
	rc.loop(func(k int) {
		vid := fmt.Sprintf("verdict-%d", k)
		var rep *leakstat.Report
		var err error
		// A traced run alternates: even verdicts through leakstat.Assess
		// untraced, odd ones composed from the layers' calls under spans.
		withSpans := rc.tr != nil && k%2 == 1
		t0 := time.Now()
		if withSpans {
			root := rc.tr.start("bench.verdict", 0, vid)
			rep, parts, err = rc.composed(root, vid, src, cfg)
			rc.tr.end(root)
		} else {
			rep, err = leakstat.Assess(src, cfg)
		}
		d := time.Since(t0).Seconds()
		rc.attempted++
		switch {
		case err != nil:
			rc.fail("verdict %d: %v", k, err)
			return
		case sp.wantLeak && !rep.Leak:
			rc.fail("verdict %d: max|t|=%.2f, want a leak", k, rep.MaxAbsT)
			return
		}
		h := tHash(rep.T)
		if want == "" {
			want = h
			rc.note("t-vector %s: max|t|=%.3f at cycle %d, leak=%v", h, rep.MaxAbsT, rep.MaxTCycle, rep.Leak)
			rc.checkAcrossRuns(h)
		} else if h != want {
			rc.fail("verdict %d: t-vector %s differs from the run's first %s", k, h, want)
			return
		}
		if withSpans {
			traced = append(traced, d)
			return
		}
		plain = append(plain, d)
		throughput = append(throughput, float64(rep.CyclesSimulated)/d)
	})
	if len(plain) == 0 {
		return fmt.Errorf("no verdict completed")
	}
	// The gang counters are read before the reference verdict, which may
	// run on the gang engine too.
	rc.gangCounters(r.GangRuns()-runs0, r.GangDeopts()-deopts0, len(plain)+len(traced))
	rc.referenceVerdict(src, cfg, want)
	rc.e2e["verdict_s"] = median(plain)
	rc.e2e["sim_cycles_per_s"] = median(throughput)
	rc.spread("verdict_s", plain)
	rc.overhead(plain, traced)
	if rc.tr != nil {
		return rc.sweep(b, sp.order, sp.gang, parts)
	}
	return nil
}

// referenceVerdict runs the run's assessment once more, untimed, on the
// other engine: the scalar core for a gang workload, gangs of gangWidth for
// a scalar one. The two engines must give the same t-vector bit for bit, so
// a change that alters one engine's statistics fails the run without any
// stored expectation.
func (rc *runCtx) referenceVerdict(src leakstat.Source, cfg leakstat.Config, want string) {
	ref, engine := cfg, "scalar"
	ref.Gang = 0
	if cfg.Gang <= 1 {
		ref.Gang, engine = gangWidth, fmt.Sprintf("gang %d", gangWidth)
	}
	rc.attempted++
	rep, err := leakstat.Assess(src, ref)
	switch {
	case err != nil:
		rc.fail("reference verdict (%s engine): %v", engine, err)
	case tHash(rep.T) != want:
		rc.fail("reference verdict (%s engine): t-vector %s, the run's verdicts give %s", engine, tHash(rep.T), want)
	default:
		rc.note("reference verdict (%s engine) reproduces t-vector %s", engine, want)
	}
}

// checkAcrossRuns compares a run's t-vector hash with the one an earlier run
// of the same benchmark binary, workload and seed recorded under
// .bench_build/thash, and records it when there is none. Keying by the
// binary's own hash means a rebuilt program starts a fresh record.
func (rc *runCtx) checkAcrossRuns(h string) {
	rc.attempted++
	exe, err := os.Executable()
	var bin []byte
	if err == nil {
		bin, err = os.ReadFile(exe)
	}
	if err != nil {
		rc.fail("hashing the benchmark binary: %v", err)
		return
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(".bench_build", "thash", hex.EncodeToString(sum[:8]), fmt.Sprintf("%s-%d", rc.name, rc.seed))
	if prev, err := os.ReadFile(path); err == nil {
		if string(prev) != h {
			rc.fail("t-vector %s differs from %s of an earlier run with seed %d", h, prev, rc.seed)
		}
		return
	}
	err = os.MkdirAll(filepath.Dir(path), 0o755)
	if err == nil {
		err = os.WriteFile(path, []byte(h), 0o644)
	}
	if err != nil {
		rc.fail("recording the t-vector hash: %v", err)
	}
}

// checkEncryptions runs n full encryptions of a build with distinct masks,
// each an attempted operation, and returns the first.
func (rc *runCtx) checkEncryptions(b *build, n int) (encCheck, bool) {
	var first encCheck
	ok := true
	for i := 0; i < n; i++ {
		rc.attempted++
		enc, err := rc.fullEncryption(b, rc.in, i)
		if err != nil {
			rc.fail("full encryption %d: %v", i, err)
			ok = false
			continue
		}
		if i == 0 {
			first = enc
		}
	}
	return first, ok
}

func runCPA(rc *runCtx) error {
	opt := compiler.Options{Policy: compiler.PolicyNone}
	b, setup, err := rc.setupBuilds(opt, 0)
	if err != nil {
		return err
	}
	rc.e2e["setup_s"] = setup
	enc, ok := rc.checkEncryptions(b, 1)
	if !ok {
		return fmt.Errorf("build does not encrypt correctly")
	}
	rc.e2e["energy_uj_per_enc"] = enc.EnergyUJ

	r := b.m.Runner()
	runs0, deopts0 := r.GangRuns(), r.GangDeopts()
	var plain, traced, throughput []float64
	rc.loop(func(k int) {
		vid := fmt.Sprintf("attack-%d", k)
		tr := rc.tr
		if k%2 == 0 {
			tr = nil
		}
		root := tr.start("bench.attack", 0, vid)
		t0 := time.Now()
		var ts *dpa.TraceSet
		var err error
		id := tr.start("dpa.collect", root, vid)
		tc := time.Now()
		ts, err = dpa.Collect(b.m, rc.in.Key, dpa.Config{
			NumTraces: cpaTraces, Seed: rc.in.AssessSeed, MaxCycles: cpaMaxCycles,
			Workers: rc.workers, Gang: gangWidth,
		})
		collect := time.Since(tc).Seconds()
		tr.end(id)
		rc.attempted++
		if err != nil {
			tr.end(root)
			rc.fail("attack %d: collect: %v", k, err)
			return
		}
		id = tr.start("dpa.fullkey", root, vid)
		tf := time.Now()
		res := dpa.FullKeyAttack(ts, dpa.StatCPA, rc.in.Plaintext, enc.Cipher)
		fullkey := time.Since(tf).Seconds()
		tr.end(id)
		d := time.Since(t0).Seconds()
		tr.end(root)
		// The key is verified against the key schedule: the recovered key
		// must reproduce the true round-1 subkey and the true key bits.
		if !res.OK || des.StripParity(res.Key) != des.StripParity(rc.in.Key) ||
			des.Subkeys(res.Key)[0] != des.Subkeys(rc.in.Key)[0] {
			rc.fail("attack %d: recovered key %016X (ok=%v), true key %016X", k, res.Key, res.OK, rc.in.Key)
			return
		}
		rc.obs.add("dpa.collect_s", collect)
		rc.obs.add("dpa.fullkey_s", fullkey)
		if tr != nil {
			traced = append(traced, d)
			return
		}
		plain = append(plain, d)
		var cycles float64
		for _, n := range ts.OrigLens {
			cycles += float64(n)
		}
		throughput = append(throughput, cycles/d)
	})
	if len(plain) == 0 {
		return fmt.Errorf("no attack completed")
	}
	rc.e2e["verdict_s"] = median(plain)
	rc.e2e["sim_cycles_per_s"] = median(throughput)
	rc.spread("verdict_s", plain)
	rc.gangCounters(r.GangRuns()-runs0, r.GangDeopts()-deopts0, len(plain)+len(traced))
	rc.overhead(plain, traced)
	if rc.tr != nil {
		return rc.sweep(b, 1, gangWidth, nil)
	}
	return nil
}
