package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"time"

	"desmask/internal/compiler"
	"desmask/internal/cpu"
	"desmask/internal/des"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/isa"
	"desmask/internal/leakstat"
	"desmask/internal/sim"
	"desmask/internal/trace"
)

// samples collects per-layer observations by metric name. Every timed call
// into a layer appends here; a traced run reports each metric's median (or,
// for counts, the value named by its reducer).
type samples struct {
	mu sync.Mutex
	m  map[string][]float64
}

func newSamples() *samples { return &samples{m: make(map[string][]float64)} }

func (s *samples) add(name string, v float64) {
	s.mu.Lock()
	s.m[name] = append(s.m[name], v)
	s.mu.Unlock()
}

func (s *samples) has(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m[name]) > 0
}

func (s *samples) get(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.m[name]...)
}

// env is what every layer call needs: the tracer (nil when untraced), the
// sample sink and the worker budget.
type env struct {
	tr      *tracer
	obs     *samples
	workers int
}

// timeCall runs fn inside a span and returns its wall time in seconds.
func (e *env) timeCall(name string, parent int64, verdict string, fn func()) float64 {
	id := e.tr.start(name, parent, verdict)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	e.tr.end(id)
	return d
}

// build is one compiled DES program with its assessment window.
type build struct {
	opt compiler.Options
	m   *desprog.Machine
	win trace.Window
}

// newBuild compiles the DES program and derives the masked assessment window
// clamped to maxCycles: everything before the first trace can run. Window
// derivation builds a core, which predecodes the program itself. Each stage
// is timed at its public call.
func (e *env) newBuild(parent int64, vid string, opt compiler.Options, in inputs, maxCycles uint64) (*build, error) {
	var (
		res *compiler.Result
		err error
	)
	d := e.timeCall("compiler.compile", parent, vid, func() {
		res, err = compiler.CompileWithOptions(desprog.Source(), opt)
	})
	if err != nil {
		return nil, fmt.Errorf("compile %v: %w", opt.Policy, err)
	}
	e.obs.add("compiler.compile_ms", 1e3*d)
	e.obs.add("compiler.static_insts", float64(len(res.Program.Text)))
	e.obs.add("compiler.secure_insts", float64(res.Report.SecuredOps))
	b := &build{opt: opt, m: &desprog.Machine{Policy: opt.Policy, Res: res, Cfg: energy.DefaultConfig()}}
	d = e.timeCall("leakstat.window", parent, vid, func() {
		b.win, err = leakstat.DESMaskedWindow(b.m, in.Key, in.Plaintext, maxCycles)
	})
	if err != nil {
		return nil, fmt.Errorf("window: %w", err)
	}
	e.obs.add("leakstat.window_ms", 1e3*d)
	return b, nil
}

// predecode times a standalone predecode of the build's program for
// isa.predecode_ms. It is kept out of set-up time: the core that window
// derivation builds already predecodes, so set-up would count it twice.
func (e *env) predecode(parent int64, vid string, b *build) error {
	p := b.m.Res.Program
	var err error
	d := e.timeCall("isa.predecode", parent, vid, func() {
		_, err = isa.PredecodeProgramFor(p.TargetOrDefault(), p.Text, p.TextBase)
	})
	if err != nil {
		return fmt.Errorf("predecode: %w", err)
	}
	e.obs.add("isa.predecode_ms", 1e3*d)
	return nil
}

// encCheck is one full encryption of a build: its simulated ciphertext and
// energy.
type encCheck struct {
	Cipher   uint64
	EnergyUJ float64
}

// fullEncryption runs one complete encryption of the build with the
// workload's key and plaintext and the masks of trace i, and checks the
// ciphertext against internal/des and, on masked builds, that the run
// stayed inside its mask pool (the cursor is only written at the end of a
// complete run, so truncated assessment runs cannot be checked this way).
func (e *env) fullEncryption(b *build, in inputs, i int) (encCheck, error) {
	job, err := b.m.EncryptJobSeeded(in.Key, in.Plaintext, leakstat.MaskSeed(in.AssessSeed, i), desprog.MaxCycles, false)
	if err != nil {
		return encCheck{}, err
	}
	res := b.m.Runner().Run(job)
	if res.Err != nil {
		return encCheck{}, res.Err
	}
	if !res.Done {
		return encCheck{}, fmt.Errorf("encryption did not halt within %d cycles", desprog.MaxCycles)
	}
	if err := b.m.CheckMaskCursor(res); err != nil {
		return encCheck{}, err
	}
	got := gatherBits(res.Mem[0])
	if want := des.Encrypt(in.Key, in.Plaintext); got != want {
		return encCheck{}, fmt.Errorf("%v build: ciphertext %016X, internal/des gives %016X", b.opt.Policy, got, want)
	}
	e.obs.add("sim.cycles_per_enc", float64(res.Stats.Cycles))
	return encCheck{Cipher: got, EnergyUJ: res.Stats.Energy.Total / 1e6}, nil
}

// gatherBits packs the program's 64 one-bit output words, MSB first.
func gatherBits(words []uint32) uint64 {
	var v uint64
	for _, w := range words {
		v = v<<1 | uint64(w&1)
	}
	return v
}

// tHash fingerprints a t-vector bit for bit.
func tHash(t []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range t {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sampler records committed-cycle energy inside a window into a buffer,
// reading the runner worker's meter (the scalar assessment probe).
type sampler struct {
	meter      *energy.Probe
	start, end uint64
	buf        []float64
	filled     int
}

func (p *sampler) OnCycle(ci cpu.CycleInfo) {
	if ci.Cycle < p.start || ci.Cycle >= p.end {
		return
	}
	p.buf[ci.Cycle-p.start] = p.meter.LastPJ()
	p.filled++
}

// composed runs one TVLA assessment from the layers' public calls instead
// of leakstat.Assess: Source.Job per trace, Runner.Run (scalar) or
// Runner.RunGangSampled (gang) per trace or gang, Vec.AddTrace per trace,
// FoldReport over the shard accumulators. It reproduces the engine's shard
// partition and fold order, so its t-vector must equal Assess's bit for
// bit; every call is a span under the verdict's root span.
func (e *env) composed(root int64, vid string, src leakstat.Source, cfg leakstat.Config) (*leakstat.Report, []*leakstat.ShardAccum, error) {
	shards := leakstat.NumShards(cfg)
	fixed := leakstat.Assignment(cfg.Seed, cfg.NumTraces)
	order := max(cfg.Order, 1)
	L := cfg.Window.Len()
	start, end := uint64(cfg.Window.Start), uint64(cfg.Window.End)
	parts := make([]*leakstat.ShardAccum, shards)
	err := sim.ForEach(shards, e.workers, func(s int) error {
		sid := e.tr.start("leakstat.shard", root, vid)
		defer e.tr.end(sid)
		acc := &leakstat.ShardAccum{Shard: s, Fixed: leakstat.NewVecOrder(L, order), Random: leakstat.NewVecOrder(L, order)}
		lo, hi := leakstat.ShardRange(s, shards, cfg.NumTraces)
		width := 1
		if cfg.Gang > 1 {
			width = min(cfg.Gang, hi-lo)
		}
		bufs := make([][]float64, width)
		for g := range bufs {
			bufs[g] = make([]float64, L)
		}
		for i := lo; i < hi; i += width {
			n := min(width, hi-i)
			jobs := make([]sim.Job, n)
			for k := range jobs {
				var err error
				d := e.timeCall("leakstat.job", sid, vid, func() { jobs[k], err = src.Job(i+k, fixed[i+k]) })
				if err != nil {
					return err
				}
				e.obs.add("leakstat.job_build_us", 1e6*d)
				if !fixed[i+k] {
					e.obs.add("leakstat.job_writes", float64(len(jobs[k].Writes)))
				}
				jobs[k].Trace, jobs[k].Blocks, jobs[k].Probe = false, false, sim.ProbeSpec{}
			}
			var results []sim.Result
			if cfg.Gang > 1 {
				r := src.Runner
				d := e.timeCall("gang.run", sid, vid, func() { results = r.RunGangSampled(jobs, start, end, bufs[:n]) })
				var cyc uint64
				for _, res := range results {
					cyc += res.Stats.Cycles
				}
				if cyc > 0 {
					e.obs.add("gang.ns_per_lane_cycle", 1e9*d/float64(cyc))
				}
			} else {
				p := &sampler{start: start, end: end, buf: bufs[0]}
				jobs[0].Probe = sim.PerRunMeterProbes(func(m *energy.Probe) []cpu.Probe {
					p.meter = m
					return []cpu.Probe{p}
				})
				var res sim.Result
				d := e.timeCall("sim.run", sid, vid, func() { res = src.Runner.Run(jobs[0]) })
				if res.Stats.Cycles > 0 {
					e.obs.add("sim.scalar_ns_per_cycle", 1e9*d/float64(res.Stats.Cycles))
				}
				if res.Err == nil && p.filled != L {
					res.Err = fmt.Errorf("trace %d covered %d/%d window samples", i, p.filled, L)
				}
				results = []sim.Result{res}
			}
			for k, res := range results {
				if res.Err != nil {
					return fmt.Errorf("trace %d: %w", i+k, res.Err)
				}
				acc.Cycles += res.Stats.Cycles
				vec := acc.Random
				if fixed[i+k] {
					vec = acc.Fixed
				}
				d := e.timeCall("leakstat.accumulate", sid, vid, func() { vec.AddTrace(bufs[k][:L]) })
				e.obs.add("leakstat.accumulate_ns_per_sample", 1e9*d/float64(L))
			}
		}
		parts[s] = acc
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var rep *leakstat.Report
	d := e.timeCall("leakstat.fold", root, vid, func() { rep, err = leakstat.FoldReport(cfg, parts) })
	if err != nil {
		return nil, nil, err
	}
	e.obs.add("leakstat.fold_ms", 1e3*d)
	if blob, err := parts[0].MarshalBinary(); err == nil {
		e.obs.add("leakstat.shard_bytes", float64(len(blob)))
	}
	return rep, parts, nil
}
