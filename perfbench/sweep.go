package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"

	"desmask/internal/cpu"
	"desmask/internal/dpa"
	"desmask/internal/energy"
	"desmask/internal/jobstore"
	"desmask/internal/leakstat"
	"desmask/internal/mem"
	"desmask/internal/sim"
)

// Sizes of the traced run's layer sweep: small, because it only fills the
// per-layer metrics of layers the workload's own loop does not reach.
const (
	sweepReps        = 5
	sweepTraces      = 64
	sweepBatch       = 8
	sweepAttackTrace = 8
	sweepJobs        = 8
)

// sweep fills every per-layer metric the workload's timed loop left empty,
// by calling that layer on the workload's own build: a traced run reports
// all layers on every workload, each measured at its public call. parts are
// shard accumulators the loop already produced (nil: the sweep makes some).
func (rc *runCtx) sweep(b *build, order, gang int, parts []*leakstat.ShardAccum) error {
	root := rc.tr.start("bench.sweep", 0, "sweep")
	defer rc.tr.end(root)
	if err := rc.coreRuns(root, b); err != nil {
		return err
	}
	if err := rc.tracedBatch(root, b); err != nil {
		return err
	}
	src := leakstat.DESKeySource(b.m, rc.in.Key, rc.in.Plaintext, rc.in.AssessSeed, tvlaMaxCycles)
	if parts == nil {
		cfg := leakstat.Config{
			NumTraces: sweepTraces, Seed: rc.in.AssessSeed, Workers: rc.workers,
			Gang: gang, Order: order, Window: b.win.Clamp(tvlaMaxCycles),
		}
		var err error
		if _, parts, err = rc.composed(root, "sweep", src, cfg); err != nil {
			return fmt.Errorf("sweep assessment: %w", err)
		}
	}
	if !rc.obs.has("sim.scalar_ns_per_cycle") {
		if err := rc.scalarRuns(root, b, src); err != nil {
			return err
		}
	}
	if !rc.obs.has("gang.ns_per_lane_cycle") {
		if err := rc.gangRun(root, b, src); err != nil {
			return err
		}
	}
	if !rc.obs.has("dpa.fullkey_s") {
		if err := rc.smallAttack(root, b); err != nil {
			return err
		}
	}
	if !rc.obs.has("server.req_latency_ms_p90") {
		if err := rc.miniLoad(root, b); err != nil {
			return err
		}
	}
	return rc.storeCalls(root, parts)
}

// coreRuns times one windowed run on a bare cpu.CPU, then the same run with
// an energy probe attached: the probe's cost is the difference.
func (rc *runCtx) coreRuns(root int64, b *build) error {
	job, err := b.m.EncryptJobSeeded(rc.in.Key, rc.in.Plaintext, leakstat.MaskSeed(rc.in.AssessSeed, 1), tvlaMaxCycles, false)
	if err != nil {
		return err
	}
	prog := b.m.Res.Program
	runOnce := func(meter bool) (float64, error) {
		c, err := cpu.New(prog, mem.New())
		if err != nil {
			return 0, err
		}
		name := "cpu.run"
		if meter {
			c.Attach(energy.NewProbeFor(b.m.Cfg, prog.TargetOrDefault()))
			name = "energy.run"
		}
		for _, w := range job.Writes {
			if err := c.Mem().StoreWord(w.Addr, w.Val); err != nil {
				return 0, err
			}
		}
		var runErr error
		d := rc.timeCall(name, root, "sweep", func() { runErr = c.Run(job.MaxCycles) })
		if runErr != nil && !errors.Is(runErr, cpu.ErrCycleLimit) {
			return 0, runErr
		}
		return 1e9 * d / float64(c.Stats().Cycles), nil
	}
	var bare, metered []float64
	for r := 0; r < sweepReps; r++ {
		x, err := runOnce(false)
		if err != nil {
			return err
		}
		y, err := runOnce(true)
		if err != nil {
			return err
		}
		bare, metered = append(bare, x), append(metered, y)
	}
	rc.obs.add("cpu.bare_ns_per_cycle", median(bare))
	rc.obs.add("energy.probe_ns_per_cycle", median(metered)-median(bare))
	return nil
}

// tracedBatch times desprog.Machine.EncryptBatch with full trace capture,
// the acquisition path of the attacks.
func (rc *runCtx) tracedBatch(root int64, b *build) error {
	rng := rand.New(rand.NewSource(rc.in.AssessSeed))
	pts := make([]uint64, sweepBatch)
	for i := range pts {
		pts[i] = rng.Uint64()
	}
	var (
		res []sim.Result
		err error
	)
	d := rc.timeCall("sim.encrypt_batch", root, "sweep", func() {
		res, err = b.m.EncryptBatch(rc.in.Key, pts, cpaMaxCycles, true, sim.Options{Workers: 1})
	})
	if err != nil {
		return err
	}
	var cycles uint64
	for _, r := range res {
		cycles += r.Stats.Cycles
	}
	rc.obs.add("sim.traced_ns_per_cycle", 1e9*d/float64(cycles))
	return nil
}

// scalarRuns times Runner.Run on metered, window-sampled jobs: the scalar
// assessment path.
func (rc *runCtx) scalarRuns(root int64, b *build, src leakstat.Source) error {
	win := b.win.Clamp(tvlaMaxCycles)
	buf := make([]float64, win.Len())
	for i := 0; i < sweepBatch; i++ {
		job, err := src.Job(i, false)
		if err != nil {
			return err
		}
		p := &sampler{start: uint64(win.Start), end: uint64(win.End), buf: buf}
		job.Probe = sim.PerRunMeterProbes(func(m *energy.Probe) []cpu.Probe {
			p.meter = m
			return []cpu.Probe{p}
		})
		var res sim.Result
		d := rc.timeCall("sim.run", root, "sweep", func() { res = src.Runner.Run(job) })
		if res.Err != nil {
			return res.Err
		}
		rc.obs.add("sim.scalar_ns_per_cycle", 1e9*d/float64(res.Stats.Cycles))
	}
	return nil
}

// gangRun times one full-width Runner.RunGangSampled over the build's
// fixed-vs-random population and records the engine's lane counters.
func (rc *runCtx) gangRun(root int64, b *build, src leakstat.Source) error {
	win := b.win.Clamp(tvlaMaxCycles)
	fixed := leakstat.Assignment(rc.in.AssessSeed, gangWidth)
	jobs := make([]sim.Job, gangWidth)
	bufs := make([][]float64, gangWidth)
	for i := range jobs {
		job, err := src.Job(i, fixed[i])
		if err != nil {
			return err
		}
		jobs[i], bufs[i] = job, make([]float64, win.Len())
	}
	r := src.Runner
	runs, deopts := r.GangRuns(), r.GangDeopts()
	var res []sim.Result
	d := rc.timeCall("gang.run", root, "sweep", func() {
		res = r.RunGangSampled(jobs, uint64(win.Start), uint64(win.End), bufs)
	})
	var cycles uint64
	for _, x := range res {
		if x.Err != nil {
			return x.Err
		}
		cycles += x.Stats.Cycles
	}
	rc.obs.add("gang.ns_per_lane_cycle", 1e9*d/float64(cycles))
	rc.gangCounters(r.GangRuns()-runs, r.GangDeopts()-deopts, 1)
	return nil
}

// smallAttack times dpa.Collect and dpa.FullKeyAttack on a few traces of
// the build. Only the cost is measured; the key is not expected back.
func (rc *runCtx) smallAttack(root int64, b *build) error {
	var (
		ts  *dpa.TraceSet
		err error
	)
	d := rc.timeCall("dpa.collect", root, "sweep", func() {
		ts, err = dpa.Collect(b.m, rc.in.Key, dpa.Config{
			NumTraces: sweepAttackTrace, Seed: rc.in.AssessSeed, MaxCycles: cpaMaxCycles,
			Workers: rc.workers, Gang: gangWidth,
		})
	})
	if err != nil {
		return err
	}
	rc.obs.add("dpa.collect_s", d)
	d = rc.timeCall("dpa.fullkey", root, "sweep", func() {
		dpa.FullKeyAttack(ts, dpa.StatCPA, rc.in.Plaintext, 0)
	})
	rc.obs.add("dpa.fullkey_s", d)
	return nil
}

// miniLoad runs the leakd closed loop with the workload's own build as the
// only build, checking every verdict as the leakd workload does.
func (rc *runCtx) miniLoad(root int64, b *build) error {
	spec := buildSpec{Policy: b.opt.Policy.String(), ISA: b.m.Res.Program.TargetOrDefault().Name(), Optimize: b.opt.Optimize}
	l, err := startLeakd(filepath.Join(rc.scratch, "sweep-store"))
	if err != nil {
		return err
	}
	res, all, err := rc.driveLoad(root, l.url, []buildSpec{spec}, nil, 0)
	l.stop()
	if err != nil {
		return err
	}
	if err := rc.recordServer(res, len(all)); err != nil {
		return err
	}
	_, err = rc.verifyVerdicts(root, all)
	return err
}

// storeCalls drives jobstore.Store directly on a scratch store: create a
// job, persist the workload's shard accumulators, complete it, and read it
// back as a replay would.
func (rc *runCtx) storeCalls(root int64, parts []*leakstat.ShardAccum) error {
	st, err := jobstore.Open(filepath.Join(rc.scratch, "direct-store"))
	if err != nil {
		return err
	}
	verdict := json.RawMessage(`{"leak":true,"max_abs_t":12.5}`)
	for j := 0; j < sweepJobs; j++ {
		id := jobstore.JobID([]byte(fmt.Sprintf(`{"perfbench":%d,"seed":%d}`, j, rc.seed)))
		var cerr error
		d := rc.timeCall("jobstore.create", root, id, func() {
			_, _, cerr = st.Create(id, json.RawMessage(`{}`), len(parts))
		})
		if cerr != nil {
			return cerr
		}
		rc.obs.add("jobstore.create_ms", 1e3*d)
		for _, p := range parts {
			d = rc.timeCall("jobstore.put_shard", root, id, func() { cerr = st.PutShard(id, p) })
			if cerr != nil {
				return cerr
			}
			rc.obs.add("jobstore.put_shard_ms", 1e3*d)
		}
		d = rc.timeCall("jobstore.complete", root, id, func() { cerr = st.Complete(id, verdict) })
		if cerr != nil {
			return cerr
		}
		rc.obs.add("jobstore.complete_ms", 1e3*d)
		var rec *jobstore.Record
		d = rc.timeCall("jobstore.get", root, id, func() { rec, cerr = st.Get(id) })
		if cerr != nil {
			return cerr
		}
		rc.attempted++
		var got bytes.Buffer
		if rec.State != jobstore.StateDone || json.Compact(&got, rec.Verdict) != nil || got.String() != string(verdict) {
			rc.fail("jobstore replay of %s: state %s, verdict %s", id, rec.State, rec.Verdict)
		}
		rc.obs.add("jobstore.replay_ms", 1e3*d)
	}
	return nil
}
