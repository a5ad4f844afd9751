package sim

import (
	"context"
	"sync"
	"sync/atomic"

	"desmask/internal/cpu"
	"desmask/internal/energy"
	"desmask/internal/gang"
	"desmask/internal/trace"
)

// Gang-mode session layer: Options.GangWidth > 1 opts a batch into
// gang-scheduled lockstep execution (internal/gang) for jobs that observe no
// per-stage pipeline probes. Same-shaped jobs are grouped — before any worker
// starts, so grouping never depends on worker count or scheduling — into
// gangs of up to GangWidth lanes sharing one control computation per cycle.
//
// Exactness contract: a lane either completes in lockstep bit-identical to a
// scalar run (registers, memory, stats, per-cycle energy observation), or is
// peeled by the engine's deopt contract and transparently replayed on the
// unmodified cycle-accurate core. Gang-mode results carry no
// Stats.Energy/PeakPJ accumulation (replayed lanes are normalized to match),
// so a result never reveals which path produced it.

// gangEligible reports whether a job may join a gang: it must attach no extra
// probes — probes observe per-stage events of a single core, which a gang
// does not replay. Traced jobs are eligible: the engine records the exact
// trace.Recorder observation per lane.
func (r *Runner) gangEligible(job *Job) bool {
	return job.Probe.isZero()
}

// gangEngine returns the worker's gang engine with capacity for at least n
// lanes, building or widening it on demand. ok=false means the program
// cannot run in lockstep (engine construction failed — e.g. a non-five-stage
// target) and the caller must use the scalar path.
func (r *Runner) gangEngine(w *worker, n int) (*gang.Engine, bool) {
	if w.gang != nil && w.gang.Width() >= n {
		return w.gang, true
	}
	if w.gangBroken {
		return nil, false
	}
	e, err := gang.New(r.prog, r.cfg, n)
	if err != nil {
		w.gangBroken = true
		return nil, false
	}
	w.gang = e
	return e, true
}

// winProbe samples committed-cycle energy inside [start, end) into a
// caller-owned buffer — the scalar-replay equivalent of a gang lane's sample
// buffer, attached via PerRunMeterProbes so it reads the worker's meter.
type winProbe struct {
	meter      *energy.Probe
	start, end uint64
	buf        []float64
}

func (p *winProbe) OnCycle(ci cpu.CycleInfo) {
	if ci.Cycle < p.start || ci.Cycle >= p.end {
		return
	}
	if i := ci.Cycle - p.start; i < uint64(len(p.buf)) {
		p.buf[i] = p.meter.LastPJ()
	}
}

// replaySampled replays one deopted lane's job on the worker's scalar core,
// reproducing the gang's windowed energy observation into buf. The result is
// normalized to the gang result shape (no Energy/PeakPJ totals).
func (r *Runner) replaySampled(w *worker, job Job, start, end uint64, buf []float64) Result {
	if buf != nil && end > start {
		p := &winProbe{start: start, end: end, buf: buf}
		job.Probe = PerRunMeterProbes(func(m *energy.Probe) []cpu.Probe {
			p.meter = m
			return []cpu.Probe{p}
		})
	}
	res := r.runOn(w, job)
	res.Stats.Energy = energy.CycleEnergy{}
	res.Stats.PeakPJ = 0
	return res
}

// RunGangSampled executes up to GangWidth same-program jobs as one lockstep
// gang on a pooled worker, sampling each lane's per-cycle energy for cycles
// [start, end) into the caller-owned bufs[i] (which must hold end-start
// values; bufs may be nil for no sampling). Results are returned in job
// order and are bit-identical to scalar runs — lanes the engine cannot
// complete exactly are replayed on the cycle-accurate core with an
// equivalent sampling probe. Jobs must be gang-shaped: no Trace, no
// ProbeSpec (serve those through Run/RunBatch instead).
//
// This is the assessment hot path: leakstat feeds fixed-vs-random trace
// populations through it shard by shard, reusing the sample buffers across
// gangs so the steady state allocates nothing.
func (r *Runner) RunGangSampled(jobs []Job, start, end uint64, bufs [][]float64) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	w, err := r.getWorker()
	if err != nil {
		for i := range results {
			results[i] = Result{Err: err}
		}
		return results
	}
	defer r.pool.Put(w)
	r.runGangSampledOn(w, jobs, start, end, bufs, results, nil)
	return results
}

// runGangSampledOn is RunGangSampled on a caller-held worker, writing into
// results (indexed by idxs when non-nil, else by position).
func (r *Runner) runGangSampledOn(w *worker, jobs []Job, start, end uint64, bufs [][]float64, results []Result, idxs []int) {
	n := len(jobs)
	resAt := func(i int) *Result {
		if idxs != nil {
			return &results[idxs[i]]
		}
		return &results[i]
	}
	bufAt := func(i int) []float64 {
		if bufs == nil {
			return nil
		}
		return bufs[i]
	}
	scalarAll := func() {
		for i := range jobs {
			*resAt(i) = r.replaySampled(w, jobs[i], start, end, bufAt(i))
		}
	}

	budget := r.budget(jobs[0])
	for i := 1; i < n; i++ {
		if r.budget(jobs[i]) != budget || jobs[i].Trace != jobs[0].Trace {
			// Mixed-shape group: lockstep needs one shared budget. Callers
			// group uniformly; fall back rather than guess.
			scalarAll()
			return
		}
	}
	traced := jobs[0].Trace

	// Mirror grouping: jobs with bit-identical initial state (the same memory
	// pokes, onto identically reset lanes of the same program, under the same
	// budget) are deterministic replicas — one engine lane executes for all of
	// them and every mirror copies its results. TVLA's fixed population makes
	// this the common case: half of every assessment batch is the same job
	// repeated. Mirrors sharing a lane must also share the lane's observation
	// shape, so a job only mirrors one with an equally sized sample buffer.
	reps := w.gangReps[:0]
	laneOf := w.gangLaneOf[:0]
	for i := range jobs {
		lane := -1
		for l, ri := range reps {
			if writesEqual(jobs[i].Writes, jobs[ri].Writes) &&
				len(bufAt(i)) == len(bufAt(ri)) {
				lane = l
				break
			}
		}
		if lane < 0 {
			reps = append(reps, i)
			lane = len(reps) - 1
		}
		laneOf = append(laneOf, lane)
	}
	w.gangReps, w.gangLaneOf = reps, laneOf

	e, ok := r.gangEngine(w, len(reps))
	if !ok || n < 2 {
		scalarAll()
		return
	}
	if err := e.Reset(len(reps)); err != nil {
		scalarAll()
		return
	}
	if traced {
		e.EnableTrace(r.reserveHint(budget))
	} else if end > start {
		e.SetSampleWindow(start, end)
		for l, ri := range reps {
			e.SetLaneSampleBuf(l, bufAt(ri))
		}
	}
	for l, ri := range reps {
		for _, wr := range jobs[ri].Writes {
			if err := e.Lane(l).Mem.StoreWord(wr.Addr, wr.Val); err != nil {
				// A failed poke is a job-setup fault; the scalar path reports
				// it with exact semantics for every lane.
				scalarAll()
				return
			}
		}
	}

	e.Run(budget)

	done := e.Halted()
	for i := range jobs {
		l := laneOf[i]
		if lerr := e.LaneErr(l); lerr != nil {
			r.gangDeopts.Add(1)
			*resAt(i) = r.replaySampled(w, jobs[i], start, end, bufAt(i))
			continue
		}
		r.gangRuns.Add(1)
		res := resAt(i)
		*res = Result{Done: done, Regs: e.Lane(l).Regs}
		res.Stats = Stats{Stats: e.Stats()}
		r.cycles.Add(res.Stats.Cycles)
		if i != reps[l] {
			// A mirror reproduces its representative's windowed samples.
			if !traced && end > start {
				copy(bufAt(i), bufAt(reps[l]))
			}
		}
		if !done && jobs[i].RequireHalt {
			// Scalar semantics for budget expiry under RequireHalt: the
			// cycle-limit error, with no trace snapshot or memory read-back.
			res.Err = &cpu.CycleLimitError{Limit: budget}
			continue
		}
		if traced {
			lt := e.LaneTrace(l)
			res.Trace = &trace.Trace{
				Totals: append([]float64(nil), lt.Totals...),
				PCs:    append([]uint32(nil), lt.PCs...),
			}
			r.traceHint.Store(int64(res.Trace.Len()))
		}
		for _, rd := range jobs[i].Reads {
			words, err := e.Lane(l).Mem.ReadWords(rd.Addr, rd.Words)
			if err != nil {
				res.Err = err
				break
			}
			res.Mem = append(res.Mem, words)
		}
	}
}

// writesEqual reports whether two poke sequences are identical.
func writesEqual(a, b []Write) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// gangUnits groups the batch's parallel jobs into execution units before any
// worker starts: runs of consecutive gang-eligible jobs with identical shape
// (budget, trace flag) become gangs of up to width lanes; everything else is
// a singleton scalar unit. Precomputing the grouping from the job list alone
// keeps results bit-identical for any worker count.
func (r *Runner) gangUnits(jobs []Job, par []int, width int) [][]int {
	units := make([][]int, 0, (len(par)+width-1)/width)
	var cur []int
	var curBudget uint64
	var curTrace bool
	flush := func() {
		if len(cur) > 0 {
			units = append(units, cur)
			cur = nil
		}
	}
	for _, i := range par {
		j := &jobs[i]
		if !r.gangEligible(j) {
			flush()
			units = append(units, []int{i})
			continue
		}
		b, tr := r.budget(*j), j.Trace
		if len(cur) > 0 && (b != curBudget || tr != curTrace) {
			flush()
		}
		curBudget, curTrace = b, tr
		cur = append(cur, i)
		if len(cur) == width {
			flush()
		}
	}
	flush()
	return units
}

// runUnit executes one scheduling unit on a worker: a singleton runs on the
// scalar path exactly as a gang-free batch would run it; a group runs as a
// lockstep gang with per-lane deopt replay.
func (r *Runner) runUnit(w *worker, jobs []Job, unit []int, results []Result) {
	if len(unit) == 1 {
		i := unit[0]
		if r.gangEligible(&jobs[i]) {
			// Keep the result shape uniform across the batch: a leftover
			// singleton from gang grouping still reports like its gang-run
			// siblings (no Energy/PeakPJ accumulation).
			results[i] = r.replaySampled(w, jobs[i], 0, 0, nil)
		} else {
			results[i] = r.runOn(w, jobs[i])
		}
		return
	}
	unitJobs := make([]Job, len(unit))
	for k, i := range unit {
		unitJobs[k] = jobs[i]
	}
	r.runGangSampledOn(w, unitJobs, 0, 0, nil, results, unit)
}

// runParGang fans the batch's parallel jobs across the pool in gang units.
// It mirrors the scalar fan-out loop of RunBatchContext, pulling whole units
// so a gang always lands on one worker.
func (r *Runner) runParGang(ctx context.Context, jobs []Job, par []int, results []Result, opts Options, wg *sync.WaitGroup) {
	units := r.gangUnits(jobs, par, opts.GangWidth)
	workers := opts.resolve(len(units))
	var next atomic.Int64
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, werr := r.getWorker()
			if werr == nil {
				defer r.pool.Put(w)
			}
			for {
				n := int(next.Add(1) - 1)
				if n >= len(units) {
					return
				}
				unit := units[n]
				switch {
				case werr != nil:
					for _, i := range unit {
						results[i] = Result{Err: werr}
					}
				case ctx.Err() != nil:
					for _, i := range unit {
						results[i] = Result{Err: ctx.Err()}
					}
				default:
					r.runUnit(w, jobs, unit, results)
				}
			}
		}()
	}
}
