package sim

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"desmask/internal/cpu"
	"desmask/internal/trace"
)

// Gang-mode session layer: Options.GangWidth > 1 opts a batch into
// gang-scheduled lockstep execution for jobs that attach no probes of their
// own. Same-shaped jobs are grouped — before any worker starts, so grouping
// never depends on worker count or scheduling — into gangs of up to
// GangWidth lanes sharing one control computation per cycle.
//
// Exactness contract: a lane either completes in lockstep bit-identical to a
// single run (registers, memory, stats, per-cycle energy observation), or is
// peeled by the engine's deopt contract and replayed as a width-1 run on the
// same engine, which cannot diverge and so reproduces the exact result,
// fault included. Gang-mode results carry no Stats.Energy/PeakPJ
// accumulation, so a result never reveals which path produced it.

// gangEligible reports whether a job may join a gang: it must attach no extra
// probes — probes observe the stage events of a single run, which a gang
// does not fire. Traced jobs are eligible: the engine records the exact
// trace.Recorder observation per lane.
func (r *Runner) gangEligible(job *Job) bool {
	return job.Probe.isZero()
}

// errGangProbes is the result error of a RunGangSampled job that carries
// probes.
var errGangProbes = errors.New("sim: RunGangSampled does not attach job probes; run the job through Run or RunBatch")

// RunGangSampled executes up to GangWidth same-program jobs as one lockstep
// gang on a pooled worker, sampling each lane's per-cycle energy for cycles
// [start, end) into the caller-owned bufs[i] (which must hold end-start
// values; bufs may be nil for no sampling). Results are returned in job
// order and are bit-identical to single runs — lanes the gang cannot
// complete exactly are replayed at width 1 with the same sampling. One job
// is a width-1 run. Traced jobs are supported (Result.Trace is recorded
// inline); a job that carries a ProbeSpec is not run and its result carries
// an error, since a gang fires no stage events.
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
	// single reruns job i on its own, as a width-1 run.
	single := func(i int) {
		sub, subIdxs := results[i:i+1], []int(nil)
		if idxs != nil {
			sub, subIdxs = results, idxs[i:i+1]
		}
		var b [][]float64
		if bufs != nil {
			b = bufs[i : i+1]
		}
		r.runGangSampledOn(w, jobs[i:i+1], start, end, b, sub, subIdxs)
	}

	budget := r.budget(jobs[0])
	for i := range jobs {
		if !r.gangEligible(&jobs[i]) || r.budget(jobs[i]) != budget || jobs[i].Trace != jobs[0].Trace {
			// Lockstep needs one shared budget and trace shape, and fires no
			// stage events. Callers group uniformly, so run each job on its
			// own rather than guess, and refuse a job with probes rather
			// than drop them.
			for i := range jobs {
				if r.gangEligible(&jobs[i]) {
					single(i)
				} else {
					*resAt(i) = Result{Err: errGangProbes}
				}
			}
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

	e, err := w.engine(r, len(reps))
	if err == nil {
		err = e.Reset(len(reps))
	}
	if err != nil {
		for i := range jobs {
			*resAt(i) = Result{Err: err}
		}
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
				// A failed poke is a job-setup fault, reported per job
				// exactly as Run reports it.
				if n == 1 {
					*resAt(0) = Result{Err: err}
					return
				}
				for i := range jobs {
					single(i)
				}
				return
			}
		}
	}

	e.Run(budget)

	// Only jobs run in a group of two or more count as lockstep runs or
	// deopts; a width-1 run (a replay, a singleton) is neither.
	ganged := n > 1
	done := e.Halted()
	for i := range jobs {
		l := laneOf[i]
		res := resAt(i)
		lerr := e.LaneErr(l)
		if errors.Is(lerr, cpu.ErrDeopt) {
			// Replayed below, once every lane's result is read out.
			r.gangDeopts.Add(1)
			*res = Result{Err: lerr}
			continue
		}
		if ganged {
			r.gangRuns.Add(1)
		}
		*res = Result{Done: done && lerr == nil, Regs: e.Lane(l).Regs, Err: lerr}
		res.Stats = Stats{Stats: e.Stats()}
		r.cycles.Add(res.Stats.Cycles)
		if lerr != nil {
			continue // a width-1 run's exact fault
		}
		if i != reps[l] {
			// A mirror reproduces its representative's windowed samples.
			if !traced && end > start {
				copy(bufAt(i), bufAt(reps[l]))
			}
		}
		if !done && jobs[i].RequireHalt {
			// Run's semantics for budget expiry under RequireHalt: the
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
	for i := range jobs {
		if errors.Is(resAt(i).Err, cpu.ErrDeopt) {
			single(i)
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
// (budget, trace flag) become gangs of up to width lanes; a probe-carrying
// job is a singleton unit. Precomputing the grouping from the job list alone
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

// runUnit executes one scheduling unit on a worker: a probe-carrying job
// runs as a width-1 run with its probes attached; a group of probe-free jobs
// runs as a lockstep gang with per-lane deopt replay.
func (r *Runner) runUnit(w *worker, jobs []Job, unit []int, results []Result) {
	if i := unit[0]; !r.gangEligible(&jobs[i]) {
		results[i] = r.runOn(w, jobs[i])
		return
	}
	unitJobs := make([]Job, len(unit))
	for k, i := range unit {
		unitJobs[k] = jobs[i]
	}
	r.runGangSampledOn(w, unitJobs, 0, 0, nil, results, unit)
}

// runParGang fans the batch's parallel jobs across the pool in gang units.
// It mirrors the per-job fan-out loop of RunBatchContext, pulling whole units
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
