package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"desmask/internal/cliconf"
	"desmask/internal/jobstore"
	"desmask/internal/leakstat"
	"desmask/internal/server"
	"desmask/internal/sim"
)

// The leakd request shape is cmd/leakload's default (32 traces, 6,000
// cycles): a small assessment, so compile, window derivation, admission,
// persistence and HTTP stay a large share of each request.
const (
	leakdTraces    = 32
	leakdMaxCycles = 6_000
	// leakdCacheSize holds the three hot builds plus the two most recent
	// cold builds; cold builds come round in turn, so each cold request
	// misses and evicts the older cold build.
	leakdCacheSize = 5
	// minRequests gives the p90 latency at least ten samples beyond it.
	minRequests = 110
	// leakdHistory is how many completed jobs the store holds when leakd
	// starts: set-up is a restart that lists them to recover.
	leakdHistory = 256
)

// The protection mix, chosen rather than measured: the hot builds are the
// paper's unprotected and selective dual-rail builds plus the boolean-masked
// build, on the default ISA; the cold builds are variants of the kind a
// survey asks for once (another ISA, -O, another policy), taken in turn by
// every coldEvery-th request.
var (
	leakdHot = []buildSpec{
		{Policy: "none", ISA: "pisa"},
		{Policy: "selective", ISA: "pisa"},
		{Policy: "boolean-mask", ISA: "pisa"},
	}
	leakdCold = []buildSpec{
		{Policy: "none", ISA: "rv32", Optimize: true},
		{Policy: "selective", ISA: "rv32"},
		{Policy: "all-secure", ISA: "pisa", Optimize: true},
		{Policy: "seeds-only", ISA: "pisa"},
	}
)

// leakdConfig sizes the in-process service for the load generator: as many
// execution slots as clients, one statistics worker per slot, and
// cmd/leakload's default queue of 8.
func leakdConfig(store *jobstore.Store) server.Config {
	return server.Config{
		MaxConcurrent: loadWidth(),
		MaxQueue:      8,
		CacheSize:     leakdCacheSize,
		Workers:       1,
		Store:         store,
		Log:           log.New(io.Discard, "", 0),
	}
}

// leakd is one in-process service with a durable store, served over
// loopback HTTP.
type leakd struct {
	srv  *server.Server
	hs   *http.Server
	done chan struct{}
	url  string
}

// startLeakd opens the job store in dir, starts the service, resumes any
// incomplete job (there must be none), serves it on a loopback port and
// waits until it answers /healthz.
func startLeakd(dir string) (*leakd, error) {
	store, err := jobstore.Open(dir)
	if err != nil {
		return nil, err
	}
	srv := server.New(leakdConfig(store))
	if n, err := srv.Recover(); err != nil || n != 0 {
		srv.Close()
		return nil, fmt.Errorf("recovering the store: %d jobs resumed, %v", n, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	l := &leakd{srv: srv, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	l.hs = &http.Server{Handler: l.srv.Handler()}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	resp, err := http.Get(l.url + "/healthz")
	if err != nil {
		l.stop()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		l.stop()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return l, nil
}

// stop shuts the listener and the service down and waits for both.
func (l *leakd) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.hs.Shutdown(ctx); err != nil {
		l.hs.Close()
	}
	<-l.done
	l.srv.Close()
}

// scrape reads leakd's /metrics into name{labels} -> value.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func assessRequest(b buildSpec, seed int64, in inputs) server.AssessRequest {
	return server.AssessRequest{
		Assess: cliconf.Assess{
			Kernel: "des", Policy: b.Policy, ISA: b.ISA, Vary: "key",
			Traces: leakdTraces, Seed: seed, Workers: 1, MaxCycles: leakdMaxCycles,
			Key: hex64(in.Key), Plaintext: hex64(in.Plaintext),
		},
		Optimize: b.Optimize,
	}
}

// exchange is one completed request of the closed loop.
type exchange struct {
	client, k int
	req       leakdReq
	body      []byte
	status    int
	resp      []byte
	latency   float64
	traced    bool
}

// loadResult is what one closed-loop load yields.
type loadResult struct {
	latencies []float64
	// plain and traced split the latencies by whether the request was
	// recorded as a span.
	plain, traced []float64
	wall          float64
	replays       int
	metrics0      map[string]float64
	metrics1      map[string]float64
}

// driveLoad runs loadWidth() closed-loop clients against l, each walking its
// own request stream, until seconds have passed and at least minRequests
// completed. Every exchange is checked: non-200 answers fail, and a replay
// must be byte-identical to the first response of the request it repeats.
func (rc *runCtx) driveLoad(parent int64, url string, hot, cold []buildSpec, seconds float64) (*loadResult, []exchange, error) {
	m0, err := scrape(url)
	if err != nil {
		return nil, nil, err
	}
	clients := loadWidth()
	var (
		mu   sync.Mutex
		all  []exchange
		done atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer hc.CloseIdleConnections()
			stream := leakdStream(rc.seed, c, clients, 1<<16, hot, cold)
			bodies := make(map[int][]byte)
			first := make(map[int][]byte)
			for k := 0; k < len(stream) && (time.Since(start).Seconds() < seconds || done.Load() < minRequests); k++ {
				r := stream[k]
				body := bodies[r.ReplayOf]
				if r.ReplayOf < 0 {
					body, _ = json.Marshal(assessRequest(r.Build, r.Seed, rc.in))
					bodies[k] = body
				}
				// A traced run records spans on every other block of
				// coldEvery requests, so the traced and untraced halves see
				// the same mix and their latencies give the tracing overhead.
				tr := rc.tr
				if (k/coldEvery)%2 == 0 {
					tr = nil
				}
				id := tr.start("server.request", parent, fmt.Sprintf("c%d-r%d", c, k))
				t0 := time.Now()
				status, resp, err := post(hc, url+"/v1/assess", body)
				lat := time.Since(t0).Seconds()
				tr.end(id)
				done.Add(1)
				ex := exchange{client: c, k: k, req: r, body: body, status: status, resp: resp, latency: lat, traced: tr != nil}
				switch {
				case err != nil:
					ex.status = 0
				case r.ReplayOf < 0 && status == http.StatusOK:
					first[k] = resp
				}
				if r.ReplayOf >= 0 && status == http.StatusOK && !bytes.Equal(resp, first[r.ReplayOf]) {
					ex.status = -1 // replay differs from the first answer
				}
				mu.Lock()
				all = append(all, ex)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res := &loadResult{wall: time.Since(start).Seconds(), metrics0: m0}
	if res.metrics1, err = scrape(url); err != nil {
		return nil, nil, err
	}
	for _, ex := range all {
		rc.attempted++
		switch ex.status {
		case http.StatusOK:
			res.latencies = append(res.latencies, ex.latency)
			if ex.traced {
				res.traced = append(res.traced, ex.latency)
			} else {
				res.plain = append(res.plain, ex.latency)
			}
		case -1:
			rc.fail("client %d request %d: replay of request %d is not byte-identical", ex.client, ex.k, ex.req.ReplayOf)
			continue
		default:
			rc.fail("client %d request %d: status %d: %s", ex.client, ex.k, ex.status, bytes.TrimSpace(ex.resp))
			continue
		}
		if ex.req.ReplayOf >= 0 {
			res.replays++
		}
	}
	return res, all, nil
}

func post(hc *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// recordServer turns a load into the server-layer metrics: client-side p90
// latency and throughput, and deltas of leakd's own /metrics.
func (rc *runCtx) recordServer(res *loadResult, total int) error {
	p90, err := tailPercentile(res.latencies, 0.9)
	if err != nil {
		return fmt.Errorf("request latency: %w", err)
	}
	rc.obs.add("server.req_latency_ms_p90", 1e3*p90)
	rc.obs.add("server.req_per_s", float64(len(res.latencies))/res.wall)
	d := func(k string) float64 { return res.metrics1[k] - res.metrics0[k] }
	for _, stage := range []string{"compile", "window", "assess"} {
		lbl := fmt.Sprintf("{stage=%q}", stage)
		if n := d("leakd_stage_latency_seconds_count" + lbl); n > 0 {
			rc.obs.add("server.stage_"+stage+"_ms", 1e3*d("leakd_stage_latency_seconds_sum"+lbl)/n)
		}
	}
	hits, misses := d("leakd_program_cache_hits_total"), d("leakd_program_cache_misses_total")
	if hits+misses > 0 {
		rc.obs.add("server.cache_hit_ratio", hits/(hits+misses))
	}
	rc.obs.add("server.rejected", d(`leakd_jobs_total{state="rejected"}`))
	rc.obs.add("jobstore.replay_ratio", float64(res.replays)/float64(total))
	rc.note("%d requests in %.2f s (%d replays), p50 %.1f ms, p90 %.1f ms, cache hits %.0f misses %.0f",
		total, res.wall, res.replays, 1e3*median(res.latencies), 1e3*p90, hits, misses)
	return nil
}

// verifyVerdicts recomputes every fresh verdict in process with
// leakstat.Assess on the benchmark's own build of the same request and
// checks the served verdict field by field. It returns the builds it made.
func (rc *runCtx) verifyVerdicts(parent int64, all []exchange) (map[buildSpec]*build, error) {
	builds := make(map[buildSpec]*build)
	var fresh []exchange
	for _, ex := range all {
		if ex.req.ReplayOf >= 0 || ex.status != http.StatusOK {
			continue
		}
		fresh = append(fresh, ex)
		if builds[ex.req.Build] != nil {
			continue
		}
		b, err := rc.buildFor(ex.req.Build)
		if err != nil {
			return nil, err
		}
		builds[ex.req.Build] = b
	}
	errs := make([]error, len(fresh))
	err := sim.ForEach(len(fresh), rc.workers, func(i int) error {
		ex := fresh[i]
		var req server.AssessRequest
		if err := json.Unmarshal(ex.body, &req); err != nil {
			return err
		}
		r, err := req.Assess.Validate()
		if err != nil {
			return err
		}
		b := builds[ex.req.Build]
		cfg := r.Config()
		cfg.Window = b.win
		id := rc.tr.start("leakstat.assess", parent, fmt.Sprintf("c%d-r%d", ex.client, ex.k))
		rep, err := leakstat.Assess(leakstat.DESKeySource(b.m, r.KeyV, r.PlaintextV, r.Seed, r.MaxCycles), cfg)
		rc.tr.end(id)
		if err != nil {
			return err
		}
		errs[i] = sameVerdict(rep, ex.resp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, e := range errs {
		if e != nil {
			rc.fail("client %d request %d (%v): %v", fresh[i].client, fresh[i].k, fresh[i].req.Build, e)
		}
	}
	return builds, nil
}

// buildFor compiles a leakd build spec the way leakd does.
func (rc *runCtx) buildFor(bs buildSpec) (*build, error) {
	r, err := assessRequest(bs, 0, rc.in).Assess.Validate()
	if err != nil {
		return nil, err
	}
	opt := r.CompilerOptions()
	opt.Optimize = bs.Optimize
	b, err := rc.newBuild(0, bs.String(), opt, rc.in, leakdMaxCycles)
	if err != nil {
		return nil, err
	}
	return b, rc.predecode(0, bs.String(), b)
}

// sameVerdict checks every report field of a served verdict against an
// in-process report.
func sameVerdict(rep *leakstat.Report, served []byte) error {
	want, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	var w, g map[string]json.RawMessage
	if err := json.Unmarshal(want, &w); err != nil {
		return err
	}
	if err := json.Unmarshal(served, &g); err != nil {
		return err
	}
	for k, v := range w {
		if !bytes.Equal(v, g[k]) {
			return fmt.Errorf("%s: served %s, in-process %s", k, g[k], v)
		}
	}
	return nil
}

// writeHistory fills a fresh store with n completed jobs, the history a
// long-running leakd accumulates. Their seeds lie outside the request
// streams' range, so no request of a run replays them.
func (rc *runCtx) writeHistory(dir string, n int) error {
	st, err := jobstore.Open(dir)
	if err != nil {
		return err
	}
	verdict := json.RawMessage(`{"workload":"des","policy":"none","leak":true,"max_abs_t":12.5}`)
	for j := 0; j < n; j++ {
		req, err := json.Marshal(assessRequest(leakdHot[j%len(leakdHot)], 1<<41+int64(j), rc.in))
		if err != nil {
			return err
		}
		id := jobstore.JobID(req)
		if _, _, err := st.Create(id, req, leakdTraces); err != nil {
			return err
		}
		if err := st.Complete(id, verdict); err != nil {
			return err
		}
	}
	return nil
}

func runLeakd(rc *runCtx) error {
	dir := filepath.Join(rc.scratch, "store")
	if err := rc.writeHistory(dir, leakdHistory); err != nil {
		return fmt.Errorf("writing the store's history: %w", err)
	}
	// Set-up is a restart: each repetition stops the previous service and
	// starts a new one on the same store.
	var (
		l      *leakd
		setups []float64
	)
	for r := 0; r < setupReps; r++ {
		if l != nil {
			l.stop()
		}
		id := rc.tr.start("bench.setup", 0, "setup")
		t0 := time.Now()
		var err error
		l, err = startLeakd(dir)
		setups = append(setups, time.Since(t0).Seconds())
		rc.tr.end(id)
		if err != nil {
			return err
		}
	}
	rc.e2e["setup_s"] = median(setups)
	res, all, err := rc.driveLoad(0, l.url, leakdHot, leakdCold, rc.seconds)
	l.stop()
	if err != nil {
		return err
	}
	if len(res.latencies) == 0 {
		return fmt.Errorf("no request completed")
	}
	rc.e2e["verdict_s"] = median(res.latencies)
	cycles := res.metrics1["leakd_cycles_simulated_total"] - res.metrics0["leakd_cycles_simulated_total"]
	rc.e2e["sim_cycles_per_s"] = cycles / res.wall
	if err := rc.recordServer(res, len(all)); err != nil {
		return err
	}
	rc.overhead(res.plain, res.traced)

	builds, err := rc.verifyVerdicts(0, all)
	if err != nil {
		return err
	}
	// Energy per encryption is the mean over the mix's builds, each checked
	// against internal/des.
	var uj float64
	for _, b := range builds {
		enc, ok := rc.checkEncryptions(b, 1)
		if !ok {
			return fmt.Errorf("build %v does not encrypt correctly", b.opt.Policy)
		}
		uj += enc.EnergyUJ
	}
	rc.e2e["energy_uj_per_enc"] = uj / float64(len(builds))
	if rc.tr != nil {
		b := builds[leakdHot[0]]
		if b == nil {
			return fmt.Errorf("no %v request completed", leakdHot[0])
		}
		return rc.sweep(b, 1, 0, nil)
	}
	return nil
}
