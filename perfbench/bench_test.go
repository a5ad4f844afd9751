package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSelfTimeNestedAndAdjacentChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.verdict", Start: 0, End: 100},
		// Two adjacent children covering [10, 40).
		{ID: 2, Parent: 1, Name: "leakstat.shard", Start: 10, End: 25},
		{ID: 3, Parent: 1, Name: "leakstat.shard", Start: 25, End: 40},
		// A child nested in child 3 and one sticking out of it.
		{ID: 4, Parent: 3, Name: "gang.run", Start: 27, End: 33},
		{ID: 5, Parent: 3, Name: "leakstat.accumulate", Start: 35, End: 50},
		// Two overlapping children (parallel workers) covering [60, 90).
		{ID: 6, Parent: 1, Name: "leakstat.shard", Start: 60, End: 80},
		{ID: 7, Parent: 1, Name: "leakstat.shard", Start: 70, End: 90},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - 30 - 30,
		2: 15,
		3: 15 - 6 - 5, // only [35, 40) of span 5 lies inside span 3
		4: 6,
		5: 15,
		6: 20,
		7: 20,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	layers := layerSelf(spans)
	if layers["bench"] != 40 || layers["gang"] != 6 || layers["leakstat"] != 15+4+15+20+20 {
		t.Fatalf("per-layer self times %v", layers)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := tailPercentile(xs, 0.9); err == nil {
		t.Fatal("p90 of 99 samples (9 beyond) was reported")
	}
	xs = append(xs, 99)
	p, err := tailPercentile(xs, 0.9)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if p < 89 || p > 90 {
		t.Fatalf("p90 of 0..99 = %v", p)
	}
	if _, err := tailPercentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 100 samples (1 beyond) was reported")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	if genInputs(7) != genInputs(7) {
		t.Fatal("the same seed gave different inputs")
	}
	if genInputs(7) == genInputs(8) {
		t.Fatal("different seeds gave the same inputs")
	}
	a := leakdStream(7, 1, 2, 200, leakdHot, leakdCold)
	b := leakdStream(7, 1, 2, 200, leakdHot, leakdCold)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different request streams")
	}
	if reflect.DeepEqual(a, leakdStream(8, 1, 2, 200, leakdHot, leakdCold)) {
		t.Fatal("different seeds gave the same request stream")
	}
	other := leakdStream(8, 1, 2, 200, leakdHot, leakdCold)
	replays, cold := 0, 0
	hot := make(map[buildSpec]int)
	for k, r := range a {
		if (r.ReplayOf >= 0) != (other[k].ReplayOf >= 0) || r.Build != other[k].Build {
			t.Fatalf("request %d: the build mix depends on the seed", k)
		}
		if r.ReplayOf >= 0 {
			replays++
			if r.ReplayOf >= k || a[r.ReplayOf].ReplayOf >= 0 {
				t.Fatalf("request %d replays %d, which is not an earlier fresh request", k, r.ReplayOf)
			}
			continue
		}
		hot[r.Build]++
		for _, c := range leakdCold {
			if r.Build == c {
				cold++
				delete(hot, c)
			}
		}
	}
	if replays != 200/replayEvery || cold != 200/coldEvery {
		t.Fatalf("%d replays and %d cold requests in 200, want %d and %d", replays, cold, 200/replayEvery, 200/coldEvery)
	}
	// The hot builds take equal shares, give or take one request.
	lo, hi := len(a), 0
	for _, b := range leakdHot {
		lo, hi = min(lo, hot[b]), max(hi, hot[b])
	}
	if len(hot) != len(leakdHot) || hi-lo > 1 {
		t.Fatalf("hot builds taken %v times", hot)
	}
}

func TestLoadNeverExceedsCPUs(t *testing.T) {
	ncpu := runtime.NumCPU()
	if w := loadWidth(); w < 1 || w > ncpu {
		t.Fatalf("load width %d on %d CPUs", w, ncpu)
	}
	cfg := leakdConfig(nil)
	if cfg.MaxConcurrent*cfg.Workers > ncpu {
		t.Fatalf("leakd runs %d slots x %d workers on %d CPUs", cfg.MaxConcurrent, cfg.Workers, ncpu)
	}

	var inflight, peak, conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/assess" {
			n := inflight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(time.Millisecond)
			inflight.Add(-1)
			fmt.Fprint(w, `{"leak":true}`)
		}
	}))
	var mu sync.Mutex
	seen := make(map[net.Conn]bool)
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			mu.Lock()
			seen[c] = true
			conns.Store(int64(len(seen)))
			mu.Unlock()
		}
	}
	srv.Start()
	defer srv.Close()

	rc := &runCtx{env: env{obs: newSamples(), workers: loadWidth()}, name: "test", seed: 3, in: genInputs(3)}
	res, all, err := rc.driveLoad(0, srv.URL, leakdHot, leakdCold, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rc.failed != 0 || len(all) < minRequests || len(res.latencies) != len(all) {
		t.Fatalf("%d exchanges, %d failed", len(all), rc.failed)
	}
	// The scrapes of /metrics open connections too; every other connection
	// is one client's keep-alive connection.
	if p := peak.Load(); p > int64(loadWidth()) {
		t.Fatalf("%d requests in flight at once, load width %d", p, loadWidth())
	}
	if c := conns.Load(); c > int64(loadWidth())+2 {
		t.Fatalf("%d connections opened, load width %d (+2 scrapes)", c, loadWidth())
	}
}
