package leakstat

// Scalar-vs-gang assessment throughput on the fixed-vs-random DES workload —
// the measurement behind BENCH_gang.json (cmd/simbench -gang). Run with
//
//	go test -bench Assess -benchtime 3x ./internal/leakstat
//
// and compare ns/op between the Scalar and Gang variants. The
// boolean-mask/order2/scalar case is the scalar metered path at the shape of
// the cost-per-verdict benchmark's tvla-masked-scalar workload: per-trace
// mask-pool job building, the scalar energy meter and the order-2 fold.

import (
	"fmt"
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/desprog"
)

func benchAssess(b *testing.B, m *desprog.Machine, traces, gangW, order int, maxCycles uint64) {
	b.Helper()
	win, err := DESMaskedWindow(m, testKey, testPlain, maxCycles)
	if err != nil {
		b.Fatal(err)
	}
	src := DESKeySource(m, testKey, testPlain, 7, maxCycles)
	cfg := Config{
		NumTraces: traces,
		Seed:      7,
		Shards:    2,
		Workers:   1,
		Gang:      gangW,
		Order:     order,
		Window:    win,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assess(src, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(traces)*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
}

func BenchmarkAssessDES(b *testing.B) {
	const (
		traces    = 32
		maxCycles = 12_000
	)
	for _, policy := range []compiler.Policy{compiler.PolicyNone, compiler.PolicySelective, compiler.PolicyAllSecure} {
		m, err := desprog.New(policy)
		if err != nil {
			b.Fatal(err)
		}
		for _, gangW := range []int{0, 16} {
			name := "scalar"
			if gangW > 0 {
				name = fmt.Sprintf("gang%d", gangW)
			}
			b.Run(policy.String()+"/"+name, func(b *testing.B) {
				benchAssess(b, m, traces, gangW, 1, maxCycles)
			})
		}
	}
	m, err := desprog.New(compiler.PolicyBooleanMask)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("boolean-mask/order2/scalar", func(b *testing.B) {
		benchAssess(b, m, 96, 0, 2, maxCycles)
	})
}
