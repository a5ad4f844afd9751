package sim_test

// Steady-state allocation regression. After the first (warm-up) run, a
// session worker reuses its CPU, meter, trace recorder and — when the job
// shape repeats — its attached probe set, so the only allocations left per
// encryption are the caller-owned pieces of the Result: the memory
// read-back (outer slice + words) and, for traced jobs, the trace snapshot
// (struct + totals + PCs). Runs with the ignored Job.Blocks flag carry the
// same read-back cost.

import (
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/desprog"
)

func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	m, err := desprog.New(compiler.PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Runner()
	for _, tc := range []struct {
		name    string
		capture bool
		blocks  bool
		max     float64
	}{
		{"untraced", false, false, 2},
		{"traced", true, false, 5},
		{"blocks", false, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job, err := m.EncryptJob(0x133457799BBCDFF1, 0x0123456789ABCDEF, 0, tc.capture)
			if err != nil {
				t.Fatal(err)
			}
			job.Blocks = tc.blocks
			if res := r.Run(job); res.Err != nil || !res.Done {
				t.Fatalf("warm-up: done=%v err=%v", res.Done, res.Err)
			}
			got := testing.AllocsPerRun(5, func() {
				if res := r.Run(job); res.Err != nil {
					t.Fatal(res.Err)
				}
			})
			if got > tc.max {
				t.Errorf("%.1f allocs per encryption, want <= %.0f", got, tc.max)
			}
		})
	}
}
