package trace

import (
	"bytes"
	"strings"
	"testing"

	"desmask/internal/energy"
	"desmask/internal/isa"
)

func TestMetricsCounters(t *testing.T) {
	meter := energy.NewProbe(energy.DefaultConfig())
	m := Metrics{Meter: meter, BinPJ: 5}

	xor := &isa.UOp{Class: isa.ClassXor, Secure: true}
	add := &isa.UOp{Class: isa.ClassAdd}
	for i := uint64(0); i < 4; i++ {
		u := add
		if i%2 == 0 {
			u = xor
		}
		m.OnExec(isa.ExecEvent{Cycle: i, U: u})
		stepMeter(meter, i, 0xffffffff)
		m.OnCycle(isa.CycleInfo{Cycle: i, U: u})
	}
	// One bubble cycle: no exec event, no micro-op in EX.
	stepMeter(meter, 4, 0)
	m.OnCycle(isa.CycleInfo{Cycle: 4, U: nil})

	if m.Cycles != 5 || m.Bubbles != 1 {
		t.Errorf("cycles=%d bubbles=%d, want 5, 1", m.Cycles, m.Bubbles)
	}
	if got := m.Occupancy(); got != 0.8 {
		t.Errorf("occupancy = %g, want 0.8", got)
	}
	if m.ByClass[isa.ClassXor] != 2 || m.ByClass[isa.ClassAdd] != 2 {
		t.Errorf("class counts = %v", m.ByClass)
	}
	if m.Secure != 2 {
		t.Errorf("secure = %d, want 2", m.Secure)
	}
	top := m.TopClasses()
	if len(top) != 2 || top[0].Count != 2 || top[1].Count != 2 {
		t.Errorf("top classes = %v", top)
	}
	// Ties break by class order: Add < Xor.
	if top[0].Class != isa.ClassAdd || top[1].Class != isa.ClassXor {
		t.Errorf("tie order = %v", top)
	}

	var total uint64
	for _, n := range m.Hist {
		total += n
	}
	if total != 5 {
		t.Errorf("histogram covers %d cycles, want 5", total)
	}

	var b bytes.Buffer
	if err := m.WriteHistogram(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "bin_lo_pj,cycles\n") {
		t.Errorf("histogram csv = %q", b.String())
	}
	if strings.Count(b.String(), "\n") < 2 {
		t.Errorf("histogram csv has no bins: %q", b.String())
	}

	m.Reset()
	if m.Cycles != 0 || m.Secure != 0 || m.ByClass[isa.ClassXor] != 0 {
		t.Errorf("reset left counters: %+v", m)
	}
	for i, n := range m.Hist {
		if n != 0 {
			t.Errorf("reset left histogram bin %d = %d", i, n)
		}
	}
}

func TestMetricsWithoutMeter(t *testing.T) {
	var m Metrics
	m.OnCycle(isa.CycleInfo{Cycle: 0, U: &isa.UOp{}})
	if m.Cycles != 1 || len(m.Hist) != 0 {
		t.Errorf("meterless metrics = %+v", m)
	}
}
