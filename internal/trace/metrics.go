package trace

import (
	"fmt"
	"io"
	"sort"

	"desmask/internal/energy"
	"desmask/internal/isa"
)

// Metrics is an isa.Probe that accumulates pipeline-occupancy statistics and a
// per-cycle energy histogram without storing the trace itself: EX-stage
// micro-op class mix, secure-instruction occupancy, bubble cycles, and the
// distribution of cycle energies in fixed-width bins. It is the cheap
// always-on companion to a full Recorder.
//
// Meter is optional; when nil the energy histogram is disabled and only the
// occupancy counters accumulate. As with Recorder, attach the Meter to the
// CPU before the Metrics probe.
type Metrics struct {
	Meter *energy.Probe
	BinPJ float64 // histogram bin width in pJ; <=0 means 1.0

	Cycles  uint64
	Bubbles uint64 // cycles whose EX stage held no micro-op
	ByClass [isa.NumExecClasses]uint64
	Secure  uint64   // EX cycles occupied by dual-rail micro-ops
	Hist    []uint64 // Hist[i] = cycles with energy in [i*bin, (i+1)*bin)
}

// Reset clears all counters, keeping the histogram capacity.
func (m *Metrics) Reset() {
	m.Cycles, m.Bubbles, m.Secure = 0, 0, 0
	m.ByClass = [isa.NumExecClasses]uint64{}
	for i := range m.Hist {
		m.Hist[i] = 0
	}
}

func (m *Metrics) bin() float64 {
	if m.BinPJ <= 0 {
		return 1.0
	}
	return m.BinPJ
}

// OnExec implements isa.ExecObserver.
func (m *Metrics) OnExec(e isa.ExecEvent) {
	m.ByClass[e.U.Class]++
	if e.U.Secure {
		m.Secure++
	}
}

// OnCycle implements isa.Probe.
func (m *Metrics) OnCycle(ci isa.CycleInfo) {
	m.Cycles++
	if ci.U == nil {
		m.Bubbles++
	}
	if m.Meter == nil {
		return
	}
	i := int(m.Meter.LastPJ() / m.bin())
	if i < 0 {
		i = 0
	}
	for i >= len(m.Hist) {
		m.Hist = append(m.Hist, 0)
	}
	m.Hist[i]++
}

// Occupancy returns the fraction of cycles whose EX stage held a micro-op.
func (m *Metrics) Occupancy() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return 1 - float64(m.Bubbles)/float64(m.Cycles)
}

// TopClasses returns the micro-op classes observed in EX, most frequent
// first, as (class, count) pairs.
func (m *Metrics) TopClasses() []ClassCount {
	var out []ClassCount
	for c, n := range m.ByClass {
		if n > 0 {
			out = append(out, ClassCount{Class: isa.ExecClass(c), Count: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Class < out[j].Class
	})
	return out
}

// ClassCount is one entry of TopClasses.
type ClassCount struct {
	Class isa.ExecClass
	Count uint64
}

// WriteHistogram writes the energy histogram as CSV (bin_lo_pj, cycles),
// skipping empty bins.
func (m *Metrics) WriteHistogram(w io.Writer) error {
	if _, err := io.WriteString(w, "bin_lo_pj,cycles\n"); err != nil {
		return err
	}
	bin := m.bin()
	for i, n := range m.Hist {
		if n == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%g,%d\n", float64(i)*bin, n); err != nil {
			return err
		}
	}
	return nil
}
