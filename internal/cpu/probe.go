package cpu

import "desmask/internal/isa"

// The stage-event types and observer interfaces live in package isa, beside
// PipelineSpec, so that observers (energy, trace) need not import the core.
// These aliases keep the cpu spellings.
type (
	CycleInfo         = isa.CycleInfo
	FetchEvent        = isa.FetchEvent
	IssueEvent        = isa.IssueEvent
	ExecEvent         = isa.ExecEvent
	MemEvent          = isa.MemEvent
	WritebackEvent    = isa.WritebackEvent
	Probe             = isa.Probe
	ProbeFunc         = isa.ProbeFunc
	FetchObserver     = isa.FetchObserver
	IssueObserver     = isa.IssueObserver
	ExecObserver      = isa.ExecObserver
	MemObserver       = isa.MemObserver
	WritebackObserver = isa.WritebackObserver
)

// Attach registers a probe. The probe's stage interfaces are discovered once
// here by type assertion, so the per-cycle loop dispatches through dense
// slices with no dynamic checks. Probes fire in attachment order and only in
// width-1 runs (Reset(1)); attach the energy meter first if later probes
// read it within the same cycle. A nil probe is ignored.
func (e *Engine) Attach(p Probe) {
	if p == nil {
		return
	}
	e.probes = append(e.probes, p)
	if o, ok := p.(FetchObserver); ok {
		e.fetchObs = append(e.fetchObs, o)
	}
	if o, ok := p.(IssueObserver); ok {
		e.issueObs = append(e.issueObs, o)
	}
	if o, ok := p.(ExecObserver); ok {
		e.execObs = append(e.execObs, o)
	}
	if o, ok := p.(MemObserver); ok {
		e.memObs = append(e.memObs, o)
	}
	if o, ok := p.(WritebackObserver); ok {
		e.wbObs = append(e.wbObs, o)
	}
}

// ClearProbes detaches all probes.
func (e *Engine) ClearProbes() {
	e.probes = e.probes[:0]
	e.fetchObs = e.fetchObs[:0]
	e.issueObs = e.issueObs[:0]
	e.execObs = e.execObs[:0]
	e.memObs = e.memObs[:0]
	e.wbObs = e.wbObs[:0]
}

// Attach registers a probe on the core; see Engine.Attach. An energy.Probe
// attached first meters every cycle from the stage events.
func (c *CPU) Attach(p Probe) { c.e.Attach(p) }

// ClearProbes detaches all probes.
func (c *CPU) ClearProbes() { c.e.ClearProbes() }
