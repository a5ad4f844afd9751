package isa

// PipelineSpec describes the pipeline geometry of a target's core as data:
// the constants that used to live implicitly in internal/cpu's five-stage
// control logic (branch resolution stage, load-use latency, flush depth) plus
// the fill/drain latencies that position an instruction's EX cycle within a
// run. Declaring the geometry on the Target keeps room for a backend with a
// different pipeline (a deeper or differently resolved core) without
// silently simulating it on the wrong timing.
//
// The one pipeline in internal/cpu — the lockstep engine, which runs a
// single program at width 1 and gangs of lanes at width N — implements
// exactly one geometry, the classic five-stage in-order IF/ID/EX/MEM/WB
// machine, and checks at construction that the program's target declares it
// (FiveStage). A target declaring any other geometry is rejected, so a
// declared spec and the simulated timing can never silently disagree. The
// stage events below are that pipeline's observation interface.
type PipelineSpec struct {
	// Stages is the pipeline depth (5: IF, ID, EX, MEM, WB).
	Stages int
	// BranchResolveStage is the zero-based stage index where control flow
	// resolves (2 = EX). A taken branch squashes the FlushSlots younger
	// stages, so the redirect penalty is FlushSlots + 1 cycles between the
	// branch's and the target's EX occupancy.
	BranchResolveStage int
	// LoadUseStall is the number of bubble cycles inserted between a load
	// and an immediately dependent consumer (1: the loaded value is
	// available after MEM, one stage past EX forwarding).
	LoadUseStall int
	// FlushSlots is the number of younger in-flight instructions squashed by
	// a taken branch or jump (2: the ID and IF occupants).
	FlushSlots int
	// FillLatency is the number of cycles between an instruction's fetch and
	// its EX occupancy (2: IF and ID), which places the first instruction of
	// a run at EX cycle FillLatency.
	FillLatency int
	// DrainLatency is the number of cycles between an instruction's EX
	// occupancy and its retirement at end of WB (2: MEM and WB). A program
	// that halts at EX cycle E finishes with E + 1 + DrainLatency total
	// cycles.
	DrainLatency int
}

// FiveStage is the classic in-order five-stage geometry implemented by the
// cycle-accurate core in internal/cpu: branches resolve in EX with a
// two-slot flush, loads stall a dependent consumer one cycle, and every
// instruction spends two cycles filling (IF, ID) and two draining (MEM, WB).
var FiveStage = PipelineSpec{
	Stages:             5,
	BranchResolveStage: 2,
	LoadUseStall:       1,
	FlushSlots:         2,
	FillLatency:        2,
	DrainLatency:       2,
}

// CycleInfo describes one committed clock cycle. U points at the micro-op
// that occupied EX this cycle, or is nil for a bubble (stall or flush slot).
type CycleInfo struct {
	Cycle uint64
	U     *UOp
}

// FetchEvent fires when IF drives an instruction word onto the fetch bus.
type FetchEvent struct {
	Cycle uint64
	PC    uint32
	Word  uint32
}

// IssueEvent fires when ID decodes a micro-op and reads the register file.
// A and B are the operand values as read in ID, before forwarding.
type IssueEvent struct {
	Cycle uint64
	U     *UOp
	A, B  uint32
}

// ExecEvent fires when EX evaluates a micro-op. A and B are the operand
// values after forwarding — the values the datapath actually switches on.
// Because a control redirect squashes only the ID and IF stages, every
// micro-op that reaches EX also retires: ExecEvents correspond one-to-one
// with architectural execution.
type ExecEvent struct {
	Cycle  uint64
	U      *UOp
	A, B   uint32
	Result uint32
	Taken  bool
	Target uint32
}

// MemEvent fires when MEM performs a data-memory access. Data is the loaded
// value for loads and the stored value for stores.
type MemEvent struct {
	Cycle uint64
	U     *UOp
	Addr  uint32
	Data  uint32
}

// WritebackEvent fires when WB retires a micro-op. Value is the writeback
// bus value (driven even when the micro-op has no destination register).
type WritebackEvent struct {
	Cycle uint64
	U     *UOp
	Value uint32
}

// Probe observes the pipeline of a single-lane run. Every probe receives
// OnCycle once per committed cycle; probes that additionally implement one
// of the stage observer interfaces below receive those events as the stages
// fire, in stage order WB, MEM, EX, ID, IF, with OnCycle after the commit.
// A cycle that faults fires the events of the stages before the fault and
// no OnCycle.
//
// Probes are observation-only: they must not mutate architectural state
// (registers, memory, PC) or influence simulation outcomes. The core hands
// probes pointers into its internal micro-op table for efficiency; treat
// them as read-only. Probes fire synchronously in attachment order.
type Probe interface {
	OnCycle(CycleInfo)
}

// ProbeFunc adapts a function to Probe.
type ProbeFunc func(CycleInfo)

// OnCycle implements Probe.
func (f ProbeFunc) OnCycle(c CycleInfo) { f(c) }

// FetchObserver receives IF-stage events.
type FetchObserver interface {
	OnFetch(FetchEvent)
}

// IssueObserver receives ID-stage events.
type IssueObserver interface {
	OnIssue(IssueEvent)
}

// ExecObserver receives EX-stage events.
type ExecObserver interface {
	OnExec(ExecEvent)
}

// MemObserver receives MEM-stage events.
type MemObserver interface {
	OnMem(MemEvent)
}

// WritebackObserver receives WB-stage events.
type WritebackObserver interface {
	OnWriteback(WritebackEvent)
}
