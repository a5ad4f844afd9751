package cpu_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"desmask/internal/asm"
	"desmask/internal/cpu"
	"desmask/internal/isa"
	"desmask/internal/mem"
)

// faultCase is one program whose run ends in an error, with the exact error
// text, statistics and non-zero registers the core must report at that
// point. The values are pinned, not derived: they are what the five-stage
// core has always reported, so a change to how the pipeline is stepped
// cannot move them.
type faultCase struct {
	name   string
	src    string
	budget uint64
	err    string
	limit  bool // errors.Is(err, cpu.ErrCycleLimit)
	stats  cpu.Stats
	regs   map[isa.Reg]uint32 // every register not listed must be zero
	// last is the stage events of the final cycle, in firing order: a
	// faulting cycle fires the events of the stages before the fault and
	// no OnCycle. events is the run's total event count.
	last   string
	events int
}

// withInit adds the registers a fresh core initialises: GP at the data base,
// SP at the top of a 4 KiB stack above the (empty) data segment.
func withInit(regs map[isa.Reg]uint32) map[isa.Reg]uint32 {
	regs[isa.GP] = 0x4000
	regs[isa.SP] = 0x5000
	return regs
}

var faultCases = []faultCase{
	{
		// The faulting load is in MEM while a second load in EX stalls its
		// consumer in ID: the fault ends the cycle before ID, so the stall
		// is not counted.
		name:   "misaligned-lw",
		src:    "main:\tli $t0, 2\n\tli $t2, 9\n\tlw $t1, 0($t0)\n\tlw $t4, 0($gp)\n\taddiu $t3, $t4, 1\n\thalt\n",
		budget: 100,
		err:    "cpu: pc 0x8: mem: misaligned load at 0x2",
		stats:  cpu.Stats{Cycles: 5, Insts: 2},
		regs:   withInit(map[isa.Reg]uint32{isa.T0: 2, isa.T2: 9}),
		last:   "5:WB=0x9",
		events: 19,
	},
	{
		// Memory is sparse, so a store faults only on alignment; the
		// address is also far outside the data segment.
		name:   "out-of-range-sw",
		src:    "main:\tli $t0, -2\n\tli $t1, 7\n\tsw $t1, 0($t0)\n\tlw $t4, 0($gp)\n\taddiu $t3, $t4, 1\n\thalt\n",
		budget: 100,
		err:    "cpu: pc 0x8: mem: misaligned store at 0xfffffffe",
		stats:  cpu.Stats{Cycles: 5, Insts: 2},
		regs:   withInit(map[isa.Reg]uint32{isa.T0: 0xfffffffe, isa.T1: 7}),
		last:   "5:WB=0x7",
		events: 19,
	},
	{
		name:   "misaligned-jr",
		src:    "main:\tli $t0, 6\n\tli $t1, 5\n\tjr $t0\n\taddiu $t2, $t1, 1\n\thalt\n",
		budget: 100,
		err:    "cpu: jr to misaligned address 0x6 at pc 0x8",
		stats:  cpu.Stats{Cycles: 4, Insts: 1},
		regs:   withInit(map[isa.Reg]uint32{isa.T0: 6}),
		last:   "4:WB=0x6",
		events: 14,
	},
	{
		name:   "fetch-outside-text",
		src:    "main:\tli $t0, 4\n\tnop\n\taddiu $t1, $t0, 3\n",
		budget: 100,
		err:    "cpu: instruction fetch outside text segment at pc 0xc",
		stats:  cpu.Stats{Cycles: 6, Insts: 3},
		regs:   withInit(map[isa.Reg]uint32{isa.T0: 4, isa.T1: 7}),
		last:   "6:WB=0x7",
		events: 18,
	},
	{
		name:   "budget",
		src:    "main:\taddiu $t0, $t0, 1\n\tlw $t1, 0($gp)\n\taddu.s $t2, $t1, $t0\n\tj main\n\thalt\n",
		budget: 37,
		err:    "cpu: cycle limit of 37 reached before halt",
		limit:  true,
		stats:  cpu.Stats{Cycles: 37, Insts: 20, SecureInst: 5, Stalls: 5, Flushes: 5},
		regs:   withInit(map[isa.Reg]uint32{isa.T0: 5, isa.T2: 5}),
		last:   "36:WB=0x0 36:ID=0x5,0x1 36:IF=0x4 36:CY",
		events: 135,
	},
}

// faultProgram assembles src for the named target. The programs use only
// instructions whose semantics are identical on every target (no lui), so
// the same assembled text runs on PISA and RV32.
func faultProgram(t *testing.T, src, target string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	tg, ok := isa.TargetByName(target)
	if !ok {
		t.Fatalf("unknown target %q", target)
	}
	p.Target = tg
	return p
}

// eventLog records every stage event and committed cycle as "cycle:STAGE"
// tokens, with the values each event carries.
type eventLog struct{ toks []string }

func (l *eventLog) add(cycle uint64, format string, args ...any) {
	l.toks = append(l.toks, fmt.Sprintf("%d:", cycle)+fmt.Sprintf(format, args...))
}

func (l *eventLog) OnWriteback(e cpu.WritebackEvent) { l.add(e.Cycle, "WB=%#x", e.Value) }
func (l *eventLog) OnMem(e cpu.MemEvent)             { l.add(e.Cycle, "MEM=%#x/%#x", e.Addr, e.Data) }
func (l *eventLog) OnExec(e cpu.ExecEvent) {
	l.add(e.Cycle, "EX=%#x,%#x->%#x,%v,%#x", e.A, e.B, e.Result, e.Taken, e.Target)
}
func (l *eventLog) OnIssue(e cpu.IssueEvent) { l.add(e.Cycle, "ID=%#x,%#x", e.A, e.B) }
func (l *eventLog) OnFetch(e cpu.FetchEvent) { l.add(e.Cycle, "IF=%#x", e.PC) }
func (l *eventLog) OnCycle(ci cpu.CycleInfo) { l.add(ci.Cycle, "CY") }

// last returns the tokens of the final cycle that fired any event.
func (l *eventLog) last() string {
	if len(l.toks) == 0 {
		return ""
	}
	cycle := strings.SplitN(l.toks[len(l.toks)-1], ":", 2)[0] + ":"
	i := len(l.toks)
	for i > 0 && strings.HasPrefix(l.toks[i-1], cycle) {
		i--
	}
	return strings.Join(l.toks[i:], " ")
}

func checkRegs(t *testing.T, c *cpu.CPU, want map[isa.Reg]uint32) {
	t.Helper()
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if got := c.Reg(r); got != want[r] {
			t.Errorf("reg %v = %#x, want %#x", r, got, want[r])
		}
	}
}

// TestExactFaults pins the error value, Stats, register file and stage
// events a run reports when it ends in a MEM, EX or fetch fault or an
// expired budget.
func TestExactFaults(t *testing.T) {
	for _, target := range []string{"pisa", "rv32"} {
		for _, fc := range faultCases {
			t.Run(target+"/"+fc.name, func(t *testing.T) {
				c, err := cpu.New(faultProgram(t, fc.src, target), mem.New())
				if err != nil {
					t.Fatal(err)
				}
				log := &eventLog{}
				c.Attach(log)
				err = c.Run(fc.budget)
				if err == nil || err.Error() != fc.err {
					t.Fatalf("err = %v, want %q", err, fc.err)
				}
				if got := errors.Is(err, cpu.ErrCycleLimit); got != fc.limit {
					t.Errorf("errors.Is(err, ErrCycleLimit) = %v, want %v", got, fc.limit)
				}
				if got := c.Stats(); got != fc.stats {
					t.Errorf("stats = %+v, want %+v", got, fc.stats)
				}
				checkRegs(t, c, fc.regs)
				if got := log.last(); got != fc.last {
					t.Errorf("final cycle events %q, want %q", got, fc.last)
				}
				if got := len(log.toks); got != fc.events {
					t.Errorf("%d events, want %d", got, fc.events)
				}
			})
		}
		t.Run(target+"/step-halted", func(t *testing.T) {
			c, err := cpu.New(faultProgram(t, "main:\tli $t0, 3\n\thalt\n", target), mem.New())
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Run(100); err != nil {
				t.Fatal(err)
			}
			err = c.Step()
			if want := "cpu: stepping a halted core"; err == nil || err.Error() != want {
				t.Fatalf("err = %v, want %q", err, want)
			}
			if got, want := c.Stats(), (cpu.Stats{Cycles: 6, Insts: 2}); got != want {
				t.Errorf("stats = %+v, want %+v", got, want)
			}
			checkRegs(t, c, withInit(map[isa.Reg]uint32{isa.T0: 3}))
		})
	}
}
