// Package harness builds the sim.Job of one execution of a compiled MiniC
// program: input arrays poked into their globals (as share pairs where the
// compiler carries a global masked), the masking runtime state drawn from
// the execution's mask stream, and the read-backs. Symbols are resolved once,
// when the Layout is built, so a job costs no symbol-table lookups.
package harness

import (
	"fmt"
	"slices"

	"desmask/internal/compiler"
	"desmask/internal/sim"
)

// Layout is a compiled program's job layout, resolved to addresses.
type Layout struct {
	inputs                       []input
	output                       sim.Read
	mrt                          compiler.MaskRuntime // zero when unprotected
	scrub, pool, cursor, shuffle uint32
}

// input is one input global; a masked input word v is poked as v XOR m at
// addr and m at shadow.
type input struct {
	addr, shadow uint32
	masked       bool
}

// New resolves the layout of res's jobs: the named input globals are poked
// in the given order, and outWords words of the output global are read back.
func New(res *compiler.Result, output string, outWords int, inputs ...string) (*Layout, error) {
	var err error
	addr := func(name string) uint32 {
		a, ok := res.Program.Symbols[compiler.GlobalLabel(name)]
		if !ok && err == nil {
			err = fmt.Errorf("harness: no global %q in symbol table", name)
		}
		return a
	}
	l := &Layout{output: sim.Read{Addr: addr(output), Words: outWords}}
	if res.Mask != nil {
		l.mrt = *res.Mask
	}
	if l.mrt.PoolWords > 0 {
		l.scrub, l.pool, l.cursor = addr(compiler.MaskScrubSym), addr(compiler.MaskPoolSym), addr(compiler.MaskCursorSym)
	}
	if l.mrt.ShuffleLen > 0 {
		l.shuffle = addr(compiler.ShuffleSym)
	}
	for _, name := range inputs {
		in := input{addr: addr(name), masked: slices.Contains(l.mrt.MaskedGlobals, name)}
		if in.masked {
			in.shadow = addr(compiler.MaskShadow(name))
		}
		l.inputs = append(l.inputs, in)
	}
	if err != nil {
		return nil, err
	}
	return l, nil
}

// Job assembles one execution. vals[k] is poked word by word into input k,
// a masked input's word v as the share pair (v XOR m, m) with m the next word
// of the mask stream seeded by maskSeed; then come the scrub word, the
// fresh-mask pool and the shuffle permutation, drawn from the same stream in
// that order. Reads[0] is the output; a program with a mask pool also reads
// back its final pool cursor as Reads[1] (see CheckCursor).
func (l *Layout) Job(maskSeed int64, vals ...[]uint32) sim.Job {
	n := l.mrt.ShuffleLen
	if l.mrt.PoolWords > 0 {
		n += 1 + l.mrt.PoolWords
	}
	for k, vs := range vals {
		if l.inputs[k].masked {
			n += len(vs)
		}
		n += len(vs)
	}
	job := sim.Job{Writes: make([]sim.Write, 0, n), Reads: append(make([]sim.Read, 0, 2), l.output)}
	rng := compiler.NewMaskStream(maskSeed)
	for k, vs := range vals {
		in := &l.inputs[k]
		for i, v := range vs {
			off := uint32(4 * i)
			if !in.masked {
				job.Writes = append(job.Writes, sim.Write{Addr: in.addr + off, Val: v})
				continue
			}
			m := rng.Next32()
			job.Writes = append(job.Writes, sim.Write{Addr: in.addr + off, Val: v ^ m}, sim.Write{Addr: in.shadow + off, Val: m})
		}
	}
	if l.mrt.PoolWords > 0 {
		job.Writes = append(job.Writes, sim.Write{Addr: l.scrub, Val: rng.Next32()})
		for i := 0; i < l.mrt.PoolWords; i++ {
			job.Writes = append(job.Writes, sim.Write{Addr: l.pool + uint32(4*i), Val: rng.Next32()})
		}
		job.Reads = append(job.Reads, sim.Read{Addr: l.cursor, Words: 1})
	}
	for i, v := range rng.Perm(l.mrt.ShuffleLen) {
		job.Writes = append(job.Writes, sim.Write{Addr: l.shuffle + uint32(4*i), Val: v})
	}
	return job
}

// CheckCursor asserts a masked run stayed inside its fresh-mask pool, using
// the cursor read-back Job appends. No-op for programs without a pool.
func (l *Layout) CheckCursor(res sim.Result) error {
	if l.mrt.PoolWords == 0 {
		return nil
	}
	if len(res.Mem) < 2 || len(res.Mem[1]) != 1 {
		return fmt.Errorf("harness: masked run result carries no pool cursor read-back")
	}
	end := l.pool + uint32(4*l.mrt.PoolWords)
	cur := res.Mem[1][0]
	if cur < l.pool || cur > end {
		return fmt.Errorf("harness: mask pool overflow: cursor %#x outside [%#x,%#x] (%d words drawn, pool holds %d)",
			cur, l.pool, end, (cur-l.pool)/4, l.mrt.PoolWords)
	}
	return nil
}
