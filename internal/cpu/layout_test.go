package cpu

import (
	"testing"
	"unsafe"

	"desmask/internal/asm"
	"desmask/internal/energy"
)

// TestEngineCacheLinePads fails if a false-sharing pad is removed: every
// worker writes its engine's control state and lanes each cycle, and an
// engine that shares a 64-byte line with another worker's engine or meter
// slows single-lane runs by ~14%.
func TestEngineCacheLinePads(t *testing.T) {
	var e Engine
	if off := unsafe.Offsetof(e.prog); off < 64 {
		t.Errorf("first Engine field at offset %d, want a leading pad of >= 64 bytes", off)
	}
	if tail := unsafe.Sizeof(e) - (unsafe.Offsetof(e.wbObs) + unsafe.Sizeof(e.wbObs)); tail < 64 {
		t.Errorf("Engine ends %d bytes after its last field, want a trailing pad of >= 64", tail)
	}
	if pad := lanePad * unsafe.Sizeof(Lane{}); pad < 64 {
		t.Errorf("lane padding is %d bytes per side, want >= 64", pad)
	}
	p, err := asm.Assemble("main: halt\n")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, energy.DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := cap(eng.lanes) - len(eng.lanes); got < lanePad {
		t.Errorf("lanes are followed by %d spare lanes, want %d", got, lanePad)
	}
}
