package energy

import (
	"testing"
	"unsafe"
)

// TestVecMeterCacheLinePads fails if a false-sharing pad is removed: every
// worker writes its meter each cycle, and a meter that shares a 64-byte line
// with another worker's meter or engine slows single-lane runs by ~14%.
func TestVecMeterCacheLinePads(t *testing.T) {
	var v VecMeter
	if off := unsafe.Offsetof(v.cfg); off < 64 {
		t.Errorf("first VecMeter field at offset %d, want a leading pad of >= 64 bytes", off)
	}
	if tail := unsafe.Sizeof(v) - (unsafe.Offsetof(v.prefix) + unsafe.Sizeof(v.prefix)); tail < 64 {
		t.Errorf("VecMeter ends %d bytes after its last field, want a trailing pad of >= 64", tail)
	}
	if pad := lanePad * unsafe.Sizeof(laneRails{}); pad < 64 {
		t.Errorf("lane padding is %d bytes per side, want >= 64", pad)
	}
	m := NewVecMeter(DefaultConfig(), 3)
	if got := cap(m.lanes) - len(m.lanes); got < lanePad {
		t.Errorf("lanes are followed by %d spare lanes, want %d", got, lanePad)
	}
}
