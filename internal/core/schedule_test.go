package core

import (
	"testing"
	"time"
)

func TestPoolOccupancy(t *testing.T) {
	spans := []time.Duration{3 * time.Second, 2 * time.Second, 2 * time.Second, time.Second}
	// Perfectly packed at 2 workers: 8s of work over 2×4s.
	if got := PoolOccupancy(spans, 2); got != 1.0 {
		t.Fatalf("occupancy = %v, want 1.0", got)
	}
	// A straggler leaves the other workers idle.
	straggle := []time.Duration{10 * time.Second, time.Second, time.Second}
	got := PoolOccupancy(straggle, 3)
	want := 12.0 / (3 * 10.0)
	if got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("occupancy = %v, want %v", got, want)
	}
	if PoolOccupancy(nil, 4) != 0 {
		t.Fatal("empty span set should have zero occupancy")
	}
}
