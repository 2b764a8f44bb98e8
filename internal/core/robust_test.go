package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

func TestTriangleDetectionUnderFaults(t *testing.T) {
	g := graph.Cycle(3) // the triangle itself

	base, err := DetectTriangle(congest.NewNetwork(g), TriangleConfig{})
	if err != nil || !base.Detected {
		t.Fatalf("baseline: %v detected=%v", err, base != nil && base.Detected)
	}

	// A fully lossy network hides the triangle from the plain detector.
	lossy, err := DetectTriangle(congest.NewNetwork(g), TriangleConfig{
		Exec: Exec{Faults: &congest.FaultPlan{DropRate: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Detected {
		t.Fatal("detected a triangle with every message dropped")
	}
	if lossy.Stats.DroppedMessages == 0 {
		t.Fatal("no drops recorded")
	}

	// The resilient decorator recovers detection under moderate loss.
	rec, err := DetectTriangle(congest.NewNetwork(g), TriangleConfig{
		Exec: Exec{
			Faults:    &congest.FaultPlan{Seed: 3, DropRate: 0.3},
			Resilient: &congest.ResilientConfig{MaxRetries: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Detected {
		t.Fatal("resilient detector missed the triangle under 30% drops")
	}
	if rec.Stats.Rounds <= base.Stats.Rounds || rec.Stats.TotalBits <= base.Stats.TotalBits {
		t.Fatalf("resilient overhead not visible: %d rounds / %d bits vs base %d / %d",
			rec.Stats.Rounds, rec.Stats.TotalBits, base.Stats.Rounds, base.Stats.TotalBits)
	}
}

func TestDetectorDeadlineReturnsPartialReport(t *testing.T) {
	g := graph.Cycle(64)
	rep, err := DetectCycleLinear(congest.NewNetwork(g), LinearCycleConfig{
		CycleLen: 4,
		Exec:     Exec{Deadline: time.Nanosecond},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if rep == nil {
		t.Fatal("no partial report")
	}
}

func TestResilientIncompatibleWithBroadcast(t *testing.T) {
	g := graph.Cycle(8)
	_, err := DetectCycleLinear(congest.NewNetwork(g), LinearCycleConfig{
		CycleLen:      4,
		BroadcastOnly: true,
		Exec:          Exec{Resilient: &congest.ResilientConfig{}},
	})
	if err == nil {
		t.Fatal("broadcast + resilient accepted")
	}
}
