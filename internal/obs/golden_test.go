package obs_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"subgraph/internal/congest"
	"subgraph/internal/core"
	"subgraph/internal/graph"
	"subgraph/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden trace file")

// TestGoldenTriangleTrace pins the exact JSONL trace of a tiny seeded
// triangle-detection run. With OmitTimings the trace is byte-deterministic
// (single-goroutine hooks, fixed seed, struct-ordered fields), so any
// change to the event schema, the runner's hook placement, or the
// detector's message pattern shows up as a golden diff. Regenerate with
//
//	go test ./internal/obs -run Golden -update
func TestGoldenTriangleTrace(t *testing.T) {
	// K_3 plus a pendant vertex: the smallest graph where the detector
	// sends along an edge that is in no triangle.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	g := b.Build()

	var buf bytes.Buffer
	tr := obs.NewJSONLTracerOptions(&buf, obs.JSONLOptions{OmitTimings: true})
	rep, err := core.DetectTriangle(congest.NewNetwork(g), core.TriangleConfig{Exec: core.Exec{Seed: 1, Tracer: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatal("triangle not detected on K_3 + pendant")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "triangle_trace.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		gotLines := bytes.Split(buf.Bytes(), []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w []byte
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("trace diverges from golden at line %d:\n  got:  %s\n  want: %s\n(regenerate with -update if the change is intended)",
					i+1, g, w)
			}
		}
		t.Fatal("trace differs from golden (length mismatch)")
	}
}
