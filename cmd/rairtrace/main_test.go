package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"rair/internal/harness"
)

// TestReplayDrainTimeout: replay fails when the network has not drained
// within -drain-timeout cycles of the trace's end, and succeeds with the
// same summary lines otherwise.
func TestReplayDrainTimeout(t *testing.T) {
	tr := harness.RecordPARSECTrace(3000, 1)
	var short bytes.Buffer
	err := replayTrace(&short, tr, "RO_RR", 500, 1)
	if err == nil || !strings.Contains(err.Error(), "undrained") {
		t.Fatalf("1-cycle drain timeout: err = %v, want an undrained-network error", err)
	}
	var full bytes.Buffer
	if err := replayTrace(&full, tr, "RO_RR", 500, 200000); err != nil {
		t.Fatalf("default drain timeout: %v", err)
	}
	if out := full.String(); !strings.Contains(out, fmt.Sprintf("replayed %d packets under RO_RR", tr.Len())) ||
		!strings.Contains(out, "app 3: APL") {
		t.Fatalf("replay summary:\n%s", out)
	}
	if err := replayTrace(&full, tr, "NOPE", 500, 200000); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestGenTraceBytes pins the bytes `rairtrace gen -seed 1 -cycles 5000`
// writes: capture runs the full PARSEC memory-system path, so any change
// to its assembly, tick order or injection shows up here.
func TestGenTraceBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := harness.RecordPARSECTrace(5000, 1).Write(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "8b1cf003334d4e0113313ea2f9f7ae8299cab2902fd94497aa39b6c2858e3620"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("trace digest %s, want %s", got, want)
	}
}
