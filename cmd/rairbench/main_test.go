package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// history reads the raw entries of a results file.
func history(t *testing.T, path string) []json.RawMessage {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res benchResults
	if err := json.Unmarshal(buf, &res); err != nil {
		t.Fatal(err)
	}
	return res.History
}

func compact(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAppendKeepsHistory: appending to the committed results file keeps
// every earlier entry's content, fields the current schema dropped
// included, and adds the new entry last.
func TestAppendKeepsHistory(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "BENCH_results.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "results.json")
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	before := history(t, path)
	if len(before) == 0 {
		t.Fatal("committed results file has no history")
	}
	if err := appendBenchEntry(path, benchEntry{Date: "2026-01-02T03:04:05Z", Seed: 7, ProbeCycles: 100}); err != nil {
		t.Fatal(err)
	}
	after := history(t, path)
	if len(after) != len(before)+1 {
		t.Fatalf("history has %d entries after append, want %d", len(after), len(before)+1)
	}
	for i := range before {
		if compact(t, after[i]) != compact(t, before[i]) {
			t.Fatalf("entry %d changed:\n got %s\nwant %s", i, after[i], before[i])
		}
	}
	var last benchEntry
	if err := json.Unmarshal(after[len(before)], &last); err != nil || last.Date != "2026-01-02T03:04:05Z" || last.Seed != 7 {
		t.Fatalf("appended entry %s (%v)", after[len(before)], err)
	}
}

// TestAppendRejectsLegacy: a single-object file from before the history
// schema is rejected and left untouched.
func TestAppendRejectsLegacy(t *testing.T) {
	legacy := []byte(`{"date": "2025-01-01T00:00:00Z", "cycles_per_s_serial": 1000, "cycles_per_s_sharded": 900, "shard_workers": 2}` + "\n")
	path := filepath.Join(t.TempDir(), "legacy.json")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendBenchEntry(path, benchEntry{Date: "2026-01-02T03:04:05Z"}); err == nil {
		t.Fatal("legacy single-object file accepted")
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, legacy) {
		t.Fatalf("rejected file was rewritten:\n%s", got)
	}
}
