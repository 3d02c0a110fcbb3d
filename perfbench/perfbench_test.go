package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// inProcess runs roles in the test process, through the same JSON
// encoding the child processes use.
func inProcess(role string, o options, v any) error {
	res, err := runRole(role, o)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// tiny shrinks w so every role runs in about a second. The mesh stays 8x8:
// on 4x4 the injection channel fixes the saturation rate whatever the
// calibration seed, so a drifted calibration would go unnoticed.
func tiny(w workload) workload {
	w.mesh = 8
	w.warmup, w.measure = 200, 800
	if w.equivCycles > 0 {
		w.equivCycles = 40
	}
	w.drain = 5000
	return w
}

type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTablesMatchContract keeps the binary's workload and metric tables
// equal to BENCHMARK.json, names and units.
func TestTablesMatchContract(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, binary %q", i, w.Name, workloads[i].name)
		}
	}
	for _, tc := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{c.EndToEnd, endToEnd}, {c.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the binary %d", len(tc.json), len(tc.defs))
		}
		for i, m := range tc.json {
			if m.Name != tc.defs[i].name || m.Unit != tc.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], binary %s [%s]", i, m.Name, m.Unit, tc.defs[i].name, tc.defs[i].unit)
			}
		}
	}
}

// TestEveryMetricPrinted runs each workload at tiny size, untraced and
// traced, and checks that every metric is printed with its unit, that the
// JSON line carries exactly the mode's metrics, and that no check failed.
func TestEveryMetricPrinted(t *testing.T) {
	c := readContract(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{w: tiny(w), seed: 3, seconds: 0.01, trace: traced, out: t.TempDir()}
			var buf bytes.Buffer
			if err := bench(o, inProcess, &buf); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			out := buf.String()
			lines := strings.Split(strings.TrimSpace(out), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < sessions {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced, res.Correct, res.Attempted, res.Failed, out)
			}
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in JSON, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a number in %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
			printed := append([]struct{ Name, Unit string }{{"failed_run_frac", "ratio"}}, c.EndToEnd...)
			if traced {
				printed = append(printed, c.PerLayer...)
			}
			for _, m := range printed {
				if !hasMetricLine(out, m.Name, m.Unit) {
					t.Errorf("%s trace=%v: no metric line for %s [%s]", w.name, traced, m.Name, m.Unit)
				}
			}
		}
	}
}

func hasMetricLine(out, name, unit string) bool {
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) == 4 && f[0] == "metric" && f[1] == name && f[3] == unit {
			return true
		}
	}
	return false
}

// TestPerturbedDigestFails checks that a run whose simulated output
// differs in one bit, a traced run that disagrees with the untraced one,
// a sharded engine that disagrees with the serial one, and an equivalence
// prefix that delivered nothing each count as a failed run.
func TestPerturbedDigestFails(t *testing.T) {
	w := tiny(workloads[0])
	var s sessionResult
	if err := inProcess("session", options{w: w, seed: 1, seconds: 0.01}, &s); err != nil {
		t.Fatal(err)
	}
	if s.Err != "" || len(s.Runs) == 0 {
		t.Fatalf("session failed: %+v", s)
	}
	good := s.Runs[0]
	bad := good
	bad.Out.APL = math.Nextafter(bad.Out.APL, math.Inf(1))
	bad.Digest = bad.Out.digest()
	if bad.Digest == good.Digest {
		t.Fatal("digest ignores a one-bit change in APL")
	}
	ss := []sessionResult{{Runs: []runResult{good, good}}, {Runs: []runResult{good, bad}}}
	if v := judge(ss, nil, nil); v.attempted != 4 || len(v.reasons) != 1 {
		t.Errorf("perturbed run: attempted %d failed %d, want 4 and 1", v.attempted, len(v.reasons))
	}

	clean := []sessionResult{{Runs: []runResult{good}}}
	tr := &tracedResult{Out: bad.Out, Digest: bad.Digest, Metrics: map[string]float64{}}
	if v := judge(clean, tr, nil); len(v.reasons) != 1 {
		t.Errorf("perturbed traced digest: %d failures, want 1", len(v.reasons))
	}
	tr.Digest, tr.InFlight = good.Digest, 3
	if v := judge(clean, tr, nil); len(v.reasons) != 1 {
		t.Errorf("undrained traced run: %d failures, want 1", len(v.reasons))
	}
	eq := &equivResult{Packets: good.Out.Packets, Serial: good.Digest, Sharded: bad.Digest}
	if v := judge(clean, nil, eq); len(v.reasons) != 1 {
		t.Errorf("sharded digest differs from serial: %d failures, want 1", len(v.reasons))
	}
	eq = &equivResult{Serial: good.Digest, Sharded: good.Digest}
	if v := judge(clean, nil, eq); len(v.reasons) != 1 {
		t.Errorf("empty equivalence prefix: %d failures, want 1", len(v.reasons))
	}
	if v := judge(clean, nil, nil); len(v.reasons) != 0 {
		t.Errorf("clean session: %v", v.reasons)
	}
}
