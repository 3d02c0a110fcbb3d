package harness

import (
	"fmt"

	"rair/internal/stats"
	"rair/internal/trace"
)

// RecordPARSECTrace captures the PARSEC-proxy scenario's packet injections
// over a neutral (RO_RR) network for the given horizon — the trace-capture
// step of the paper's methodology (SIMICS+GEMS traces fed to GARNET).
func RecordPARSECTrace(cycles int64, seed uint64) *trace.Trace {
	regs, streams := PARSECScenario()
	var rec trace.Recorder
	s := Build(RunConfig{Regions: regs, Router: MemsysRouterConfig(), Streams: streams,
		Scheme: RORR(), Dur: Durations{Measure: cycles}, Seed: seed, Tap: rec.Capture})
	defer s.Close()
	s.Run()
	rec.T.Sort()
	return &rec.T
}

// TraceAdversaryFlitRate is the adversarial load for the trace-replay
// variant, kept equal to the closed-loop experiment for comparability.
// Replay is open-loop — recorded injections keep coming regardless of
// congestion, with no MSHR backpressure — so queueing integrates over the
// horizon and the *absolute* slowdowns are much larger and
// window-dependent; the scheme comparison (who protects the applications)
// is the meaningful output.
const TraceAdversaryFlitRate = AdversaryFlitRate

// traceDrain bounds how long Fig17Trace's replays may run past the trace's
// last event before their in-flight packets are dropped from the count.
const traceDrain = 100000

// replayConfig is the replay of t on the PARSEC mesh under a scheme, with
// an optional adversarial injector at advRate flits/node/cycle (0 = none).
// Packets injected from cycle warmup up to the trace's end are measured.
func replayConfig(t *trace.Trace, s Scheme, advRate float64, warmup, drain int64, seed uint64) RunConfig {
	regs, _ := PARSECScenario()
	return RunConfig{Regions: regs, Router: MemsysRouterConfig(), Trace: t, Scheme: s,
		Dur:  Durations{Warmup: warmup, Measure: t.Duration() - warmup, Drain: drain},
		Seed: seed, Adversary: advRate, AdversaryApp: AdversaryApp}
}

// ReplayPARSEC replays a captured trace under a scheme, with an optional
// adversarial injector at advRate flits/node/cycle (0 = none), and returns
// the latency collector for the applications' packets and the cycles
// simulated. Unlike the closed-loop PARSEC runs, replay holds the traffic
// identical across schemes — the paper's trace-driven comparison. The
// error reports a network still holding packets drain cycles after the
// trace's end.
func ReplayPARSEC(t *trace.Trace, s Scheme, advRate float64, warmup, drain int64, seed uint64) (*stats.Collector, int64, error) {
	sm := Build(replayConfig(t, s, advRate, warmup, drain, seed))
	defer sm.Close()
	sm.Run()
	if !sm.Drain() {
		return sm.Col, sm.Now(), fmt.Errorf("replay under %s: network still undrained %d cycles past the trace end", s.Name, drain)
	}
	return sm.Col, sm.Now(), nil
}

// Fig17Trace is the trace-driven variant of Figure 17: one PARSEC trace is
// captured once and replayed identically under every scheme, with and
// without the adversarial flood.
func Fig17Trace(dur Durations, seed uint64) *Fig17Result {
	t := RecordPARSECTrace(dur.Warmup+dur.Measure, seed)
	schemes := fig17Schemes()
	var rcs []RunConfig
	for _, s := range schemes {
		rcs = append(rcs,
			replayConfig(t, s, 0, dur.Warmup, traceDrain, seed),
			replayConfig(t, s, TraceAdversaryFlitRate, dur.Warmup, traceDrain, seed))
	}
	return slowdownResult("Figure 17 (trace-driven replay variant)", schemes, RunParallel(rcs))
}
