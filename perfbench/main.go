// Command perfbench is the rair simulator's benchmark. It runs one named
// workload for a stated time, checks the simulated outputs, and prints
// every metric by name and unit, ending with one JSON line:
//
//	perfbench -workload quad8-hot -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the JSON carries the end-to-end metrics, measured through
// the public rair API with tracing off. With -trace 1 it carries the
// per-layer metrics of an extra traced run assembled from the layers'
// own constructors. README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees. failed_run_frac
// is printed too, but the JSON carries it as attempted and failed.
var endToEnd = []metricDef{
	{"router_cycles_per_s", "router-cycles/s"},
	{"setup_s", "s"},
	{"peak_rss_bytes_per_router", "B/router"},
	{"sim_apl_cycles", "cycles"},
	{"sim_p99_cycles", "cycles"},
}

// perLayer are the traced run's metrics.
var perLayer = []metricDef{
	{"traffic.calibrate_s", "s"},
	{"traffic.tick_ns_per_cycle", "ns/cycle"},
	{"network.new_s", "s"},
	{"network.tick_ns_per_cycle", "ns/cycle"},
	{"network.links_ns_per_cycle", "ns/cycle"},
	{"network.compute_ns_per_cycle", "ns/cycle"},
	{"network.cong_ns_per_cycle", "ns/cycle"},
	{"network.barrier_wait_ns_per_cycle", "ns/cycle"},
	{"network.shard_imbalance", "ratio"},
	{"network.coord_serial_ns_per_cycle", "ns/cycle"},
	{"router.busy_frac", "ratio"},
	{"router.fastpath_frac", "ratio"},
	{"memsys.prewarm_s", "s"},
	{"memsys.tick_ns_per_cycle", "ns/cycle"},
	{"memsys.eject_ns_per_packet", "ns/packet"},
	{"memsys.l1_hit_rate", "ratio"},
	{"memsys.mshr_stall_frac", "ratio"},
	{"stats.eject_ns_per_packet", "ns/packet"},
	{"stats.samples", "count"},
	{"sim.step_overhead_ns_per_cycle", "ns/cycle"},
	{"runtime.alloc_bytes_per_cycle", "B/cycle"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.peak_heap_bytes", "B"},
	{"books.unaccounted_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

const (
	// sessions is how many child processes set the workload up, each for
	// its own seed, and then run for a third of -seconds. Set-up time and
	// peak RSS are medians over the sessions, stepping speed a median over
	// all their runs, and the simulated metrics means over their seeds.
	sessions = 3
	deadline = 170 * time.Second
)

type options struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	commit  string
	source  string
	out     string
}

// envStamp records where and how a result was measured.
type envStamp struct {
	Workload       string   `json:"workload"`
	Seed           uint64   `json:"seed"`
	SessionSeeds   []uint64 `json:"session_seeds"`
	Trace          bool     `json:"trace"`
	GOMAXPROCS     int      `json:"gomaxprocs"`
	NumCPU         int      `json:"num_cpu"`
	GoVersion      string   `json:"go_version"`
	Commit         string   `json:"commit"`
	Source         string   `json:"source_sha256"`
	TimedEngine    string   `json:"timed_engine"`
	TracedWorkers  int      `json:"traced_workers"`
	Oversubscribed bool     `json:"oversubscribed"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]metricOutcome `json:"metrics"`
}

type metricOutcome struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict counts the runs that failed an output check.
type verdict struct {
	attempted int
	reasons   []string
}

func (v *verdict) check(ok bool, format string, args ...any) {
	v.attempted++
	if !ok {
		v.reasons = append(v.reasons, fmt.Sprintf(format, args...))
	}
}

// sessionRef is the digest of s's first run that delivered packets. Every
// run of a session simulates the same seed, so every run must match it.
func sessionRef(s sessionResult) string {
	for _, r := range s.Runs {
		if r.Out.Packets > 0 {
			return r.Digest
		}
	}
	return ""
}

// judge applies the output checks. Every timed run is one attempt, and so
// is a session that failed outright. The traced run and the equivalence
// check simulate session 0's seed.
func judge(ss []sessionResult, tr *tracedResult, eq *equivResult) verdict {
	var v verdict
	for i, s := range ss {
		ref := sessionRef(s)
		for j, r := range s.Runs {
			if r.Out.Packets == 0 {
				v.check(false, "session %d run %d delivered no packets", i, j)
			} else {
				v.check(r.Digest == ref, "session %d run %d digest %s differs from %s", i, j, r.Digest, ref)
			}
		}
		if s.Err != "" {
			v.check(false, "session %d: %s", i, s.Err)
		}
	}
	if tr != nil {
		ref := sessionRef(ss[0])
		switch {
		case tr.Err != "":
			v.check(false, "traced run: %s", tr.Err)
		case tr.Digest != ref:
			v.check(false, "traced digest %s differs from untraced %s", tr.Digest, ref)
		case tr.InFlight != 0:
			v.check(false, "traced run left %d packets in flight after its drain", tr.InFlight)
		default:
			u := tr.Metrics["books.unaccounted_frac"]
			v.check(u <= booksEps && u >= -booksEps, "traced books unbalanced: %.4f of stepping time unaccounted (eps %.2f)", u, booksEps)
		}
	}
	if eq != nil {
		switch {
		case eq.Err != "":
			v.check(false, "engine equivalence: %s", eq.Err)
		case eq.Packets == 0:
			v.check(false, "engine equivalence prefix delivered no packets")
		default:
			v.check(eq.Serial == eq.Sharded, "sharded digest %s differs from serial %s", eq.Sharded, eq.Serial)
		}
	}
	return v
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// bench runs one workload invocation and prints its result to stdout.
func bench(o options, run runFunc, stdout io.Writer) error {
	seeds := make([]uint64, sessions)
	for i := range seeds {
		seeds[i] = sessionSeed(o.seed, i)
	}
	env := envStamp{
		Workload: o.w.name, Seed: o.seed, SessionSeeds: seeds, Trace: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: o.commit, Source: o.source,
		TimedEngine: "serial", TracedWorkers: o.w.tracedWorkers,
		Oversubscribed: o.trace && o.w.tracedWorkers > runtime.GOMAXPROCS(0),
	}
	stamp, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "env %s\n", stamp)
	if env.Oversubscribed {
		fmt.Fprintf(stdout, "note: the traced run's %d shards exceed GOMAXPROCS %d; its network figures are oversubscribed, not parallel ones\n",
			o.w.tracedWorkers, env.GOMAXPROCS)
	}

	ss := make([]sessionResult, sessions)
	so := o
	so.seconds = o.seconds / sessions
	for i := range ss {
		s := &ss[i]
		so.seed = seeds[i]
		if err := run("session", so, s); err != nil {
			s.Err = err.Error()
		}
		fmt.Fprintf(stdout, "session %d seed=%d setup_s=%.4f peak_rss_bytes=%d %s\n", i, so.seed, s.SetupS, s.PeakRSS, s.Err)
		for _, r := range s.Runs {
			fmt.Fprintf(stdout, "  run step_s=%.4f one_s=%.4f digest=%s\n", r.StepS, r.OneS, r.Digest)
		}
	}
	o.seed = seeds[0]
	var tr *tracedResult
	if o.trace {
		tr = &tracedResult{}
		if err := run("trace", o, tr); err != nil {
			tr.Err = err.Error()
		}
		fmt.Fprintf(stdout, "traced workers=%d step_s=%.4f untraced_step_s=%.4f digest=%s in_flight_after_drain=%d spans=%s %s\n",
			o.w.tracedWorkers, tr.StepS, tr.UntracedStepS, tr.Digest, tr.InFlight, tr.Spans, tr.Err)
	}
	var eq *equivResult
	if o.w.equivCycles > 0 {
		eq = &equivResult{}
		if err := run("equiv", o, eq); err != nil {
			eq.Err = err.Error()
		}
		fmt.Fprintf(stdout, "engine equivalence over %d cycles: packets=%d serial=%s sharded=%s %s\n",
			o.w.equivCycles, eq.Packets, eq.Serial, eq.Sharded, eq.Err)
	}

	v := judge(ss, tr, eq)
	for _, reason := range v.reasons {
		fmt.Fprintf(stdout, "FAILED %s\n", reason)
	}
	var rcps, setup, rss, apl, p99 []float64
	for _, s := range ss {
		ref := sessionRef(s)
		if s.Err != "" || ref == "" {
			continue
		}
		setup = append(setup, s.SetupS)
		rss = append(rss, float64(s.PeakRSS)/float64(o.w.routers()))
		var out simOut
		for _, r := range s.Runs {
			if r.Digest == ref {
				out = r.Out
				rcps = append(rcps, float64(o.w.routers())*float64(o.w.warmup+o.w.measure)/r.StepS)
			}
		}
		apl = append(apl, out.APL)
		p99 = append(p99, out.P99)
	}
	if len(rcps) == 0 {
		return fmt.Errorf("no session of %s completed a run", o.w.name)
	}
	e2e := map[string]float64{
		"router_cycles_per_s":       median(rcps),
		"setup_s":                   median(setup),
		"peak_rss_bytes_per_router": median(rss),
		"sim_apl_cycles":            mean(apl),
		"sim_p99_cycles":            mean(p99),
	}
	res := result{Correct: len(v.reasons) == 0, Attempted: v.attempted, Failed: len(v.reasons), Metrics: map[string]metricOutcome{}}
	for _, d := range endToEnd {
		fmt.Fprintf(stdout, "metric %s %v %s\n", d.name, e2e[d.name], d.unit)
		if !o.trace {
			res.Metrics[d.name] = metricOutcome{e2e[d.name], d.unit}
		}
	}
	fmt.Fprintf(stdout, "metric failed_run_frac %v ratio\n", float64(res.Failed)/float64(res.Attempted))
	if o.trace {
		for _, d := range perLayer {
			fmt.Fprintf(stdout, "metric %s %v %s\n", d.name, tr.Metrics[d.name], d.unit)
			res.Metrics[d.name] = metricOutcome{tr.Metrics[d.name], d.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: quad8-hot or parsec-adv")
		seed    = flag.Uint64("seed", 1, "workload seed (1 is the development seed, 9001 the held-out one)")
		seconds = flag.Float64("seconds", 55, "host seconds of timed runs, split over the set-up sessions")
		trace   = flag.Int("trace", 0, "1 adds the traced run and prints the per-layer metrics")
		commit  = flag.String("commit", "unknown", "commit the binary was built from")
		source  = flag.String("source", "unknown", "SHA-256 of the Go sources the binary was built from")
		out     = flag.String("out", ".bench_build/perfbench", "directory for span files")
		child   = flag.String("child", "", "internal: run one role (session, trace or equiv) and print its JSON")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && (*trace != 0 && *trace != 1 || *seconds <= 0) {
		err = fmt.Errorf("need -trace 0 or 1 and a positive -seconds")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	o := options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, commit: *commit, source: *source, out: *out}
	if *child != "" {
		res, err := runRole(*child, o)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	// A signal or the deadline kills the running child; exec waits for it.
	sig, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(sig, deadline)
	err = bench(o, subprocess(ctx), os.Stdout)
	cancel()
	if err == nil && sig.Err() != nil {
		err = fmt.Errorf("interrupted")
	}
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
