// Package harness configures and runs the paper's experiments: it builds
// scenarios (region layouts + per-application traffic at fractions of
// saturation), runs each (scheme × scenario) simulation on its own
// goroutine, and collects the per-figure tables reported in EXPERIMENTS.md.
package harness

import (
	"runtime"
	"sync"

	"rair/internal/collective"
	"rair/internal/faults"
	"rair/internal/invariant"
	"rair/internal/memsys"
	"rair/internal/msg"
	"rair/internal/network"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/routing"
	"rair/internal/sim"
	"rair/internal/stats"
	"rair/internal/telemetry"
	"rair/internal/topology"
	"rair/internal/trace"
	"rair/internal/traffic"
)

// Durations holds the simulation phases in cycles. The paper warms up for
// 10K cycles and measures over 100K; Quick returns a shorter setting for
// tests and smoke runs.
type Durations struct {
	Warmup  int64
	Measure int64
	// Drain bounds the post-measurement drain phase; measured packets
	// still in flight when it expires are simply not counted.
	Drain int64
}

// PaperDurations is the evaluation setting of Section V.A.
func PaperDurations() Durations { return Durations{Warmup: 10000, Measure: 100000, Drain: 20000} }

// QuickDurations is a reduced setting for tests and benchmarks; latency
// averages are noisier but ordering-stable.
func QuickDurations() Durations { return Durations{Warmup: 2000, Measure: 10000, Drain: 10000} }

// RunConfig is one simulation point.
type RunConfig struct {
	Regions *region.Map
	Router  router.Config
	Apps    []traffic.AppTraffic
	Scheme  Scheme
	Dur     Durations
	Seed    uint64
	// Workers selects the network's tick-engine shard count (<= 1 serial).
	// Results are identical either way; see network.Params.Workers.
	Workers int
	// Telemetry, if non-nil, instruments the network's routers and NIs;
	// see network.Params.Telemetry.
	Telemetry *telemetry.Collector
	// Faults, if non-nil and enabled, injects deterministic link/router
	// faults; see network.Params.Faults.
	Faults *faults.Config
	// Check, if non-nil, runs the runtime invariant checker at every tick
	// barrier; see network.Params.Check.
	Check *invariant.Config
	// Collective, if non-nil, co-runs a collective workload alongside the
	// Bernoulli apps: its packets are delivered back to the collective
	// source (driving the phase dependency barriers) instead of the
	// statistics collector, so Apps' latency figures measure the victim
	// applications only, the way PARSEC runs exclude the adversary.
	Collective *collective.Spec
	// CollectiveDone, if set, receives the collective's final progress
	// snapshot when the run (including drain) finishes.
	CollectiveDone func(collective.Progress)
	// Chiplets, if non-nil, builds the mesh as a two-level chiplet system
	// joined by the XBar crossbar; see network.Params.Chiplets. The grid
	// must span the Regions mesh.
	Chiplets *topology.Chiplets
	// XBar configures the inter-chiplet crossbar (zero value = defaults).
	XBar network.XBarConfig
	// Concentration puts that many cores behind every router (a
	// concentrated mesh): the router config gets that many NI injector
	// slots and injections rotate across them. Values <= 1 mean one core
	// per router. Scenario builders model the extra cores by duplicating
	// app Nodes entries, so per-router load scales with the factor.
	Concentration int
	// Streams, if non-nil, drives the Table 1 memory system with one
	// address stream per node (nil entries are idle cores); MemCfg, if
	// non-nil, replaces memsys.DefaultSystemConfig. The memory system
	// keeps packets across protocol round-trips, so such runs recycle no
	// packets.
	Streams []memsys.AddressStream
	MemCfg  *memsys.SystemConfig
	// Trace, if non-nil, replays a recorded trace alongside Apps; the
	// drain phase then also waits for its last event.
	Trace *trace.Trace
	// Adversary, if positive, adds a chip-wide uniform-random flood at
	// that many flits per node per cycle under app AdversaryApp, which
	// must be owned by no region. Its packets are excluded from the
	// statistics collector.
	Adversary    float64
	AdversaryApp int
	// Alg, if non-nil, replaces the scheme's routing algorithm.
	Alg routing.Algorithm
	// Profile enables engine self-profiling; see network.Params.Profile.
	Profile bool
	// Tap, if set, observes every injection before the network sees it.
	// It must not retain the packet.
	Tap func(node int, p *msg.Packet, now int64)
	// Tickers run first every cycle, ahead of the traffic sources.
	Tickers []sim.Tickable
}

// routerConfig is rc.Router with the concentration factor applied to the
// NI's injector-slot count.
func (rc RunConfig) routerConfig() router.Config {
	cfg := rc.Router
	if rc.Concentration > 1 {
		cfg.Injectors = rc.Concentration
	}
	return cfg
}

// Sim is one assembled simulation point. Build is the only place a
// simulation is wired: network, statistics collector, packet pool, memory
// system, traffic sources, ejection dispatch and tick order.
type Sim struct {
	// Net is the network; Col collects the measured packets' statistics.
	Net *network.Network
	Col *stats.Collector

	rc     RunConfig
	eng    *sim.Engine
	player *trace.Player      // nil without a trace
	src    *collective.Source // nil without a co-running collective
}

// Build assembles rc. Components tick in a fixed order every cycle:
// rc.Tickers, the memory system, the applications (synthetic, then trace),
// the adversary, the collective, and last the network. Call Close when
// done.
func Build(rc RunConfig) *Sim {
	s := &Sim{rc: rc, Col: stats.NewCollector(rc.Dur.Warmup, rc.Dur.Warmup+rc.Dur.Measure)}
	mesh := rc.Regions.Mesh()
	// The collector copies packet fields at ejection, so unless the memory
	// system holds on to packets every source can recycle them through a
	// freelist.
	var pool *msg.Pool
	var recycle func(*msg.Packet)
	if rc.Streams == nil {
		pool = msg.NewPool()
		recycle = pool.Put
	}
	// Ejections run on the ticking goroutine in node order at any worker
	// count, so the memory system's protocol and the collective's
	// dependency barriers stay deterministic. sys and s.src are bound
	// below; no ejection can occur before the first tick.
	var sys *memsys.System
	onEject := func(p *msg.Packet, now int64) {
		if s.src != nil && p.App == rc.Collective.App {
			s.src.Deliver(p, now)
			return
		}
		if sys != nil {
			sys.HandleEject(p, now)
		}
		if rc.Adversary > 0 && p.App == rc.AdversaryApp {
			return
		}
		s.Col.OnEject(p, now)
	}
	alg := rc.Alg
	if alg == nil {
		alg = rc.Scheme.Alg(mesh)
	}
	rcfg := rc.routerConfig()
	net := network.New(network.Params{
		Router:    rcfg,
		Regions:   rc.Regions,
		Alg:       alg,
		Sel:       rc.Scheme.Sel(rc.Regions, rcfg),
		Policy:    rc.Scheme.Policy,
		OnEject:   onEject,
		Recycle:   recycle,
		Workers:   rc.Workers,
		Telemetry: rc.Telemetry,
		Faults:    rc.Faults,
		Check:     rc.Check,
		Profile:   rc.Profile,
		Chiplets:  rc.Chiplets,
		XBar:      rc.XBar,
	})
	s.Net = net
	inject := func(node int, p *msg.Packet, now int64) { net.Inject(p, now) }
	if rc.Tap != nil {
		inject = func(node int, p *msg.Packet, now int64) {
			rc.Tap(node, p, now)
			net.Inject(p, now)
		}
	}

	s.eng = sim.NewEngine()
	for _, t := range rc.Tickers {
		s.eng.Register(t)
	}
	if rc.Streams != nil {
		mcfg := memsys.DefaultSystemConfig()
		if rc.MemCfg != nil {
			mcfg = *rc.MemCfg
		}
		sys = memsys.New(mcfg, rc.Regions, rc.Streams, rc.Seed, inject)
		sys.Prewarm(PrewarmAccesses)
		s.eng.Register(sys)
	}
	end := rc.Dur.Warmup + rc.Dur.Measure
	if len(rc.Apps) > 0 {
		gen := traffic.NewGenerator(rc.Apps, rc.Seed, inject)
		gen.Pool = pool
		gen.Until = end
		s.eng.Register(gen)
	}
	if rc.Trace != nil {
		s.player = trace.NewPlayer(rc.Trace, inject)
		s.player.Pool = pool
		s.eng.Register(s.player)
	}
	if rc.Adversary > 0 {
		app := traffic.Adversary(mesh, rc.AdversaryApp, rc.Adversary/3)
		adv := traffic.NewGenerator([]traffic.AppTraffic{app}, rc.Seed^0xadadad, inject)
		adv.Pool = pool
		adv.Until = end
		s.eng.Register(adv)
	}
	if rc.Collective != nil {
		s.src = collective.NewSource(*rc.Collective, rc.Seed, inject)
		s.src.Pool = pool
		s.src.Until = end
		s.eng.Register(s.src)
	}
	s.eng.Register(net)
	return s
}

// Run advances the warmup and measurement phases.
func (s *Sim) Run() { s.eng.Run(s.rc.Dur.Warmup + s.rc.Dur.Measure) }

// Drain keeps ticking for at most Dur.Drain cycles until the network is
// empty (and a replayed trace exhausted), then publishes a co-running
// collective's final progress. It reports whether the run drained;
// measured packets still in flight when it did not are simply not counted.
func (s *Sim) Drain() bool {
	ok := s.eng.RunUntil(s.drained, s.rc.Dur.Drain)
	if s.src != nil {
		prog := s.src.Progress()
		if s.rc.Telemetry != nil {
			s.rc.Telemetry.AttachCollective(prog.Telemetry(s.rc.Collective.App))
		}
		if s.rc.CollectiveDone != nil {
			s.rc.CollectiveDone(prog)
		}
	}
	return ok
}

func (s *Sim) drained() bool {
	return (s.player == nil || s.player.Done()) && s.Net.Drained()
}

// OnCycle registers a hook run on the ticking goroutine after every cycle.
func (s *Sim) OnCycle(f func(cycle int64)) { s.eng.OnCycle(f) }

// Now reports the number of completed cycles.
func (s *Sim) Now() int64 { return s.eng.Now() }

// Close releases the network's worker goroutines.
func (s *Sim) Close() { s.Net.Close() }

// Run executes one simulation point and returns its statistics collector.
func Run(rc RunConfig) *stats.Collector {
	s := Build(rc)
	defer s.Close()
	s.Run()
	s.Drain()
	return s.Col
}

// RunParallel executes every configuration concurrently and returns
// collectors in input order. Each simulation is fully deterministic in
// isolation, so results are identical to a serial run.
//
// The concurrency budget is GOMAXPROCS goroutines total: a run configured
// with tick-engine shards (Workers > 1) occupies that many slots, so runs
// with intra-simulation parallelism don't multiply into CPU oversubscription.
// The semaphore is acquired before the goroutine spawns, bounding live
// goroutines (not merely running ones) for arbitrarily long rcs slices.
// With a single slot the points simply run one after another.
func RunParallel(rcs []RunConfig) []*stats.Collector {
	out := make([]*stats.Collector, len(rcs))
	maxW := 1
	for _, rc := range rcs {
		if rc.Workers > maxW {
			maxW = rc.Workers
		}
	}
	slots := runtime.GOMAXPROCS(0) / maxW
	if slots <= 1 {
		for i, rc := range rcs {
			out[i] = Run(rc)
		}
		return out
	}
	sem := make(chan struct{}, slots)
	var wg sync.WaitGroup
	for i := range rcs {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = Run(rcs[i])
		}(i)
	}
	wg.Wait()
	return out
}
