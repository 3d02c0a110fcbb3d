package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
	"unsafe"

	"rair/internal/harness"
	"rair/internal/memsys"
	"rair/internal/msg"
	"rair/internal/network"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/sim"
	"rair/internal/stats"
	"rair/internal/traffic"
	proxy "rair/internal/workload"
)

// booksEps is the largest share of traced stepping time the layer self
// times may leave unaccounted before the traced run counts as failed.
const booksEps = 0.02

// layer names a call boundary the traced run records spans at.
type layer uint8

const (
	simStep layer = iota
	trafficTick
	memsysTick
	networkTick
	memsysEject
	statsEject
	trafficCalibrate
	networkNew
	memsysPrewarm
	numLayers
)

var layerNames = [numLayers]string{
	"sim.step", "traffic.tick", "memsys.tick", "network.tick", "memsys.eject",
	"stats.eject", "traffic.calibrate", "network.new", "memsys.prewarm",
}

// steppingLayers are the layers whose self times make up a cycle.
var steppingLayers = []layer{simStep, trafficTick, memsysTick, networkTick, memsysEject, statsEject}

// span is one call into a layer; parent indexes the span it ran inside.
type span struct {
	start, end int64 // ns since the tracer's origin
	parent     int32 // -1 for a root span
	layer      layer
}

// tracer keeps every span in memory; all calls come from the goroutine
// driving the engine (ejection callbacks replay there too).
type tracer struct {
	origin time.Time
	spans  []span
	open   []int32
	on     bool
	// grownBytes counts the span storage the tracer allocated, so the
	// runtime allocation figure can leave it out.
	grownBytes int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), on: true, open: make([]int32, 0, 8)}
}

func (t *tracer) begin(l layer) {
	if !t.on {
		return
	}
	if len(t.spans) == cap(t.spans) {
		n := 2 * cap(t.spans)
		if n == 0 {
			n = 1 << 16
		}
		grown := make([]span, len(t.spans), n)
		copy(grown, t.spans)
		t.spans = grown
		t.grownBytes += int64(n) * int64(unsafe.Sizeof(span{}))
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{start: int64(time.Since(t.origin)), parent: parent, layer: l})
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].end = int64(time.Since(t.origin))
}

func (t *tracer) tick(l layer, f func(int64)) sim.TickFunc {
	return func(now int64) {
		t.begin(l)
		f(now)
		t.end()
	}
}

// layerTimes is the aggregate of one layer's spans.
type layerTimes struct {
	total, self float64 // ns
	calls       int64
}

func (t *tracer) aggregate() [numLayers]layerTimes {
	var agg [numLayers]layerTimes
	for _, s := range t.spans {
		d := float64(s.end - s.start)
		agg[s.layer].total += d
		agg[s.layer].self += d
		agg[s.layer].calls++
		if s.parent >= 0 {
			agg[t.spans[s.parent].layer].self -= d
		}
	}
	return agg
}

// write stores the spans as tab-separated values.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\tparent\tlayer\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\n", i, s.parent, layerNames[s.layer], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gatedStream lets the traced run stop new core accesses for its drain
// phase. Until then it forwards every call, so the stream is unchanged.
type gatedStream struct {
	memsys.AddressStream
	stopped *bool
}

func (g gatedStream) Next(rng *sim.RNG) (memsys.Access, bool) {
	if *g.stopped {
		return memsys.Access{}, false
	}
	return g.AddressStream.Next(rng)
}

// heapPeak samples the heap's object bytes without stopping the world.
type heapPeak struct {
	sample []metrics.Sample
	peak   uint64
}

func newHeapPeak() *heapPeak {
	return &heapPeak{sample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapPeak) observe() {
	metrics.Read(h.sample)
	if v := h.sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > h.peak {
		h.peak = v.Uint64()
	}
}

// tracedResult is the traced run's outcome.
type tracedResult struct {
	Out    simOut  `json:"out"`
	Digest string  `json:"digest"`
	StepS  float64 `json:"step_s"`
	// UntracedStepS is the same assembly stepped again with tracing off,
	// trace.overhead_frac's denominator.
	UntracedStepS float64            `json:"untraced_step_s"`
	InFlight      int64              `json:"in_flight_after_drain"`
	Metrics       map[string]float64 `json:"metrics"`
	Spans         string             `json:"spans"`
	Err           string             `json:"err,omitempty"`
}

// assembly is w's simulation built from the layers' own constructors,
// mirroring rair.Simulation.Run.
type assembly struct {
	net   *network.Network
	eng   *sim.Engine
	col   *stats.Collector
	sys   *memsys.System
	cores int
	// stopped gates the memsys cores' streams off for a drain phase.
	stopped bool
}

// assemble builds w for seed on w.tracedWorkers shards with the engine's
// self-profile on, recording a span around every call into a layer on tr.
// apps are the synthetic apps' calibrated traffic (nil for parsec).
func (w workload) assemble(seed uint64, regs *region.Map, apps []traffic.AppTraffic, tr *tracer) *assembly {
	a := &assembly{}
	mesh := regs.Mesh()
	scheme := harness.RAIR("RA_RAIR")
	rcfg := router.DefaultConfig(1)
	if w.parsec {
		rcfg = router.DefaultConfig(int(msg.NumClasses))
	}
	end := w.warmup + w.measure
	a.col = stats.NewCollector(w.warmup, end)
	adversaryApp := regs.NumApps() + 64
	var pool *msg.Pool
	var recycle func(*msg.Packet)
	if !w.parsec {
		pool = msg.NewPool()
		recycle = pool.Put
	}
	tr.begin(networkNew)
	a.net = network.New(network.Params{
		Router:  rcfg,
		Regions: regs,
		Alg:     scheme.Alg(mesh),
		Sel:     scheme.Sel(regs, rcfg),
		Policy:  scheme.Policy,
		OnEject: func(p *msg.Packet, now int64) {
			if a.sys != nil {
				tr.begin(memsysEject)
				a.sys.HandleEject(p, now)
				tr.end()
			}
			if p.App != adversaryApp {
				tr.begin(statsEject)
				a.col.OnEject(p, now)
				tr.end()
			}
		},
		Recycle: recycle,
		Workers: w.tracedWorkers,
		Profile: true,
	})
	tr.end()
	net := a.net
	inject := func(node int, p *msg.Packet, now int64) { net.NI(node).Inject(p, now) }

	a.eng = sim.NewEngine()
	if w.parsec {
		tr.begin(memsysPrewarm)
		profiles := proxy.Profiles()
		streams := make([]memsys.AddressStream, mesh.N())
		for node := range streams {
			if app := regs.AppAt(node); app >= 0 {
				streams[node] = gatedStream{proxy.NewStream(profiles[app%len(profiles)], app, node), &a.stopped}
				a.cores++
			}
		}
		a.sys = memsys.New(memsys.DefaultSystemConfig(), regs, streams, seed, inject)
		a.sys.Prewarm(harness.PrewarmAccesses)
		tr.end()
		a.eng.Register(tr.tick(memsysTick, a.sys.Tick))
	}
	if len(apps) > 0 {
		gen := traffic.NewGenerator(apps, seed, inject)
		gen.Until = end
		gen.Pool = pool
		a.eng.Register(tr.tick(trafficTick, gen.Tick))
	}
	if w.parsec {
		// A variable, so the division rounds as rair's runtime one does.
		rate := float64(harness.AdversaryFlitRate)
		adv := traffic.NewGenerator(
			[]traffic.AppTraffic{traffic.Adversary(mesh, adversaryApp, rate/3)},
			seed^0xadadad, inject)
		adv.Until = end
		adv.Pool = pool
		a.eng.Register(tr.tick(trafficTick, adv.Tick))
	}
	a.eng.Register(tr.tick(networkTick, a.net.Tick))
	return a
}

// runTraced assembles w, records a span around every call into a layer
// and derives the per-layer metrics. After the measured cycles it drains
// the network, which must then hold no packet. It then assembles w again
// and steps it with tracing off, on the same engine, so trace.overhead_frac
// compares like with like.
func runTraced(w workload, seed uint64, outDir string) tracedResult {
	var r tracedResult
	goroutines := runtime.NumGoroutine()
	tr := newTracer()
	heap := newHeapPeak()
	regs := w.regions()
	var apps []traffic.AppTraffic
	if !w.parsec {
		tr.begin(trafficCalibrate)
		apps = w.calibrate(regs)
		tr.end()
	}
	// Set-up spans come from a first assembly on a fresh heap, as a user's
	// set-up runs. Stepping is traced on a second one, built once the first
	// is freed: the first network stepped in a process faults its pages in
	// (about 1.5x slower on a 64x64 mesh), and the timed runs step warm
	// networks.
	w.assemble(seed, regs, apps, tr).net.Close()
	settle(goroutines)
	tr.on = false
	a := w.assemble(seed, regs, apps, tr)
	tr.on = true

	end := w.warmup + w.measure
	heap.observe()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	grown0 := tr.grownBytes
	t0 := time.Now()
	for c := int64(0); c < end; c++ {
		tr.begin(simStep)
		a.eng.Step()
		tr.end()
		if c%256 == 0 {
			heap.observe()
		}
	}
	stepNS := float64(time.Since(t0))
	heap.observe()
	runtime.ReadMemStats(&m1)
	r.StepS = stepNS / 1e9
	r.Out = outOfCollector(a.col, regs.Mesh().N())
	r.Digest = r.Out.digest()
	prof := a.net.EngineProfile()
	var ms memsys.Stats
	if a.sys != nil {
		ms = a.sys.Snapshot()
	}

	tr.on = false
	a.stopped = true
	a.eng.RunUntil(a.net.Drained, w.drain)
	r.InFlight = a.net.InFlight()
	a.net.Close()

	agg := tr.aggregate()
	cyc := float64(end)
	var selfSum float64
	for _, l := range steppingLayers {
		selfSum += agg[l].self
	}
	m := map[string]float64{
		"traffic.calibrate_s":            agg[trafficCalibrate].total / 1e9,
		"traffic.tick_ns_per_cycle":      agg[trafficTick].total / cyc,
		"network.new_s":                  agg[networkNew].total / 1e9,
		"network.tick_ns_per_cycle":      agg[networkTick].total / cyc,
		"memsys.prewarm_s":               agg[memsysPrewarm].total / 1e9,
		"memsys.tick_ns_per_cycle":       agg[memsysTick].total / cyc,
		"memsys.eject_ns_per_packet":     perCall(agg[memsysEject]),
		"memsys.l1_hit_rate":             ratio(float64(ms.L1Hits), float64(ms.L1Hits+ms.L1Misses)),
		"memsys.mshr_stall_frac":         ratio(float64(ms.StalledCoreCycles), float64(a.cores)*cyc),
		"stats.eject_ns_per_packet":      perCall(agg[statsEject]),
		"stats.samples":                  float64(a.col.Total().Count()),
		"sim.step_overhead_ns_per_cycle": agg[simStep].self / cyc,
		"runtime.alloc_bytes_per_cycle":  float64(int64(m1.TotalAlloc-m0.TotalAlloc)-(tr.grownBytes-grown0)) / cyc,
		"runtime.gc_cycles":              float64(m1.NumGC - m0.NumGC),
		"runtime.gc_pause_ms":            float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		"runtime.peak_heap_bytes":        float64(heap.peak),
		"books.unaccounted_frac":         1 - selfSum/stepNS,
	}
	engineMetrics(m, prof, agg[networkTick].total, cyc, w.routers())

	r.Spans = filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.tsv", w.name, seed))
	if err := tr.write(r.Spans); err != nil {
		r.Err = err.Error()
	}

	// Free the traced network and spans first, so the untraced pass runs
	// on the same heap state the traced one did.
	tr.spans = nil
	settle(goroutines)
	off := &tracer{}
	b := w.assemble(seed, regs, apps, off)
	runtime.GC()
	t1 := time.Now()
	for c := int64(0); c < end; c++ {
		b.eng.Step()
	}
	r.UntracedStepS = time.Since(t1).Seconds()
	b.net.Close()
	m["trace.overhead_frac"] = r.StepS/r.UntracedStepS - 1
	r.Metrics = m
	return r
}

// engineMetrics derives the network and router metrics from the engine's
// self-profile. Shard 0 runs on the coordinating goroutine, so the rest of
// Network.Tick beyond its phases and the barrier waits is serial work.
func engineMetrics(m map[string]float64, prof *network.EngineProfile, tickNS, cyc float64, routers int) {
	var links, compute, cong, barrier, shard0, maxCompute float64
	var routerTicks, fastTicks int64
	for i, sh := range prof.Shards {
		for p, ns := range sh.PhaseNS {
			switch network.PhaseNames[p] {
			case "links":
				links += float64(ns)
			case "compute":
				compute += float64(ns)
				if float64(ns) > maxCompute {
					maxCompute = float64(ns)
				}
			default:
				cong += float64(ns)
			}
			if i == 0 {
				shard0 += float64(ns)
			}
		}
		routerTicks += sh.RouterTicks
		fastTicks += sh.FastPathTicks
	}
	for _, b := range prof.Barrier {
		barrier += float64(b.WaitNS)
	}
	m["network.links_ns_per_cycle"] = links / cyc
	m["network.compute_ns_per_cycle"] = compute / cyc
	m["network.cong_ns_per_cycle"] = cong / cyc
	m["network.barrier_wait_ns_per_cycle"] = barrier / cyc
	m["network.shard_imbalance"] = ratio(maxCompute, compute/float64(len(prof.Shards)))
	m["network.coord_serial_ns_per_cycle"] = (tickNS - shard0 - barrier) / cyc
	m["router.busy_frac"] = ratio(float64(routerTicks), float64(routers)*cyc)
	m["router.fastpath_frac"] = ratio(float64(fastTicks), float64(routerTicks))
}

func perCall(t layerTimes) float64 { return ratio(t.total, float64(t.calls)) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never calls).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
