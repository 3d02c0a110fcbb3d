package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"rair"
	"rair/internal/harness"
	"rair/internal/region"
	"rair/internal/stats"
	"rair/internal/topology"
	"rair/internal/traffic"
)

// workload is one scenario the benchmark runs. Everything but the seed is
// fixed here, so two commits measured with the same seed simulate exactly
// the same cycles.
type workload struct {
	name string
	// mesh is the side of the square mesh; the layout is always quadrants.
	mesh int
	// parsec attaches the PARSEC proxies over memsys plus the Fig. 17
	// adversarial flood instead of four synthetic apps at load.
	parsec bool
	load   float64
	// tracedWorkers is the traced run's shard count: <= 1 is the serial
	// engine. The timed sessions always run the serial engine.
	tracedWorkers int
	// warmup and measure are the cycles of one repetition. Drain is zero
	// so the stepped cycle count is known exactly from outside.
	warmup, measure int64
	// equivCycles, when > 0, is the prefix the serial engine and a
	// equivWorkers-shard engine must agree on once per invocation.
	equivCycles int64
	// drain bounds the traced run's drain phase, after which no packet may
	// be left in flight.
	drain int64
}

const (
	globalFrac = 0.2
	// equivWorkers is the shard count the engine-equivalence check runs
	// against the serial engine, and quad8-hot's traced run uses.
	equivWorkers = 2
	// calibSamples and calibSeed mirror rair.AddApp's SaturationRate call;
	// the traced run's digest check catches any drift.
	calibSamples = 1000
	calibSeed    = 0xfeed
)

// workloads are the benchmark's scenarios, in BENCHMARK.json's order;
// README.md says why each exists.
var workloads = []workload{
	{name: "quad8-hot", mesh: 8, load: 0.9, warmup: 2000, measure: 8000, equivCycles: 2000, tracedWorkers: equivWorkers, drain: 20000},
	{name: "parsec-adv", mesh: 8, parsec: true, warmup: 2000, measure: 20000, drain: 20000},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w workload) routers() int { return w.mesh * w.mesh }

func (w workload) phases() rair.Phases {
	return rair.Phases{Warmup: w.warmup, Measure: w.measure}
}

// sessionSeed is the simulation seed session i runs for benchmark seed
// seed. Each session simulates its own seed, so the simulated metrics
// average over sessions seeds; seeds of different benchmark seeds never
// overlap, and none is 0, which rair.New would remap.
func sessionSeed(seed uint64, i int) uint64 {
	return seed*sessions + uint64(i) + 1
}

// newSim assembles the workload through the public API. rates, when
// non-nil, replaces each app's LoadFrac by an already calibrated
// PacketRate; the engine-equivalence check uses it to calibrate once.
func (w workload) newSim(seed uint64, workers int, rates []float64) (*rair.Simulation, error) {
	s, err := rair.New(rair.Config{
		MeshW: w.mesh, MeshH: w.mesh,
		Layout:  rair.LayoutQuadrants,
		Scheme:  "RA_RAIR",
		Seed:    seed,
		Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	if w.parsec {
		if err := s.AttachPARSEC(); err != nil {
			return nil, err
		}
		return s, s.AddAdversary(harness.AdversaryFlitRate)
	}
	for app := 0; app < 4; app++ {
		spec := rair.AppSpec{App: app, LoadFrac: w.load, GlobalFrac: globalFrac}
		if rates != nil {
			spec.LoadFrac, spec.PacketRate = 0, rates[app]
		}
		if err := s.AddApp(spec); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// appTraffic builds app's traffic description exactly as rair.AddApp does
// for {LoadFrac, GlobalFrac: globalFrac}, leaving PacketRate unset.
func appTraffic(regs *region.Map, app int) traffic.AppTraffic {
	// A variable, not the constant: AddApp subtracts in float64, and the
	// exact constant 1-0.2 rounds differently.
	gf := float64(globalFrac)
	nodes := regs.Nodes(app)
	intra := traffic.IntraUR(nodes)
	intra.Weight = 1 - gf
	inter := traffic.InterPattern(regs, traffic.PatternByName("UR", regs.Mesh()))
	inter.Weight = gf
	return traffic.AppTraffic{App: app, Nodes: nodes, Components: []traffic.Component{intra, inter}}
}

// calibrate returns the synthetic apps' traffic with rair.AddApp's
// calibrated PacketRate filled in.
func (w workload) calibrate(regs *region.Map) []traffic.AppTraffic {
	apps := make([]traffic.AppTraffic, 4)
	for i := range apps {
		apps[i] = appTraffic(regs, i)
		apps[i].PacketRate = w.load * harness.SatEfficiency *
			traffic.SaturationRate(regs.Mesh(), apps[i], calibSamples, calibSeed)
	}
	return apps
}

func (w workload) regions() *region.Map {
	return region.Quadrants(topology.NewMesh(w.mesh, w.mesh))
}

// simOut is the simulated outcome of one run: the fields its digest covers.
type simOut struct {
	Packets    int64           `json:"packets"`
	APL        float64         `json:"apl"`
	P95        float64         `json:"p95"`
	P99        float64         `json:"p99"`
	Throughput float64         `json:"throughput"`
	AvgHops    float64         `json:"avg_hops"`
	PerApp     map[int]float64 `json:"per_app"`
}

func outOfReport(r *rair.Report) simOut {
	return simOut{r.Packets, r.APL, r.P95, r.P99, r.Throughput, r.AvgHops, r.PerApp}
}

// outOfCollector mirrors the Report fields rair.Simulation.Run fills from
// its collector.
func outOfCollector(col *stats.Collector, nodes int) simOut {
	o := simOut{
		Packets:    col.Packets(),
		APL:        col.APL(),
		P95:        col.Total().Percentile(95),
		P99:        col.Total().Percentile(99),
		Throughput: col.FlitThroughput(nodes),
		AvgHops:    col.Hops().Mean(),
		PerApp:     map[int]float64{},
	}
	for _, app := range col.Apps() {
		o.PerApp[app] = col.App(app).Mean()
	}
	return o
}

// digest hashes every field of o with all its bits, so any change to a
// simulated statistic changes it.
func (o simOut) digest() string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	s := fmt.Sprintf("packets=%d apl=%s p95=%s p99=%s thr=%s hops=%s",
		o.Packets, f(o.APL), f(o.P95), f(o.P99), f(o.Throughput), f(o.AvgHops))
	apps := make([]int, 0, len(o.PerApp))
	for app := range o.PerApp {
		apps = append(apps, app)
	}
	sort.Ints(apps)
	for _, app := range apps {
		s += fmt.Sprintf(" app%d=%s", app, f(o.PerApp[app]))
	}
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}
