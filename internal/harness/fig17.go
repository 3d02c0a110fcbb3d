package harness

import (
	"fmt"

	"rair/internal/memsys"
	"rair/internal/msg"
	"rair/internal/policy"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/stats"
	"rair/internal/workload"
)

// AdversaryApp is the application number of the adversarial injector; it is
// assigned to no region, so its traffic is foreign everywhere.
const AdversaryApp = 4

// AdversaryFlitRate is the malicious load of Section V.G, calibrated to
// reproduce the paper's operating point rather than its absolute number.
// The paper injects 0.4 flits/cycle/node of chip-wide uniform traffic and
// still measures finite (≈2x) slowdowns, i.e. the flood sits right at the
// baseline's capacity knee. Our router's achieved saturation is lower
// (≈75% of the ideal channel bound) and the warmed PARSEC proxies leave a
// different headroom, so the equivalent knee sits at 0.16 flits/cycle/node:
// the round-robin baseline is pushed past its knee while the protective
// schemes still keep the applications close to their undisturbed latency —
// exactly the regime Figure 17 reports. See EXPERIMENTS.md for the
// calibration sweep.
const AdversaryFlitRate = 0.16

// PARSECScenario builds the four-application setup of Figure 16: the PARSEC
// proxies on the quadrants of the 8×8 mesh (blackscholes, swaptions,
// fluidanimate, raytrace in quadrant order), driven through the Table 1
// memory system.
func PARSECScenario() (*region.Map, []memsys.AddressStream) {
	regs := region.Quadrants(Mesh8())
	profiles := workload.Profiles()
	streams := make([]memsys.AddressStream, regs.Mesh().N())
	for node := range streams {
		app := regs.AppAt(node)
		streams[node] = workload.NewStream(profiles[app], app, node)
	}
	return regs, streams
}

// PARSECRanks is the oracle STC ranking of the PARSEC proxies by network
// intensity (blackscholes least intensive). The adversary is unranked and
// therefore bottom-priority, matching the paper's optimally-ranked RO_Rank.
func PARSECRanks() []int { return []int{0, 1, 2, 3} }

// Fig17Result holds the per-application APL slowdown caused by adversarial
// traffic under each scheme.
type Fig17Result struct {
	Title   string
	Schemes []string
	Apps    []string
	// Base/Adv APL [scheme][app]; Slowdown = Adv/Base.
	Base [][]float64
	Adv  [][]float64
}

// Slowdown returns the APL slowdown of app ai under scheme si.
func (r *Fig17Result) Slowdown(si, ai int) float64 {
	return stats.Slowdown(r.Base[si][ai], r.Adv[si][ai])
}

// AvgSlowdown returns the mean per-app slowdown of scheme si.
func (r *Fig17Result) AvgSlowdown(si int) float64 {
	sum := 0.0
	for ai := range r.Apps {
		sum += r.Slowdown(si, ai)
	}
	return sum / float64(len(r.Apps))
}

// Table renders the slowdown matrix.
func (r *Fig17Result) Table() *Table {
	title := r.Title
	if title == "" {
		title = "APL slowdown under adversarial traffic (PARSEC proxies)"
	}
	t := &Table{
		Title:  title,
		Header: append(append([]string{"scheme"}, r.Apps...), "average"),
	}
	for si, s := range r.Schemes {
		row := []string{s}
		for ai := range r.Apps {
			row = append(row, f2(r.Slowdown(si, ai)))
		}
		row = append(row, f2(r.AvgSlowdown(si)))
		t.AddRow(row...)
	}
	return t
}

// MemsysRouterConfig is the two-class router configuration for the
// application experiments (requests and responses on disjoint VC sets).
func MemsysRouterConfig() router.Config { return router.DefaultConfig(int(msg.NumClasses)) }

// parsecConfig is one PARSEC-proxy simulation point under a scheme,
// optionally with the adversarial injector. Its collector covers the
// applications' packets only: adversarial packets are excluded, as the
// paper reports the slowdown of the normal applications.
func parsecConfig(s Scheme, withAdversary bool, dur Durations, seed uint64) RunConfig {
	regs, streams := PARSECScenario()
	rc := RunConfig{Regions: regs, Router: MemsysRouterConfig(), Streams: streams,
		Scheme: s, Dur: dur, Seed: seed, AdversaryApp: AdversaryApp}
	if withAdversary {
		rc.Adversary = AdversaryFlitRate
	}
	return rc
}

// fig17Schemes mirrors the Figures 14-17 comparison with PARSEC ranks for
// RO_Rank.
func fig17Schemes() []Scheme {
	return []Scheme{RORR(), RORRDBAR("RA_DBAR"), RORank(PARSECRanks()), RAIR("RA_RAIR")}
}

// Fig17Adversarial reproduces Figure 17: APL slowdown of the four PARSEC
// proxies when chip-wide adversarial traffic is added, per scheme.
func Fig17Adversarial(dur Durations, seed uint64) *Fig17Result {
	return adversarialRun("Figure 17: APL slowdown under adversarial traffic (PARSEC proxies)",
		fig17Schemes(), dur, seed)
}

// AblateAgeBased contrasts the oldest-first baseline (Abts & Weisser, the
// other region-oblivious technique of Section III.A) with RO_RR and RAIR
// under the adversarial flood. Aging both drains the deprioritized flood
// (avoiding buffer hogging) and imposes a global FIFO-like order — where
// the balance lands is an empirical question this ablation answers.
func AblateAgeBased(dur Durations, seed uint64) *Fig17Result {
	schemes := []Scheme{
		RORR(),
		{Name: "RO_Age", Policy: policy.NewAge},
		RAIR("RA_RAIR"),
	}
	return adversarialRun("Oldest-first arbitration under the adversarial flood", schemes, dur, seed)
}

// AblateBatching sweeps RO_Rank's batching interval under the adversarial
// flood: fine batches drain the deprioritized flood steadily, coarse
// batches let it hog VC buffers — the balance Section III.A alludes to.
func AblateBatching(intervals []int64, dur Durations, seed uint64) *Fig17Result {
	schemes := make([]Scheme, 0, len(intervals))
	for _, iv := range intervals {
		schemes = append(schemes, Scheme{
			Name:   fmt.Sprintf("RO_Rank_B%d", iv),
			Policy: policy.NewRankFactoryInterval(PARSECRanks(), iv),
		})
	}
	return adversarialRun("STC batching-interval ablation under the adversarial flood", schemes, dur, seed)
}

// adversarialRun runs every scheme on the PARSEC proxies without and with
// the adversarial flood.
func adversarialRun(title string, schemes []Scheme, dur Durations, seed uint64) *Fig17Result {
	var rcs []RunConfig
	for _, s := range schemes {
		rcs = append(rcs, parsecConfig(s, false, dur, seed), parsecConfig(s, true, dur, seed))
	}
	return slowdownResult(title, schemes, RunParallel(rcs))
}

// slowdownResult tabulates per-scheme PARSEC application latencies from
// (base, adversarial) collector pairs in scheme order.
func slowdownResult(title string, schemes []Scheme, cols []*stats.Collector) *Fig17Result {
	res := &Fig17Result{Title: title}
	for _, p := range workload.Profiles() {
		res.Apps = append(res.Apps, p.Name)
	}
	for si, s := range schemes {
		res.Schemes = append(res.Schemes, s.Name)
		base := make([]float64, len(res.Apps))
		adv := make([]float64, len(res.Apps))
		for ai := range res.Apps {
			base[ai] = cols[2*si].App(ai).Mean()
			adv[ai] = cols[2*si+1].App(ai).Mean()
		}
		res.Base = append(res.Base, base)
		res.Adv = append(res.Adv, adv)
	}
	return res
}

// String renders a short summary line used by logs.
func (r *Fig17Result) String() string {
	out := ""
	for si, s := range r.Schemes {
		out += fmt.Sprintf("%s=%.2f ", s, r.AvgSlowdown(si))
	}
	return out
}

// PrewarmAccesses is how many address-stream accesses each core runs
// through the cache hierarchy before timing starts (functional cache
// warmup, mirroring the paper's full-system methodology). Large enough to
// fill every proxy's working set several times over.
const PrewarmAccesses = 60000
