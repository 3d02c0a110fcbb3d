package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"rair"
)

// sessionResult is one child process: a timed set-up through the public
// API, then timed runs of that simulation until its stepping budget is spent.
type sessionResult struct {
	SetupS  float64     `json:"setup_s"`
	Runs    []runResult `json:"runs"`
	PeakRSS int64       `json:"peak_rss_bytes"`
	Err     string      `json:"err,omitempty"`
}

// runResult is one timed, untraced Run.
type runResult struct {
	StepS float64 `json:"step_s"`
	// OneS is the warm one-cycle Run made just before this one.
	OneS   float64 `json:"one_s"`
	Out    simOut  `json:"out"`
	Digest string  `json:"digest"`
}

// one is the one-measured-cycle Run that times a Run's set-up.
var one = rair.Phases{Measure: 1}

// runSession times set-up as rair.New plus the attach calls plus a
// one-cycle Run, which builds the network (and prewarms memsys) exactly as
// every timed Run does again. Each timed Run follows a warm one-cycle Run
// made after the same settle; a run's stepping time is its Run minus the
// median of those one-cycle Runs, so the set-up every Run repeats cancels
// out. Pairs repeat while one more pair, as long as the last, still fits
// in budget seconds, and at least twice so the repeat-digest check has a
// pair; the loop counts whole pairs.
func runSession(w workload, seed uint64, budget float64) sessionResult {
	var r sessionResult
	t0 := time.Now()
	s, err := w.newSim(seed, 0, nil)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	goroutines := runtime.NumGoroutine()
	if _, err := s.Run(one); err != nil {
		r.Err = err.Error()
		return r
	}
	r.SetupS = time.Since(t0).Seconds()
	// The set-up Run's network got fresh pages and barely touched them, so
	// the next network to reuse them faults them in (0.5 s on a 64x64
	// mesh). One untimed Run takes that, and every timed Run below finds
	// the same resident heap.
	settle(goroutines)
	if _, err := s.Run(one); err != nil {
		r.Err = err.Error()
		return r
	}
	var runs, ones []float64
	for spent, last := 0.0, 0.0; len(r.Runs) < 2 || spent+last <= budget; {
		settle(goroutines)
		t1 := time.Now()
		_, err := s.Run(one)
		t2 := time.Now()
		if err != nil {
			r.Err = err.Error()
			break
		}
		settle(goroutines)
		t3 := time.Now()
		rep, err := s.Run(w.phases())
		t4 := time.Now()
		if err != nil {
			r.Err = err.Error()
			break
		}
		run := runResult{OneS: t2.Sub(t1).Seconds(), Out: outOfReport(rep)}
		run.Digest = run.Out.digest()
		r.Runs = append(r.Runs, run)
		ones = append(ones, run.OneS)
		runs = append(runs, t4.Sub(t3).Seconds())
		last = t4.Sub(t1).Seconds()
		spent += last
	}
	if len(ones) > 0 {
		setup := median(ones)
		for i := range r.Runs {
			r.Runs[i].StepS = runs[i] - setup
		}
	}
	r.PeakRSS = peakRSS()
	return r
}

// equivResult holds the serial and the sharded engine's digests over the
// same prefix of a workload, and the packets the serial prefix delivered:
// two empty collectors would hash equal without comparing anything.
type equivResult struct {
	Packets int64  `json:"packets"`
	Serial  string `json:"serial"`
	Sharded string `json:"sharded"`
	Err     string `json:"err,omitempty"`
}

// runEquiv runs a short prefix of w on the serial engine and on
// equivWorkers shards. Both use one calibration, passed in as PacketRate.
func runEquiv(w workload, seed uint64) equivResult {
	var r equivResult
	var rates []float64
	if !w.parsec {
		for _, app := range w.calibrate(w.regions()) {
			rates = append(rates, app.PacketRate)
		}
	}
	ph := rair.Phases{Warmup: w.equivCycles / 4, Measure: w.equivCycles - w.equivCycles/4}
	goroutines := runtime.NumGoroutine()
	for _, c := range []struct {
		workers int
		digest  *string
	}{{0, &r.Serial}, {equivWorkers, &r.Sharded}} {
		s, err := w.newSim(seed, c.workers, rates)
		if err != nil {
			r.Err = err.Error()
			return r
		}
		rep, err := s.Run(ph)
		if err != nil {
			r.Err = err.Error()
			return r
		}
		*c.digest = outOfReport(rep).digest()
		if c.workers == 0 {
			r.Packets = rep.Packets
		}
		settle(goroutines)
	}
	return r
}

// settle collects the previous network now, not while the next run steps,
// so two networks are never resident at once. Network.Close signals the
// sharded engine's workers without waiting for them, and a worker that has
// not yet exited keeps its network reachable, so settle first waits (up to
// a second) for the goroutine count to fall back to n.
func settle(n int) {
	for i := 0; i < 1000 && runtime.NumGoroutine() > n; i++ {
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
}

// peakRSS is this process's peak resident set size in bytes (Linux
// reports ru_maxrss in KiB).
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024
}

// runRole runs one child role in this process.
func runRole(role string, o options) (any, error) {
	switch role {
	case "session":
		return runSession(o.w, o.seed, o.seconds), nil
	case "trace":
		return runTraced(o.w, o.seed, o.out), nil
	case "equiv":
		return runEquiv(o.w, o.seed), nil
	}
	return nil, fmt.Errorf("unknown child role %q", role)
}

// runFunc runs one child role and decodes its JSON result into v.
type runFunc func(role string, o options, v any) error

// subprocess runs every role in a fresh copy of this binary, so one
// session's heap, garbage and peak RSS never carry into the next.
func subprocess(ctx context.Context) runFunc {
	return func(role string, o options, v any) error {
		self, err := os.Executable()
		if err != nil {
			return err
		}
		cmd := exec.CommandContext(ctx, self, "-child", role, "-workload", o.w.name,
			"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-out", o.out)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s child: %w", role, err)
		}
		if err := json.Unmarshal(out, v); err != nil {
			return fmt.Errorf("%s child output: %w", role, err)
		}
		return nil
	}
}
