package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cport"
	"repro/internal/f77"
	"repro/internal/nas"
	wl "repro/internal/withloop"
)

// npbImpls are the paper's three implementations, in report order.
var npbImpls = []string{"sac", "f77", "c"}

// routines are the four V-cycle routines every implementation has.
var routines = []string{"resid", "smooth", "restrict", "prolong"}

// probeRegions maps each implementation's Probe region to its routine.
// fine is added to the probed level to reach the finer of the two grids
// a transfer touches: SAC tags coarse2fine with its coarse input, the
// ports tag interp with its fine output.
var probeRegions = map[string]struct {
	routine string
	fine    int
}{
	"resid":       {"resid", 0},
	"smooth":      {"smooth", 0},
	"fine2coarse": {"restrict", 0},
	"coarse2fine": {"prolong", 1},
	"psinv":       {"smooth", 0},
	"rprj3":       {"restrict", 0},
	"interp":      {"prolong", 0},
}

// routineBytes is the computed memory traffic of one routine call whose
// finer grid is at level fine: every grid it reads or writes counted
// once, cache misses ignored. resid reads u and v and writes r; smooth
// reads r and u and writes u; restrict reads the fine grid and writes
// the coarse one; prolong reads the coarse grid and reads and writes
// the fine one.
func routineBytes(routine string, fine int) float64 {
	grid := func(level int) float64 {
		m := float64(int(1)<<level + 2)
		return 8 * m * m * m
	}
	switch routine {
	case "resid", "smooth":
		return 3 * grid(fine)
	case "restrict":
		return grid(fine) + grid(fine-1)
	default: // prolong
		return 2*grid(fine) + grid(fine-1)
	}
}

// routineClock sums one solve's Probe samples per routine.
type routineClock struct {
	nanos map[string]time.Duration
	bytes map[string]float64
}

func newRoutineClock() *routineClock {
	return &routineClock{nanos: map[string]time.Duration{}, bytes: map[string]float64{}}
}

func (c *routineClock) probe(region string, level int, elapsed time.Duration) {
	r, ok := probeRegions[region]
	if !ok {
		return
	}
	c.nanos[r.routine] += elapsed
	c.bytes[r.routine] += routineBytes(r.routine, level+r.fine)
}

// npbJob is one class-W job: a freshly built solver, reset, then solved.
type npbJob struct {
	setup, reset, solve time.Duration
	rnm2                float64
	allocs, reuses      uint64 // SAC's mempool counters
}

// runNPBJob builds, resets and solves one class-W problem with impl on
// the official seed, the way cmd/mg does. A non-nil probe receives the
// solver's per-routine timings.
func runNPBJob(impl string, probe nas.Probe) (job npbJob) {
	class := nas.ClassW
	start := time.Now()
	var reset func()
	var solve func() float64
	switch impl {
	case "sac":
		env := wl.Default()
		defer env.Close()
		b := core.NewBenchmark(class, env)
		b.Solver.Probe = probe
		reset = b.Reset
		solve = func() float64 {
			rnm2, _ := b.Solve()
			st := env.Pool.Stats()
			job.allocs, job.reuses = st.Allocs, st.Reuses
			return rnm2
		}
	case "f77":
		s := f77.New(class)
		s.Probe = probe
		reset = s.Reset
		solve = func() float64 {
			s.EvalResid()
			for it := 0; it < class.Iter; it++ {
				s.MG3P()
				s.EvalResid()
			}
			rnm2, _ := s.Norms()
			return rnm2
		}
	case "c":
		s := cport.New(class)
		s.Probe = probe
		reset = s.Reset
		solve = func() float64 {
			s.EvalResid()
			for it := 0; it < class.Iter; it++ {
				s.MG3P()
				s.EvalResid()
			}
			rnm2, _ := s.Norms()
			return rnm2
		}
	default:
		panic("npb: unknown implementation " + impl)
	}
	resetStart := time.Now()
	reset()
	solveStart := time.Now()
	job.reset = solveStart.Sub(resetStart)
	job.setup = solveStart.Sub(start)
	job.rnm2 = solve()
	job.solve = time.Since(solveStart)
	return job
}

// npbSample is what a phase keeps of each checked job.
type npbSample struct {
	impl  string
	job   npbJob
	clock *routineClock // nil when untraced
}

// npbPhase runs whole rounds of one job per implementation, in order,
// until d has passed.
func npbPhase(rep *report, order []string, d time.Duration, traced bool) (*phase, []npbSample) {
	p := &phase{}
	var samples []npbSample
	cpu0, start := selfCPU(), time.Now()
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		for _, impl := range order {
			var clock *routineClock
			var probe nas.Probe
			if traced {
				clock = newRoutineClock()
				probe = clock.probe
			}
			// Collect the previous job's garbage outside the timed
			// solve, so each job starts from the same heap and the
			// peak resident set is that of one job.
			runtime.GC()
			job := runNPBJob(impl, probe)
			err := checkNPBW(impl, job.rnm2)
			rep.ops.record(err)
			if err != nil {
				continue
			}
			p.jobs++
			p.setups = append(p.setups, job.setup.Seconds())
			p.lat = append(p.lat, ms(job.solve))
			samples = append(samples, npbSample{impl, job, clock})
		}
	}
	p.wall = time.Since(start)
	p.cpu = selfCPU() - cpu0
	p.rssMB = selfPeakRSSMB()
	return p, samples
}

// runNPB is the npb-W workload: NPB class W on the official seed, one
// single-threaded job at a time, rotating through sac, f77 and c in an
// order drawn from the seed. Its traced run also measures the mgmpi
// layers on the same problem.
func runNPB(cfg config, rep *report) error {
	order := make([]string, len(npbImpls))
	for i, j := range rand.New(rand.NewSource(cfg.seed)).Perm(len(npbImpls)) {
		order[i] = npbImpls[j]
	}
	fmt.Fprintf(cfg.log, "npb-W: rotation %v\n", order)
	if !cfg.trace {
		p, _ := npbPhase(rep, order, cfg.seconds, false)
		p.endToEnd(rep)
		return nil
	}

	// The traced run gives a quarter of its time to each of an untraced
	// and a traced npb phase and the other half to the mgmpi layers,
	// whose own workload is not held steady enough to be in
	// BENCHMARK.json.
	_, plain := npbPhase(rep, order, cfg.seconds/4, false)
	_, traced := npbPhase(rep, order, cfg.seconds/4, true)
	mpiOverhead, _ := mpiLayers(cfg, rep, cfg.seconds/2)
	overhead := []float64{mpiOverhead}
	var resets []float64
	for _, s := range plain {
		resets = append(resets, ms(s.job.reset))
	}
	var allocs, reuses uint64
	for _, impl := range npbImpls {
		var solve, tracedSolve, coverage []float64
		for _, s := range plain {
			if s.impl == impl {
				solve = append(solve, ms(s.job.solve))
			}
		}
		perRoutine := map[string][]float64{}
		perRoutineGBs := map[string][]float64{}
		for _, s := range traced {
			if s.impl != impl {
				continue
			}
			tracedSolve = append(tracedSolve, ms(s.job.solve))
			var covered time.Duration
			for _, r := range routines {
				d := s.clock.nanos[r]
				covered += d
				perRoutine[r] = append(perRoutine[r], ms(d))
				if d > 0 {
					perRoutineGBs[r] = append(perRoutineGBs[r], s.clock.bytes[r]/d.Seconds()/1e9)
				}
			}
			coverage = append(coverage, covered.Seconds()/s.job.solve.Seconds())
			if impl == "sac" {
				allocs += s.job.allocs
				reuses += s.job.reuses
			}
		}
		rep.set(impl+".solve_ms", median(solve))
		for _, r := range routines {
			rep.set(impl+"."+r+"_ms", median(perRoutine[r]))
			rep.set(impl+"."+r+"_gbs", median(perRoutineGBs[r]))
		}
		rep.set(impl+".coverage", median(coverage))
		overhead = append(overhead, median(tracedSolve)/median(solve))
	}
	rep.set("nas.reset_ms", median(resets))
	if allocs+reuses > 0 {
		rep.set("sac.pool_reuse", float64(reuses)/float64(allocs+reuses))
	}
	rep.set("trace.overhead", mean(overhead))
	return nil
}
