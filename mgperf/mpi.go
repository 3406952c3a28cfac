package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/array"
	"repro/internal/metrics"
	"repro/internal/mgmpi"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/nas"
)

// mpiJob is one class-W solve over a fresh loopback TCP mesh.
type mpiJob struct {
	reset     time.Duration // rank 0's reset work, timed apart (see timeReset)
	bootstrap time.Duration // Listen until every rank holds its transport and solver
	wall      time.Duration // all ranks' RunRank
	rnm2      []float64     // per rank
	rankWall  []time.Duration
	stats     []mpi.Stats
}

// runMPIJob bootstraps a world of the given size on 127.0.0.1 the way
// cmd/mgrank does, with every rank a goroutine of this process, and
// solves class W once. A non-nil tracer receives every rank's events.
func runMPIJob(ranks int, overlap bool, tracer *metrics.Tracer) (mpiJob, error) {
	job := mpiJob{
		reset:    timeReset(),
		rnm2:     make([]float64, ranks),
		rankWall: make([]time.Duration, ranks),
		stats:    make([]mpi.Stats, ranks),
	}
	start := time.Now()
	cfg := mpinet.Config{Rank: 0, Size: ranks, Addr: "127.0.0.1:0", Class: 'W'}
	rz, err := mpinet.Listen(cfg)
	if err != nil {
		return job, err
	}
	transports := make([]*mpinet.Transport, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 1; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := cfg
			c.Rank, c.Addr = r, rz.Addr()
			transports[r], errs[r] = mpinet.Join(c)
		}(r)
	}
	transports[0], errs[0] = rz.Accept()
	wg.Wait()
	defer func() {
		for _, t := range transports {
			if t != nil {
				t.Close()
			}
		}
	}()
	if err := firstErr(errs...); err != nil {
		return job, fmt.Errorf("bootstrap: %w", err)
	}
	solvers := make([]*mgmpi.Solver, ranks)
	for r, t := range transports {
		s, err := mgmpi.NewWithTransport(nas.ClassW, t)
		if err != nil {
			return job, err
		}
		s.Overlap, s.Trace = overlap, tracer
		solvers[r] = s
	}
	job.bootstrap = time.Since(start)

	solveStart := time.Now()
	for r := range solvers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// A failed exchange panics out of RunRank. Close this rank's
			// transport at once so its peers fail fast instead of
			// waiting out their I/O timeout.
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("rank %d: %v", r, p)
					transports[r].Close()
				}
			}()
			t0 := time.Now()
			job.rnm2[r], _ = solvers[r].RunRank()
			job.rankWall[r] = time.Since(t0)
		}(r)
	}
	wg.Wait()
	job.wall = time.Since(solveStart)
	if err := firstErr(errs...); err != nil {
		return job, err
	}
	for r, t := range transports {
		job.stats[r] = t.Stats()
	}
	return job, nil
}

// timeReset times rank 0's share of mgmpi's reset: a fresh class-W
// grid and the zran3 charge on it. mgmpi runs it inside RunRank, where
// it cannot be timed apart without a tracer, so every job runs it once
// more just before its bootstrap and counts that time as set-up.
func timeReset() time.Duration {
	start := time.Now()
	v := array.New(nas.ClassW.ExtShape(nas.ClassW.LT()))
	nas.Zran3(v, nas.ClassW.N)
	return time.Since(start)
}

// mpiSample is one checked 2-rank job of a phase.
type mpiSample struct {
	overlap bool
	job     mpiJob
	comm    *metrics.CommReport // traced jobs only
}

// mpiPhase runs whole rounds of one synchronous and one overlapped
// 2-rank job, in the order the seed picked, until d has passed.
func mpiPhase(rep *report, first *mpiFirst, overlapFirst bool, d time.Duration, traced bool) (*phase, []mpiSample) {
	p := &phase{}
	var samples []mpiSample
	cpu0, start := selfCPU(), time.Now()
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		for _, overlap := range []bool{overlapFirst, !overlapFirst} {
			var buf bytes.Buffer
			var tracer *metrics.Tracer
			if traced {
				tracer = metrics.NewTracer(&buf)
			}
			// Collect the previous job's garbage outside the timed
			// solve, so each job starts from the same heap and the
			// peak resident set is that of one job.
			runtime.GC()
			job, err := runMPIJob(2, overlap, tracer)
			if err == nil {
				err = checkMPI(job.rnm2[0], job.rnm2[1], first)
			}
			s := mpiSample{overlap: overlap, job: job}
			if err == nil && traced {
				s.comm, err = commReport(tracer, &buf)
			}
			rep.ops.record(err)
			if err != nil {
				continue
			}
			p.jobs++
			p.setups = append(p.setups, (job.reset + job.bootstrap).Seconds())
			p.lat = append(p.lat, ms(job.wall))
			samples = append(samples, s)
		}
	}
	p.wall = time.Since(start)
	p.cpu = selfCPU() - cpu0
	p.rssMB = selfPeakRSSMB()
	return p, samples
}

// commReport closes a job's tracer and builds the cross-rank report.
func commReport(tracer *metrics.Tracer, buf *bytes.Buffer) (*metrics.CommReport, error) {
	if err := tracer.Close(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	events, err := metrics.ReadEvents(buf)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	rep := metrics.BuildCommReport(events)
	if rep.UnmatchedSends+rep.UnmatchedRecvs > 0 {
		return nil, fmt.Errorf("trace: %d unmatched sends, %d unmatched receives",
			rep.UnmatchedSends, rep.UnmatchedRecvs)
	}
	return &rep, nil
}

// runMPI is the mpi-W2 workload: class W over two mgmpi ranks on a
// loopback mpinet TCP mesh bootstrapped per job, alternating synchronous
// and overlapped halo exchange, with the seed picking which comes first.
// BENCHMARK.json leaves it out: on a shared 2-vCPU host its wall-clock
// figures drift with the hypervisor's steal (README.md). The traced run
// of npb-W measures the same layers through mpiLayers.
func runMPI(cfg config, rep *report) error {
	if !cfg.trace {
		p, _ := mpiPhase(rep, &mpiFirst{}, cfg.seed%2 != 0, cfg.seconds, false)
		p.endToEnd(rep)
		return nil
	}
	overhead, reset := mpiLayers(cfg, rep, cfg.seconds)
	rep.set("trace.overhead", overhead)
	rep.set("nas.reset_ms", reset)
	return nil
}

// mpiLayers runs 2-rank jobs for d, half untraced and half traced, plus
// three 1-rank solves, and sets the mpi, mpinet and mgmpi metrics. It
// returns the tracing overhead (traced over untraced median latency)
// and the median reset time.
func mpiLayers(cfg config, rep *report, d time.Duration) (overhead, resetMs float64) {
	overlapFirst := cfg.seed%2 != 0
	first := &mpiFirst{}
	fmt.Fprintf(cfg.log, "mgmpi: overlapped exchange first: %v\n", overlapFirst)
	plainPhase, plain := mpiPhase(rep, first, overlapFirst, d/2, false)
	// One rank over the same transport, for the parallel efficiency.
	var one []float64
	for i := 0; i < 3; i++ {
		job, err := runMPIJob(1, false, nil)
		if err == nil {
			err = checkPublished(job.rnm2[0], refW)
		}
		rep.ops.record(err)
		if err == nil {
			one = append(one, ms(job.wall))
		}
	}
	tracedPhase, traced := mpiPhase(rep, first, overlapFirst, d/2, true)

	var resets, boots, syncLat, overlapLat, compute, blocked, imbalance, messages, wire []float64
	for _, s := range plain {
		resets = append(resets, ms(s.job.reset))
		boots = append(boots, ms(s.job.bootstrap))
		if s.overlap {
			overlapLat = append(overlapLat, ms(s.job.wall))
		} else {
			syncLat = append(syncLat, ms(s.job.wall))
		}
		var comp []float64
		var msgs, wireBytes uint64
		for r, st := range s.job.stats {
			c := s.job.rankWall[r] - time.Duration(st.ExchangeNanos)
			comp = append(comp, ms(c))
			blocked = append(blocked, float64(st.ExchangeNanos)/1e6)
			msgs += st.Messages
			wireBytes += st.WireBytes
		}
		compute = append(compute, comp...)
		imbalance = append(imbalance, max(comp[0], comp[1])/min(comp[0], comp[1]))
		messages = append(messages, float64(msgs))
		wire = append(wire, float64(wireBytes)/1024)
	}
	var overlapEff []float64
	for _, s := range traced {
		if s.overlap {
			overlapEff = append(overlapEff, s.comm.OverlapEfficiency)
		}
	}
	rep.set("mpinet.bootstrap_ms", median(boots))
	rep.set("mgmpi.sync_ms", median(syncLat))
	rep.set("mgmpi.overlap_ms", median(overlapLat))
	rep.set("mgmpi.compute_ms", median(compute))
	rep.set("mgmpi.blocked_ms", median(blocked))
	rep.set("mgmpi.imbalance", median(imbalance))
	rep.set("mpi.messages", median(messages))
	rep.set("mpi.wire_kb", median(wire))
	if len(one) > 0 && len(syncLat) > 0 {
		rep.set("mgmpi.efficiency", median(one)/(2*median(syncLat)))
	}
	rep.set("mgmpi.overlap_efficiency", median(overlapEff))
	return median(tracedPhase.lat) / median(plainPhase.lat), median(resets)
}
