package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// mgdStarts is how many times a run starts the daemon to time its
	// set-up; the last start serves the measured phase.
	mgdStarts = 5
	// mgdClients is the number of closed-loop HTTP clients, nproc on
	// the 2-vCPU reference host.
	mgdClients = 2
	// mgdRound is the requests per client round: mgdRound−1 cache hits
	// on the hot set and one cold solve.
	mgdRound = 4
	// officialSeed is the NPB zran3 seed; requests leave it out.
	officialSeed = 314159265
	// drainWait bounds the wait for the daemon to exit after SIGTERM:
	// its default -drain-timeout of 30 s plus slack.
	drainWait = 40 * time.Second
)

// mgdRequest is a class-S solve submission. Seed 0 is the official
// problem, whose published norm the response must match.
type mgdRequest struct {
	Class string `json:"class"`
	Impl  string `json:"impl"`
	Seed  uint64 `json:"seed,omitempty"`
	Wait  bool   `json:"wait"`
}

func hotRequest(impl string) mgdRequest { return mgdRequest{Class: "S", Impl: impl, Wait: true} }

// buildMGD builds cmd/mgd from the tree under test into a temporary
// directory under dir and returns the binary and a cleanup.
func buildMGD(dir string, log io.Writer) (string, func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	tmp, err := os.MkdirTemp(dir, "mgd-")
	if err != nil {
		return "", nil, err
	}
	cleanup := func() { os.RemoveAll(tmp) }
	bin := filepath.Join(tmp, "mgd")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/mgd")
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		cleanup()
		return "", nil, fmt.Errorf("go build ./cmd/mgd: %w", err)
	}
	return bin, cleanup, nil
}

// daemon is one running mgd process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	logDone chan struct{} // closed when the daemon's stderr reaches EOF

	mu   sync.Mutex
	tail []string // last log lines, for diagnostics
}

var servingAddr = regexp.MustCompile(`msg=serving addr=(\S+)`)

// startDaemon starts mgd in its default configuration on an ephemeral
// loopback port, reads the bound address from its log, and waits until
// /readyz answers.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mgd: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	addrc := make(chan string, 1)
	go d.readLog(stderr, addrc)
	var addr string
	select {
	case addr = <-addrc:
	case <-d.logDone:
		d.kill()
		return nil, fmt.Errorf("mgd exited before serving: %s", d.lastLog())
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, fmt.Errorf("mgd logged no serving address within 20s: %s", d.lastLog())
	}
	d.base = "http://" + addr
	d.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: mgdClients},
		Timeout:   60 * time.Second,
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("mgd at %s not ready within 20s", addr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// readLog drains the daemon's log, passing on the serving address.
func (d *daemon) readLog(r io.Reader, addrc chan<- string) {
	defer close(d.logDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	found := false
	for sc.Scan() {
		line := sc.Text()
		if !found {
			if m := servingAddr.FindStringSubmatch(line); m != nil {
				addrc <- m[1]
				found = true
			}
		}
		d.mu.Lock()
		if len(d.tail) == 20 {
			d.tail = d.tail[1:]
		}
		d.tail = append(d.tail, line)
		d.mu.Unlock()
	}
	io.Copy(io.Discard, r) // past an over-long line, keep the pipe empty
}

func (d *daemon) lastLog() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// kill ends the daemon at once and reaps it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.logDone
	d.cmd.Wait()
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
}

// stop drains the daemon with SIGTERM. An exit status other than 0, or
// a daemon still running after drainWait, is an error.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("SIGTERM mgd: %w", err)
	}
	select {
	case <-d.logDone:
	case <-time.After(drainWait):
		d.kill()
		return fmt.Errorf("mgd still running %v after SIGTERM; killed", drainWait)
	}
	err := d.cmd.Wait()
	d.client.CloseIdleConnections()
	if err != nil {
		return fmt.Errorf("mgd after SIGTERM: %v (log: %s)", err, d.lastLog())
	}
	return nil
}

// peakRSSMB is the exited daemon's peak resident set in MB.
func (d *daemon) peakRSSMB() float64 {
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// solve posts one request and checks the response. The latency is the
// client-observed round trip.
func (d *daemon) solve(req mgdRequest) (mgdReply, time.Duration, error) {
	body, _ := json.Marshal(req)
	start := time.Now()
	resp, err := d.client.Post(d.base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return mgdReply{}, 0, fmt.Errorf("POST /v1/solve: %w", err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return mgdReply{}, 0, fmt.Errorf("POST /v1/solve: reading the response: %w", err)
	}
	r, err := checkMGDReply(resp.StatusCode, out, req.Seed == 0)
	return r, lat, err
}

// mgdStats is the part of /v1/stats the benchmark reads.
type mgdStats struct {
	Submitted, Deduped, CacheHits, CacheMisses uint64
}

func (d *daemon) stats() (mgdStats, error) {
	var s mgdStats
	resp, err := d.client.Get(d.base + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// coldStream hands out the cold requests of a run: fresh seeds drawn
// from the workload seed, each submitted once per implementation in an
// order drawn from the same stream, and cross-checks each seed's three
// norms once all have come back. Safe for concurrent use.
type coldStream struct {
	mu      sync.Mutex
	rng     *rand.Rand
	pending []mgdRequest
	norms   map[uint64]*[3]float64
	have    map[uint64]int
}

func newColdStream(seed int64) *coldStream {
	return &coldStream{
		rng:   rand.New(rand.NewSource(seed)),
		norms: map[uint64]*[3]float64{},
		have:  map[uint64]int{},
	}
}

func (c *coldStream) next() mgdRequest {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) == 0 {
		seed := c.rng.Uint64()&(1<<46-1) | 1
		for seed == officialSeed {
			seed = c.rng.Uint64()&(1<<46-1) | 1
		}
		for _, i := range c.rng.Perm(len(npbImpls)) {
			c.pending = append(c.pending, mgdRequest{Class: "S", Impl: npbImpls[i], Seed: seed, Wait: true})
		}
	}
	req := c.pending[0]
	c.pending = c.pending[1:]
	return req
}

// done records a checked cold norm; the last of a seed's three runs the
// cross-check.
func (c *coldStream) done(req mgdRequest, rnm2 float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.norms[req.Seed]
	if n == nil {
		n = new([3]float64)
		c.norms[req.Seed] = n
	}
	for i, impl := range npbImpls {
		if impl == req.Impl {
			n[i] = rnm2
		}
	}
	c.have[req.Seed]++
	if c.have[req.Seed] < len(npbImpls) {
		return nil
	}
	delete(c.norms, req.Seed)
	delete(c.have, req.Seed)
	return checkColdTriple(req.Seed, n[0], n[1], n[2])
}

// mgdSample is one checked response of a measured phase.
type mgdSample struct {
	impl  string
	lat   time.Duration
	reply mgdReply
}

// mgdPhase runs mgdClients closed-loop clients for d, each in whole
// rounds of mgdRound requests with the cold one at a position drawn from
// the client's seeded stream.
func mgdPhase(dm *daemon, rep *report, cold *coldStream, seed int64, d time.Duration) (*phase, []mgdSample, mgdStats) {
	pid := dm.cmd.Process.Pid
	st0, err0 := dm.stats()
	cpu0, errCPU0 := procCPU(pid)
	start := time.Now()
	per := make([][]mgdSample, mgdClients)
	var wg sync.WaitGroup
	for c := 0; c < mgdClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed<<8 | int64(c)))
			for round := 0; round == 0 || time.Since(start) < d; round++ {
				coldSlot := rng.Intn(mgdRound)
				for slot := 0; slot < mgdRound; slot++ {
					req := hotRequest(npbImpls[rng.Intn(len(npbImpls))])
					if slot == coldSlot {
						req = cold.next()
					}
					r, lat, err := dm.solve(req)
					if err == nil && req.Seed != 0 {
						err = cold.done(req, r.Rnm2)
					}
					rep.ops.record(err)
					if err == nil {
						per[c] = append(per[c], mgdSample{req.Impl, lat, r})
					}
				}
			}
		}(c)
	}
	wg.Wait()
	p := &phase{wall: time.Since(start)}
	cpu1, errCPU1 := procCPU(pid)
	st1, err1 := dm.stats()
	rep.ops.record(firstErr(err0, err1, errCPU0, errCPU1))
	p.cpu = cpu1 - cpu0
	var samples []mgdSample
	for _, s := range per {
		samples = append(samples, s...)
	}
	for _, s := range samples {
		p.lat = append(p.lat, ms(s.lat))
	}
	p.jobs = len(samples)
	delta := mgdStats{
		Submitted:   st1.Submitted - st0.Submitted,
		Deduped:     st1.Deduped - st0.Deduped,
		CacheHits:   st1.CacheHits - st0.CacheHits,
		CacheMisses: st1.CacheMisses - st0.CacheMisses,
	}
	return p, samples, delta
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runMGD is the mgd-S workload: the daemon in its default configuration
// at class S, two HTTP clients, three quarters of the requests cache
// hits on the official-seed problem of each implementation and the rest
// cold solves on seeds drawn from the workload seed.
func runMGD(cfg config, rep *report) error {
	bin, cleanup, err := buildMGD(cfg.buildDir, cfg.log)
	if err != nil {
		return err
	}
	defer cleanup()

	// Set-up: start the daemon and put one warm-up request per
	// implementation through it, which also fills the hot set.
	var setups []float64
	var dm *daemon
	for i := 0; i < mgdStarts; i++ {
		start := time.Now()
		dm, err = startDaemon(bin)
		if err != nil {
			return err
		}
		for _, impl := range npbImpls {
			_, _, err := dm.solve(hotRequest(impl))
			rep.ops.record(err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < mgdStarts-1 {
			rep.ops.record(dm.stop())
		}
	}

	cold := newColdStream(cfg.seed)
	if !cfg.trace {
		p, _, _ := mgdPhase(dm, rep, cold, cfg.seed, cfg.seconds)
		rep.ops.record(dm.stop())
		p.setups = setups
		p.rssMB = dm.peakRSSMB()
		p.endToEnd(rep)
		return nil
	}

	plain, _, _ := mgdPhase(dm, rep, cold, cfg.seed, cfg.seconds/2)
	traced, samples, delta := mgdPhase(dm, rep, cold, cfg.seed+1<<32, cfg.seconds/2)
	rep.ops.record(dm.stop())

	var hit, coldLat, ingress, queue, solve, respond, http []float64
	var allocs, reuses uint64
	for _, s := range samples {
		st := s.reply.Stages
		if s.reply.Cached {
			hit = append(hit, ms(s.lat))
		} else {
			coldLat = append(coldLat, ms(s.lat))
		}
		ingress = append(ingress, st.Ingress*1e3)
		queue = append(queue, st.Queue*1e3)
		solve = append(solve, st.Solve*1e3)
		respond = append(respond, st.Respond*1e3)
		http = append(http, ms(s.lat)-st.Total*1e3)
		if s.impl == "sac" && !s.reply.Cached {
			allocs += s.reply.MemAllocs
			reuses += s.reply.MemReuses
		}
	}
	rep.set("mgd.hit_ms", median(hit))
	rep.set("mgd.cold_ms", median(coldLat))
	rep.set("jobq.ingress_ms", mean(ingress))
	rep.set("jobq.queue_ms", mean(queue))
	rep.set("jobq.solve_ms", mean(solve))
	rep.set("jobq.respond_ms", mean(respond))
	rep.set("mgd.http_ms", mean(http))
	if n := delta.CacheHits + delta.CacheMisses; n > 0 {
		rep.set("jobq.hit_ratio", float64(delta.CacheHits)/float64(n))
	}
	if delta.Submitted > 0 {
		rep.set("jobq.dedup_ratio", float64(delta.Deduped)/float64(delta.Submitted))
	}
	rep.set("mgd.busy_cores", traced.cpu.Seconds()/traced.wall.Seconds())
	if allocs+reuses > 0 {
		rep.set("sac.pool_reuse", float64(reuses)/float64(allocs+reuses))
	}
	rep.set("trace.overhead", median(traced.lat)/median(plain.lat))
	return nil
}
