// Command mgperf is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time from a seed, checks every result, and
// prints the metrics as one JSON object on the last line of its output:
//
//	bash mgperf/run.sh --workload npb-W --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	npb-W   class W solves, one at a time, rotating sac, f77 and c
//	mgd-S   the mgd daemon at class S, two HTTP clients, 3/4 cache hits
//	mpi-W2  class W over two mgmpi ranks on a loopback mpinet TCP mesh
//	        (for runs by hand; BENCHMARK.json leaves it out)
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run splits its time into untraced and traced phases and reports the
// per-layer metrics, including the tracing overhead. README.md maps each
// per-layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the program sees, reported by every
// workload with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, reported with --trace 1. A
// workload reports 0 for a layer it does not run.
var perLayer = func() []metricDef {
	defs := []metricDef{{"nas.reset_ms", "ms"}}
	for _, impl := range npbImpls {
		defs = append(defs, metricDef{impl + ".solve_ms", "ms"})
	}
	for _, impl := range npbImpls {
		for _, r := range routines {
			defs = append(defs, metricDef{impl + "." + r + "_ms", "ms"})
		}
	}
	for _, impl := range npbImpls {
		for _, r := range routines {
			defs = append(defs, metricDef{impl + "." + r + "_gbs", "GB/s"})
		}
	}
	defs = append(defs, metricDef{"host.triad_gbs", "GB/s"})
	for _, impl := range npbImpls {
		defs = append(defs, metricDef{impl + ".coverage", "ratio"})
	}
	return append(defs,
		metricDef{"sac.pool_reuse", "ratio"},
		metricDef{"mgd.hit_ms", "ms"},
		metricDef{"mgd.cold_ms", "ms"},
		metricDef{"jobq.ingress_ms", "ms"},
		metricDef{"jobq.queue_ms", "ms"},
		metricDef{"jobq.solve_ms", "ms"},
		metricDef{"jobq.respond_ms", "ms"},
		metricDef{"mgd.http_ms", "ms"},
		metricDef{"jobq.hit_ratio", "ratio"},
		metricDef{"jobq.dedup_ratio", "ratio"},
		metricDef{"mgd.busy_cores", "cores"},
		metricDef{"mpinet.bootstrap_ms", "ms"},
		metricDef{"mgmpi.sync_ms", "ms"},
		metricDef{"mgmpi.overlap_ms", "ms"},
		metricDef{"mgmpi.compute_ms", "ms"},
		metricDef{"mgmpi.blocked_ms", "ms"},
		metricDef{"mgmpi.imbalance", "ratio"},
		metricDef{"mpi.messages", "count"},
		metricDef{"mpi.wire_kb", "KB"},
		metricDef{"mgmpi.efficiency", "ratio"},
		metricDef{"mgmpi.overlap_efficiency", "ratio"},
		metricDef{"trace.overhead", "ratio"},
	)
}()

// config is what a workload is run with.
type config struct {
	seed     int64
	seconds  time.Duration // length of the measured phase
	trace    bool
	buildDir string    // scratch space inside the checkout
	log      io.Writer // progress and diagnostics
}

// report collects what a workload measured.
type report struct {
	ops    tally
	values map[string]float64
}

func (r *report) set(name string, v float64) { r.values[name] = v }

var workloads = map[string]func(config, *report) error{
	"npb-W":  runNPB,
	"mgd-S":  runMGD,
	"mpi-W2": runMPI,
}

// distorting names environment variables that silently change the
// measured program: a forced kernel variant, or SIMD switched off.
var distorting = []string{"MG_FORCE_VARIANT", "MG_SIMD_DISABLE"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mgperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: npb-W, mgd-S or mpi-W2")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1: report the per-layer metrics of a traced run")
	measureOnly := fs.Bool("host-ref", false, "measure the host reference and print it as JSON (run as a child process)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *measureOnly {
		return printHostRef(stdout)
	}
	for _, name := range distorting {
		if _, ok := os.LookupEnv(name); ok {
			fmt.Fprintf(stderr, "mgperf: %s is set; it changes the measured program, unset it\n", name)
			return 2
		}
	}
	work, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "mgperf: unknown -workload %q (want npb-W, mgd-S or mpi-W2)\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "mgperf: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	root, err := os.Getwd()
	if err == nil {
		err = checkRoot(root)
	}
	if err != nil {
		fmt.Fprintln(stderr, "mgperf:", err)
		return 2
	}
	buildDir := os.Getenv("MGPERF_BUILD_DIR")
	if buildDir == "" {
		buildDir = ".bench_build"
	}
	cfg := config{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, buildDir: buildDir, log: stderr,
	}

	ref, err := measureHost(root)
	if err != nil {
		fmt.Fprintln(stderr, "mgperf: host reference:", err)
		return 1
	}
	ref.Workload, ref.Seed, ref.Trace = *workload, *seed, *trace
	rep := &report{values: map[string]float64{}}
	ticks := readCPUTicks()
	if err := work(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "mgperf: %s: %v\n", *workload, err)
		return 1
	}
	ref.StealShare = stealShare(ticks, readCPUTicks())
	rep.set("host.triad_gbs", ref.TriadGBs)

	attempted, failed, correct := rep.ops.counts()
	for _, e := range rep.ops.errs {
		fmt.Fprintln(stderr, "mgperf: failed operation:", e)
	}
	defs, fill := endToEnd, false
	if cfg.trace {
		defs, fill = perLayer, true
	}
	metrics, err := collect(rep.values, defs, fill)
	if err != nil {
		fmt.Fprintln(stderr, "mgperf:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.Encode(struct {
		Reference hostRef `json:"reference"`
	}{ref})
	enc.Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if !correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect picks defs out of values. A missing value is an error unless
// fill is set, when it reads 0: the workload did not run that layer.
func collect(values map[string]float64, defs []metricDef, fill bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !fill {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{v, d.unit}
	}
	return out, nil
}

// checkRoot refuses to run anywhere but the root of a full checkout.
func checkRoot(root string) error {
	for _, p := range []string{"go.mod", "internal/core", "internal/jobq", "cmd/mgd"} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the root of the repository: %s is missing in %s", p, root)
		}
	}
	return nil
}

// --- statistics -------------------------------------------------------------

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// phase is one closed-loop measured phase of a workload.
type phase struct {
	setups []float64 // per set-up, seconds
	lat    []float64 // per completed job, ms
	jobs   int       // completed checked jobs
	wall   time.Duration
	cpu    time.Duration // CPU of the program's process during the phase
	rssMB  float64       // peak resident set of the program's process
}

// endToEnd stores the end-to-end metrics of p in rep.
func (p *phase) endToEnd(rep *report) {
	rep.set("setup_s", median(p.setups))
	rep.set("jobs_per_s", float64(p.jobs)/p.wall.Seconds())
	rep.set("latency_p50_ms", quantile(p.lat, 0.5))
	rep.set("latency_p90_ms", quantile(p.lat, 0.9))
	if p.jobs > 0 {
		rep.set("cpu_ms_per_job", ms(p.cpu)/float64(p.jobs))
	}
	rep.set("peak_rss_mb", p.rssMB)
}
