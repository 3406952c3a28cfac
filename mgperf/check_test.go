package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// f77S is the class-S norm the Fortran port computes on the official
// seed: the published constant to 13 digits.
const f77S = 5.307707005734897e-05

func isWrong(err error) bool {
	var ce *CheckError
	return errors.As(err, &ce)
}

func TestCheckPublished(t *testing.T) {
	if err := checkPublished(2.5039140643941482e-18, refW); err != nil {
		t.Errorf("f77 class-W norm rejected: %v", err)
	}
	if err := checkPublished(f77S, refS); err != nil {
		t.Errorf("class-S norm rejected: %v", err)
	}
	// A norm off by one part in 1e9 is wrong, although the NPB 2.3 rule
	// |rnm2 − ref| ≤ 1e-8 would pass it, and any other tiny number.
	for _, bad := range []float64{refW * (1 + 1e-9), 1e-9, 0, math.NaN(), math.Inf(1)} {
		if err := checkPublished(bad, refW); !isWrong(err) {
			t.Errorf("checkPublished(%g) = %v, want a CheckError", bad, err)
		}
	}
}

func TestCheckNPBW(t *testing.T) {
	if err := checkNPBW("sac", 2.8665390014202385e-18); err != nil {
		t.Errorf("sac class-W norm rejected: %v", err)
	}
	for _, c := range []struct {
		impl string
		rnm2 float64
	}{
		{"sac", refW * 2.5},
		{"sac", refW / 2.5},
		{"sac", math.NaN()},
		{"f77", 2.8665390014202385e-18}, // sac's floor is not f77's answer
		{"c", refW * (1 + 1e-9)},
	} {
		if err := checkNPBW(c.impl, c.rnm2); !isWrong(err) {
			t.Errorf("checkNPBW(%s, %g) = %v, want a CheckError", c.impl, c.rnm2, err)
		}
	}
}

func TestCheckContracted(t *testing.T) {
	if err := checkContracted(f77S, 32, 4); err != nil {
		t.Errorf("official class-S norm rejected: %v", err)
	}
	r0 := math.Sqrt(20.0 / (32 * 32 * 32))
	for _, bad := range []float64{r0, r0 * 0.3 * 0.3 * 0.3 * 0.3 * 1.01, 0, -1e-6, math.NaN(), math.Inf(1)} {
		if err := checkContracted(bad, 32, 4); !isWrong(err) {
			t.Errorf("checkContracted(%g) = %v, want a CheckError", bad, err)
		}
	}
}

func TestCheckColdTriple(t *testing.T) {
	f := 1.234567e-4
	if err := checkColdTriple(7, f*(1+1e-14), f, f); err != nil {
		t.Errorf("agreeing triple rejected: %v", err)
	}
	if err := checkColdTriple(7, f, f, math.Nextafter(f, 1)); !isWrong(err) {
		t.Errorf("f77 and c one ulp apart: %v, want a CheckError", err)
	}
	if err := checkColdTriple(7, f*(1+1e-11), f, f); !isWrong(err) {
		t.Errorf("sac 1e-11 away: %v, want a CheckError", err)
	}
}

func TestCheckMPI(t *testing.T) {
	good := 2.503914064394148e-18
	first := &mpiFirst{}
	if err := checkMPI(good, good, first); err != nil {
		t.Fatalf("first solve rejected: %v", err)
	}
	if err := checkMPI(good, good, first); err != nil {
		t.Errorf("identical second solve rejected: %v", err)
	}
	// An overlapped solve one ulp off the synchronous one passes the
	// published-value check but must still fail.
	off := math.Nextafter(good, 1)
	if err := checkPublished(off, refW); err != nil {
		t.Fatalf("one ulp off should pass the tolerance: %v", err)
	}
	if err := checkMPI(off, off, first); !isWrong(err) {
		t.Errorf("sync and overlap differing by one ulp: %v, want a CheckError", err)
	}
	if err := checkMPI(good, off, &mpiFirst{}); !isWrong(err) {
		t.Errorf("ranks disagreeing: %v, want a CheckError", err)
	}
}

func reply(rnm2 float64, cached bool) []byte {
	b, _ := json.Marshal(map[string]any{
		"state": "done", "rnm2": rnm2, "cached": cached,
		"stages": map[string]float64{"ingressSeconds": 1e-5, "totalSeconds": 1e-5},
	})
	return b
}

func TestCheckMGDReply(t *testing.T) {
	if _, err := checkMGDReply(200, reply(f77S, true), true); err != nil {
		t.Errorf("official reply rejected: %v", err)
	}
	if _, err := checkMGDReply(200, reply(f77S*(1+1e-9), true), true); !isWrong(err) {
		t.Errorf("perturbed norm: %v, want a CheckError", err)
	}
	if _, err := checkMGDReply(200, reply(1e-2, false), false); !isWrong(err) {
		t.Errorf("uncontracted cold norm: %v, want a CheckError", err)
	}
	for _, c := range []struct {
		status int
		body   string
	}{
		{500, `{"error":"boom"}`},
		{429, `{"error":"queue full"}`},
		{200, `not json`},
		{200, `{"state":"failed","error":"non-finite norm"}`},
		{200, `{"state":"done","rnm2":5.3e-05}`}, // no stages block
	} {
		_, err := checkMGDReply(c.status, []byte(c.body), true)
		if err == nil || isWrong(err) {
			t.Errorf("status %d body %s: %v, want a plain error", c.status, c.body, err)
		}
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	tl.record(nil)
	tl.record(checkPublished(refS*(1+1e-9), refS)) // perturbed norm
	attempted, failed, correct := tl.counts()
	if attempted != 2 || failed != 1 || correct {
		t.Errorf("after a wrong norm: attempted %d failed %d correct %v, want 2 1 false", attempted, failed, correct)
	}
	var t2 tally
	_, err := checkMGDReply(503, []byte("draining"), true)
	t2.record(err)
	attempted, failed, correct = t2.counts()
	if attempted != 1 || failed != 1 || !correct {
		t.Errorf("after a 503: attempted %d failed %d correct %v, want 1 1 true", attempted, failed, correct)
	}
}

// TestDaemonSolveNon200 drives the client path against a stand-in
// server: a non-200 answer is a failed operation, not a crash or a pass.
func TestDaemonSolveNon200(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"internal"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()
	d := &daemon{base: srv.URL, client: srv.Client()}
	var tl tally
	_, _, err := d.solve(hotRequest("sac"))
	tl.record(err)
	if attempted, failed, correct := tl.counts(); attempted != 1 || failed != 1 || !correct {
		t.Errorf("attempted %d failed %d correct %v, want 1 1 true (err %v)", attempted, failed, correct, err)
	}
}

func TestDaemonSolvePerturbed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(reply(f77S*(1+1e-8), true))
	}))
	defer srv.Close()
	d := &daemon{base: srv.URL, client: srv.Client()}
	_, _, err := d.solve(hotRequest("f77"))
	if !isWrong(err) {
		t.Errorf("perturbed norm from the server: %v, want a CheckError", err)
	}
}

func TestColdStream(t *testing.T) {
	c := newColdStream(42)
	seen := map[uint64]map[string]bool{}
	for i := 0; i < 30; i++ {
		req := c.next()
		if req.Seed == 0 || req.Seed == officialSeed || req.Seed >= 1<<46 {
			t.Fatalf("bad cold seed %d", req.Seed)
		}
		if seen[req.Seed] == nil {
			seen[req.Seed] = map[string]bool{}
		}
		if seen[req.Seed][req.Impl] {
			t.Fatalf("seed %d submitted twice to %s", req.Seed, req.Impl)
		}
		seen[req.Seed][req.Impl] = true
	}
	if len(seen) != 10 {
		t.Errorf("30 requests covered %d seeds, want 10", len(seen))
	}
	if again := newColdStream(42).next(); again != newColdStream(42).next() {
		t.Errorf("the stream is not a function of the seed")
	}

	// The third norm of a seed runs the cross-check.
	c = newColdStream(1)
	f := 1e-4
	var err error
	for i := 0; i < 3; i++ {
		req := c.next()
		norm := f
		if req.Impl == "c" {
			norm = math.Nextafter(f, 1)
		}
		if err = c.done(req, norm); err != nil && i < 2 {
			t.Fatalf("cross-check ran before all three norms arrived: %v", err)
		}
	}
	if !isWrong(err) {
		t.Errorf("f77 and c differing: %v, want a CheckError", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %g, want 4.6", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %g, want 0", got)
	}
	if xs[0] != 5 {
		t.Errorf("quantile sorted its input in place")
	}
}

func TestCollect(t *testing.T) {
	if _, err := collect(map[string]float64{"setup_s": 1}, endToEnd, false); err == nil {
		t.Errorf("missing end-to-end metrics accepted")
	}
	got, err := collect(map[string]float64{"mgd.hit_ms": 0.3}, perLayer, true)
	if err != nil || len(got) != len(perLayer) || got["mgd.hit_ms"].Value != 0.3 || got["nas.reset_ms"].Value != 0 {
		t.Errorf("per-layer fill: %v %v", got, err)
	}
	if _, err := collect(map[string]float64{"mgd.hit_ms": math.NaN()}, perLayer, true); err == nil {
		t.Errorf("NaN metric accepted")
	}
}

// TestMetricTables keeps the metric tables in step with BENCHMARK.json.
func TestMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, spec []struct{ Name, Unit string }) {
		if len(defs) != len(spec) {
			t.Errorf("%s: %d metrics in the code, %d in BENCHMARK.json", what, len(defs), len(spec))
			return
		}
		for i, d := range defs {
			if d.name != spec[i].Name || d.unit != spec[i].Unit {
				t.Errorf("%s %d: code has %s [%s], BENCHMARK.json %s [%s]", what, i, d.name, d.unit, spec[i].Name, spec[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
}

func TestDistortingEnvironment(t *testing.T) {
	for _, name := range distorting {
		t.Run(name, func(t *testing.T) {
			t.Setenv(name, "1")
			var out, errOut strings.Builder
			code := run([]string{"--workload", "npb-W", "--seconds", "1"}, &out, &errOut)
			if code == 0 || !strings.Contains(errOut.String(), name) || out.Len() != 0 {
				t.Errorf("exit %d, stderr %q, stdout %q: want a non-zero exit naming %s and no result",
					code, errOut.String(), out.String(), name)
			}
		})
	}
}
