package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
)

// The references every result is checked against. They are written out
// here, not read from the program, so a change to the program's own
// constants or verification code cannot make a wrong answer pass.
const (
	// refS and refW are the published NPB 2.3 final residual norms of
	// classes S (32³, 4 iterations) and W (64³, 40 iterations).
	refS = 0.5307707005734e-4
	refW = 0.2503914064394e-17

	// npbRelTol is the relative tolerance against a published norm. The
	// NPB 2.3 rule, |rnm2 − ref| ≤ 1e-8, passes any class-W result below
	// 1e-8 and so checks nothing at rnm2 ≈ 2.5e-18.
	npbRelTol = 1e-10

	// sacFloorFactor bounds the SAC solver's class-W norm to
	// [refW/sacFloorFactor, refW·sacFloorFactor]. Its operator
	// association differs from the Fortran one, so after 40 V-cycles it
	// stops at the same floating-point floor but not on the same bits
	// (2.87e-18 against 2.50e-18).
	sacFloorFactor = 2.0

	// sacRelTol bounds |sac − f77| / f77 on a class-S cold seed. The
	// largest distance seen over 400 seeds was 1.6e-14.
	sacRelTol = 1e-12

	// contraction bounds the per-V-cycle residual reduction of a class-S
	// solve: rnm2 < sqrt(20/n³)·contraction^iters. The largest
	// geometric-mean factor seen over 400 seeds was 0.226.
	contraction = 0.3
)

// CheckError reports a result that came back but is wrong. It counts as
// a failed operation and also makes the run incorrect, unlike an error
// that kept the result from arriving at all.
type CheckError struct{ What string }

func (e *CheckError) Error() string { return "wrong result: " + e.What }

func wrong(format string, args ...any) error {
	return &CheckError{What: fmt.Sprintf(format, args...)}
}

// checkPublished accepts rnm2 within npbRelTol of the published ref.
func checkPublished(rnm2, ref float64) error {
	if !(math.Abs(rnm2-ref) <= npbRelTol*ref) {
		return wrong("rnm2 %.13e is not within %g of the published %.13e", rnm2, npbRelTol, ref)
	}
	return nil
}

// checkSACFloor accepts a SAC class-W norm on the published floor.
func checkSACFloor(rnm2 float64) error {
	if !(rnm2 >= refW/sacFloorFactor && rnm2 <= refW*sacFloorFactor) {
		return wrong("sac rnm2 %.13e is outside [%.4e, %.4e]", rnm2, refW/sacFloorFactor, refW*sacFloorFactor)
	}
	return nil
}

// checkNPBW checks one class-W solve of npb-W.
func checkNPBW(impl string, rnm2 float64) error {
	if impl == "sac" {
		return checkSACFloor(rnm2)
	}
	return checkPublished(rnm2, refW)
}

// checkContracted accepts a finite class-S norm below the initial
// residual sqrt(20/n³) times contraction per V-cycle. The initial
// residual is that of the zran3 charge, ten +1 and ten −1 points.
func checkContracted(rnm2 float64, n, iters int) error {
	r0 := math.Sqrt(20 / (float64(n) * float64(n) * float64(n)))
	limit := r0 * math.Pow(contraction, float64(iters))
	if !(rnm2 > 0 && rnm2 < limit) {
		return wrong("rnm2 %.6e is not in (0, %.6e) = sqrt(20/%d³)·%g^%d", rnm2, limit, n, contraction, iters)
	}
	return nil
}

// checkColdTriple cross-checks the three implementations on one cold
// seed: f77 and c bit for bit, sac within sacRelTol of them.
func checkColdTriple(seed uint64, sac, f77, c float64) error {
	if math.Float64bits(f77) != math.Float64bits(c) {
		return wrong("seed %d: f77 rnm2 %.17e and c rnm2 %.17e differ", seed, f77, c)
	}
	if !(math.Abs(sac-f77) <= sacRelTol*f77) {
		return wrong("seed %d: sac rnm2 %.17e is not within %g of f77 %.17e", seed, sac, sacRelTol, f77)
	}
	return nil
}

// checkMPI checks one 2-rank class-W solve: both ranks return the same
// bits, the norm matches the published value, and it is bitwise the
// norm of the run's first 2-rank solve, whichever exchange mode that
// used, so synchronous and overlapped solves must agree exactly.
func checkMPI(rank0, rank1 float64, first *mpiFirst) error {
	if math.Float64bits(rank0) != math.Float64bits(rank1) {
		return wrong("rank 0 rnm2 %.17e and rank 1 rnm2 %.17e differ", rank0, rank1)
	}
	if err := checkPublished(rank0, refW); err != nil {
		return err
	}
	return first.same(rank0)
}

// mpiFirst remembers the bits of the first 2-rank norm of a run.
type mpiFirst struct {
	set  bool
	bits uint64
}

func (f *mpiFirst) same(rnm2 float64) error {
	b := math.Float64bits(rnm2)
	if !f.set {
		f.set, f.bits = true, b
		return nil
	}
	if b != f.bits {
		return wrong("rnm2 %.17e differs from the run's first 2-rank solve %.17e", rnm2, math.Float64frombits(f.bits))
	}
	return nil
}

// mgdReply is the part of an mgd solve response the benchmark reads.
type mgdReply struct {
	State     string  `json:"state"`
	Rnm2      float64 `json:"rnm2"`
	Error     string  `json:"error"`
	Cached    bool    `json:"cached"`
	MemAllocs uint64  `json:"memAllocs"`
	MemReuses uint64  `json:"memReuses"`
	Stages    *struct {
		Ingress float64 `json:"ingressSeconds"`
		Queue   float64 `json:"queueSeconds"`
		Solve   float64 `json:"solveSeconds"`
		Respond float64 `json:"respondSeconds"`
		Total   float64 `json:"totalSeconds"`
	} `json:"stages"`
}

// checkMGDReply checks one class-S solve response from mgd. An official
// (hot) request must match the published class-S norm; a cold seed must
// have contracted. A non-200 status or an undecodable or unfinished
// body is a failed operation but not a wrong result.
func checkMGDReply(status int, body []byte, official bool) (mgdReply, error) {
	var r mgdReply
	if status != 200 {
		return r, fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("undecodable response: %v", err)
	}
	if r.State != "done" {
		return r, fmt.Errorf("job state %q: %s", r.State, r.Error)
	}
	if r.Stages == nil {
		return r, fmt.Errorf("response has no stages block")
	}
	if official {
		return r, checkPublished(r.Rnm2, refS)
	}
	return r, checkContracted(r.Rnm2, 32, 4)
}

// tally counts the operations of a run. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	wrong     int
	errs      []string
}

// record counts one operation that ended with err (nil on success).
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	var ce *CheckError
	if errors.As(err, &ce) {
		t.wrong++
	}
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

// counts returns attempted, failed and whether no result was wrong.
func (t *tally) counts() (attempted, failed int, correct bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed, t.wrong == 0
}
