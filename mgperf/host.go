package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/perfstat"
)

// hostRef is the host reference every run records beside its metrics.
// These are not metrics of the program: they let a reader tell a host
// that got slower between two sets of runs from a program that did.
type hostRef struct {
	SpinSeconds float64 `json:"spin_s"`
	StealShare  float64 `json:"steal_share"`
	TriadGBs    float64 `json:"triad_gbs"`
	TriadMB     int     `json:"triad_array_mb"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Nproc       int     `json:"nproc"`
	Revision    string  `json:"git_revision"`
	TreeSHA256  string  `json:"tree_sha256"`
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Trace       int     `json:"trace"`
}

// triadLen is the length of each of the three triad arrays: 32 MiB of
// float64 each. The host reports a last-level cache far larger than the
// share two vCPUs get of it, so the figure is a drift reference, not a
// DRAM roof; the class-W grids (2.3 MB) are cache-resident anyway.
const triadLen = 4 << 20

// measureHost runs the spin and triad in a child process, so their
// arrays never count in this process's peak resident set, and adds the
// build facts.
func measureHost(root string) (hostRef, error) {
	var ref hostRef
	self, err := os.Executable()
	if err != nil {
		return ref, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, self, "-host-ref").Output()
	if err != nil {
		return ref, fmt.Errorf("host reference child: %w", err)
	}
	if err := json.Unmarshal(out, &ref); err != nil {
		return ref, fmt.Errorf("host reference child: %w", err)
	}
	ref.GoVersion = runtime.Version()
	ref.GOMAXPROCS = runtime.GOMAXPROCS(0)
	ref.Nproc = runtime.NumCPU()
	ref.Revision = gitRevision(root)
	ref.TreeSHA256, err = treeHash(root)
	return ref, err
}

// printHostRef is the child side of measureHost.
func printHostRef(w io.Writer) int {
	ref := hostRef{SpinSeconds: perfstat.Calibrate(), TriadGBs: triad(), TriadMB: triadLen * 8 >> 20}
	if err := json.NewEncoder(w).Encode(ref); err != nil {
		return 1
	}
	return 0
}

// triad returns the best of ten STREAM triad passes, a = b + s·c, in
// GB/s counting the three arrays once per pass.
func triad() float64 {
	a := make([]float64, triadLen)
	b := make([]float64, triadLen)
	c := make([]float64, triadLen)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := time.Duration(math.MaxInt64)
	for pass := 0; pass < 10; pass++ {
		start := time.Now()
		s := float64(pass) + 0.5
		for i := range a {
			a[i] = b[i] + s*c[i]
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if a[triadLen-1] != 1+9.5*2 {
		panic("triad: wrong result")
	}
	return 3 * 8 * triadLen / best.Seconds() / 1e9
}

// gitRevision is the commit of the checkout, or a note when the tree is
// not a git work tree.
func gitRevision(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown (not a git work tree)"
	}
	return strings.TrimSpace(string(out))
}

// treeHash digests go.mod and every .go and .s file of the program (not
// the benchmark's own files), in path order: the revision stand-in for
// a checkout without git metadata.
func treeHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "mgperf") {
				return filepath.SkipDir
			}
			return nil
		}
		if rel == "go.mod" || strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, ".s") {
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cpuTicks are the machine-wide CPU counters of /proc/stat.
type cpuTicks struct{ busy, steal int64 }

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]int64
	for i := range v {
		v[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stealShare is the share of the time this machine wanted to run but
// its hypervisor ran someone else, between two readings: the main cause
// of drift between runs on a shared virtual machine.
func stealShare(a, b cpuTicks) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy+steal <= 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}

// --- process accounting ----------------------------------------------------------

// selfCPU is the user+system CPU time of this process so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMB is this process's peak resident set in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// procCPU reads the user+system CPU time of another process from
// /proc/<pid>/stat, whose counters tick at USER_HZ = 100 on Linux.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name in field 2 may hold spaces; fields resume after
	// its closing parenthesis, with state as field 3.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}
