// Command perfbench is the repository's campaign benchmark. It drives
// the public entry points of every layer — core (build and cache),
// train, machine, fault, result, fabric and the rskipd server — on one
// of three workloads, checks that every output is correct, and prints
// one JSON object as its last line of output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end numbers a user sees;
// with --trace 1 they are the per-layer numbers of a separate traced
// pass. Run it through run.sh from the repository root; README.md in
// this directory explains the workloads and the metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"rskip/internal/core"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow repetition does not move it.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line of output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one invocation shared by every workload.
type run struct {
	workload string
	seed     int64
	seconds  float64
	// dir is a scratch directory inside the checkout, removed at exit.
	dir string

	fails             []string
	attempted, failed int
	metrics           map[string]metric
}

// check records a failed output check; the run then exits non-zero.
func (r *run) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
	return ok
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// note prints one human-readable line; the JSON result stays last.
func note(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

// instance is a set-up workload, ready to measure.
type instance interface {
	// measure runs the closed loop for r.seconds and returns what it
	// completed.
	measure(r *run) (loop, error)
	// checkOutputs runs the seed-independent output checks that need
	// more than the loop's own results; it runs outside the timed window.
	checkOutputs(r *run) error
	// passSpecs returns the library campaigns and daemon job mix the
	// per-layer pass runs.
	passSpecs() ([]*camp, []jobReq, error)
	close()
}

// workloads are the benchmark's traffic mixes; README.md says why each
// was chosen.
var workloads = []struct {
	name  string
	setup func(r *run) (instance, error)
}{
	{"table1-sampled", setupTable1},
	{"micro-exhaustive", setupMicro},
	{"daemon-mixed", setupDaemon},
}

// loop is what a timed window completed.
type loop struct {
	wall      float64   // seconds
	cycles    []float64 // seconds per cycle (of the first client)
	runs      int       // injected runs executed
	latencies []float64 // seconds per job (campaign)
}

func main() {
	code, err := mainErr()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func mainErr() (int, error) {
	name := flag.String("workload", "", "workload to run: table1-sampled, micro-exhaustive or daemon-mixed")
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end loop")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the timed window (or traced pass) to this file")
	flag.Parse()

	var setup func(r *run) (instance, error)
	for _, w := range workloads {
		if w.name == *name {
			setup = w.setup
		}
	}
	if setup == nil {
		return 2, fmt.Errorf("unknown --workload %q", *name)
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return 2, err
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(dir)
	abs, err := filepath.Abs(dir)
	if err != nil {
		return 2, err
	}
	r := &run{workload: *name, seed: *seed, seconds: *seconds, dir: abs, metrics: map[string]metric{}}
	printEnv(r, *trace == 1)

	var setups []float64
	var inst instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		core.ResetBuildCache()
		t0 := time.Now()
		if inst, err = setup(r); err != nil {
			return 1, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return 2, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return 2, err
		}
	}
	if *trace == 1 {
		err := tracedRun(r, inst)
		pprof.StopCPUProfile()
		if err != nil {
			return 1, err
		}
	} else {
		lp, err := inst.measure(r)
		pprof.StopCPUProfile()
		if err != nil {
			return 1, err
		}
		sort.Float64s(lp.latencies)
		r.set("setup_s", "s", median(setups))
		r.set("runs_per_s", "1/s", float64(lp.runs)/lp.wall)
		r.set("job_p50_s", "s", quantile(lp.latencies, 0.5))
		r.set("job_p90_s", "s", quantile(lp.latencies, 0.9))
		r.set("jobs_per_s", "1/s", float64(len(lp.latencies))/lp.wall)
		// The peak resident set swings by half its median from run to
		// run (see README.md), too far for a bound, so it is printed
		// here rather than gated.
		note("mem_peak_mb %.1f MB (peak resident set after the window)", memPeakMB())
		note("window %.2fs: %d jobs (latency samples), %d injected runs; cycles %v; setup reps %v",
			lp.wall, len(lp.latencies), lp.runs, roundAll(lp.cycles), roundAll(setups))
		if n := len(lp.latencies); n < 100 {
			note("job_p90_s rests on %d samples (fewer than 10 beyond the 90th percentile)", n)
		}
	}
	if err := inst.checkOutputs(r); err != nil {
		return 1, err
	}
	if r.check(r.attempted > 0, "no operation was attempted") {
		note("error_rate %.4f (%d failed of %d attempted)", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	}
	for _, f := range r.fails {
		note("CHECK FAILED: %s", f)
	}
	out := output{Correct: len(r.fails) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1, fmt.Errorf("%d output check(s) failed, %d operation(s) failed", len(r.fails), r.failed)
	}
	return 0, nil
}

// printEnv prints the environment record that makes two result sets
// comparable.
func printEnv(r *run, traced bool) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	env := map[string]any{
		"workload":      r.workload,
		"seed":          r.seed,
		"seconds":       r.seconds,
		"trace":         traced,
		"commit":        commit,
		"source_sha256": sourceDigest(),
		"go":            runtime.Version(),
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		// fault.Config{Workers: 0} and fabric shard runners resolve to
		// GOMAXPROCS; the daemon runs its default two job workers.
		"campaign_workers": runtime.GOMAXPROCS(0),
		"daemon_clients":   daemonClients(),
		"fabric_poll":      workerPoll.String(),
	}
	b, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(b))
}

// sourceDigest fingerprints the Go sources of the tree the benchmark
// runs in (the working directory), so result sets from checkouts
// without git metadata stay comparable.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// memPeakMB is the process's peak resident set size (VmHWM).
func memPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1e4) / 1e4
	}
	return out
}

// cycles runs body once per cycle until the window is spent: it stops
// at the cycle boundary nearest to the deadline, so every workload
// measures whole cycles of its mix. It returns the window's wall time
// and each cycle's.
func cycles(seconds float64, body func(cycle int) error) (float64, []float64, error) {
	start := time.Now()
	var walls []float64
	for c := 0; ; c++ {
		t0 := time.Now()
		if err := body(c); err != nil {
			return 0, nil, err
		}
		last := time.Since(t0).Seconds()
		walls = append(walls, last)
		if time.Since(start).Seconds()+last/2 >= seconds {
			return time.Since(start).Seconds(), walls, nil
		}
	}
}

// drain discards and closes an HTTP body.
func drain(rc io.ReadCloser) {
	_, _ = io.Copy(io.Discard, rc)
	rc.Close()
}
