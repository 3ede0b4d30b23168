package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/obs"
)

// handlerTimes records how long the daemon's handlers took, by route,
// for successful POST requests. It wraps the handler from outside, so
// the daemon itself is unchanged.
type handlerTimes struct {
	mu      sync.Mutex
	byRoute map[string][]float64
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			next.ServeHTTP(w, r)
			return
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(rec, r)
		d := time.Since(t0).Seconds()
		if rec.status/100 == 2 && rec.status != http.StatusNoContent {
			h.mu.Lock()
			h.byRoute[r.URL.Path] = append(h.byRoute[r.URL.Path], d)
			h.mu.Unlock()
		}
	})
}

func (h *handlerTimes) median(path string) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return median(h.byRoute[path])
}

// spanSink receives the obs JSONL span export: it keeps the start time
// of every daemon job span (for the queue wait) and copies each line
// to the trace file.
type spanSink struct {
	mu       sync.Mutex
	w        *bufio.Writer
	jobStart map[string]time.Time
}

func (s *spanSink) Write(p []byte) (int, error) {
	var sp struct {
		Name  string         `json:"name"`
		Start string         `json:"start"`
		Attrs map[string]any `json:"attrs"`
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if json.Unmarshal(p, &sp) == nil && sp.Name == "server/job" {
		if id, ok := sp.Attrs["id"].(string); ok {
			if t, err := time.Parse(time.RFC3339Nano, sp.Start); err == nil {
				s.jobStart[id] = t
			}
		}
	}
	return s.w.Write(p)
}

// coreStats are the build and training times of one pass.
type coreStats struct{ cold, warm, train []float64 }

// coreProbe builds every benchmark of the pass cold (after emptying
// the build cache), again warm, and trains it.
func coreProbe(ctx context.Context, names []string) (*coreStats, error) {
	st := &coreStats{}
	for _, name := range names {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		core.ResetBuildCache()
		var p *core.Program
		build := func(ctx context.Context) (err error) {
			p, err = core.BuildContext(ctx, b, core.DefaultConfig())
			return err
		}
		cold, err := timed(ctx, "core.Build", build)
		if err != nil {
			return nil, err
		}
		warm, err := timed(ctx, "core.Build", build)
		if err != nil {
			return nil, err
		}
		train, err := timed(ctx, "core.Program.Train", func(context.Context) error {
			return p.Train(trainSeeds(3), bench.ScaleFI)
		})
		if err != nil {
			return nil, err
		}
		st.cold = append(st.cold, cold)
		st.warm = append(st.warm, warm)
		st.train = append(st.train, train)
	}
	return st, nil
}

// svcStats is what one service pass measured.
type svcStats struct {
	outs                 []jobOut
	hits, misses         int
	warmVsCold, vsSingle []float64
	queueWait            []float64
}

// svcPass runs the job mix, one request at a time, through a fresh
// daemon and worker.
func svcPass(ctx context.Context, r *run, dir string, jobs []jobReq, o *obs.Obs, times *handlerTimes, sink *spanSink) (*svcStats, error) {
	g, err := startRig(dir, o, times)
	if err != nil {
		return nil, err
	}
	st := &svcStats{}
	for _, j := range jobs {
		_, _ = timed(ctx, "server."+j.role, func(context.Context) error {
			st.outs = append(st.outs, g.do(j))
			return nil
		})
	}
	g.close()
	checkMix(r, st.outs)
	checkServerMetrics(r, o)
	for _, out := range st.outs {
		r.attempted++
		if !out.ok() {
			r.failed++
			continue
		}
		switch out.req.role {
		case "cold", "warm":
			st.hits += int(num(out.result, "cache_hits"))
			st.misses += int(num(out.result, "cache_misses"))
			if out.req.role == "warm" {
				st.warmVsCold = append(st.warmVsCold, out.latency/st.outs[out.req.pair].latency)
			}
		case "distributed":
			st.vsSingle = append(st.vsSingle, out.latency/st.outs[out.req.pair].latency)
		}
		if sink != nil && out.req.role != "compile" {
			sink.mu.Lock()
			if t, ok := sink.jobStart[out.id]; ok {
				st.queueWait = append(st.queueWait, t.Sub(out.start).Seconds())
			}
			sink.mu.Unlock()
		}
	}
	return st, nil
}

// pass is one untraced or traced per-layer pass.
type pass struct {
	wall float64
	core *coreStats
	lib  *libStats
	svc  *svcStats
}

// runPass runs the core probe, the library pass and the service pass.
// o is the daemon's telemetry handle; with a sink the pass is traced,
// and o also reaches every library call through the context.
func runPass(r *run, name string, camps []*camp, jobs []jobReq, o *obs.Obs, times *handlerTimes, sink *spanSink) (*pass, error) {
	ctx := context.Background()
	if sink != nil {
		ctx = obs.Into(ctx, o)
	}
	ctx, sp := obs.Start(ctx, "perfbench/pass")
	defer sp.End()
	benches := map[string]bool{}
	var names []string
	for _, c := range camps {
		if !benches[c.p.Bench.Name] {
			benches[c.p.Bench.Name] = true
			names = append(names, c.p.Bench.Name)
		}
	}
	ps := &pass{}
	start := time.Now()
	var err error
	cctx, csp := obs.Start(ctx, "perfbench/core")
	ps.core, err = coreProbe(cctx, names)
	csp.End()
	if err != nil {
		return nil, err
	}
	lctx, lsp := obs.Start(ctx, "perfbench/library")
	ps.lib, err = libPass(lctx, r, camps)
	lsp.End()
	if err != nil {
		return nil, err
	}
	sctx, ssp := obs.Start(ctx, "perfbench/service")
	ps.svc, err = svcPass(sctx, r, filepath.Join(r.dir, name), jobs, o, times, sink)
	ssp.End()
	if err != nil {
		return nil, err
	}
	ps.wall = time.Since(start).Seconds()
	return ps, nil
}

// tracedRun measures the per-layer metrics: an untraced pass, the same
// pass with every layer's public calls under spans and the program's
// obs counters on, and the untraced pass again. trace_overhead is the
// traced wall time over the untraced mean; every other metric comes
// from the traced pass.
func tracedRun(r *run, inst instance) error {
	camps, jobs, err := inst.passSpecs()
	if err != nil {
		return err
	}
	plain, err := runPass(r, "pass-untraced", camps, jobs, &obs.Obs{Metrics: obs.NewMetrics()}, nil, nil)
	if err != nil {
		return err
	}

	traceDir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	tracePath := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	sink := &spanSink{w: bufio.NewWriter(f), jobStart: map[string]time.Time{}}
	o := obs.New()
	o.Tracer.SetWriter(sink)
	times := &handlerTimes{byRoute: map[string][]float64{}}
	for _, c := range camps {
		c.p.Observe(o)
	}
	traced, err := runPass(r, "pass-traced", camps, jobs, o, times, sink)
	for _, c := range camps {
		c.p.Observe(nil)
	}
	if err != nil {
		return err
	}
	// A second untraced pass after the traced one, so warm-up and drift
	// do not fall on one side of the overhead ratio.
	plain2, err := runPass(r, "pass-untraced-2", camps, jobs, &obs.Obs{Metrics: obs.NewMetrics()}, nil, nil)
	if err != nil {
		return err
	}
	if err := sink.w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	// Identity: tracing must not change a single result.
	for i := range traced.lib.results {
		for _, p := range []*pass{plain, plain2} {
			r.check(sameResult(traced.lib.results[i], p.lib.results[i]),
				"%s: traced result %v != untraced %v", camps[i], traced.lib.results[i].Counts, p.lib.results[i].Counts)
		}
	}
	if w, ok := inst.(*micro); ok {
		if err := checkResume(r, w.camps[len(w.camps)-1], traced.lib.ckResults[len(w.camps)-1]); err != nil {
			return err
		}
	}

	snap := o.M().Snapshot()
	lib, svc, cs := traced.lib, traced.svc, traced.core
	// Exact counts: a pure function of the seed, identical on every run.
	exact := map[string]float64{
		"machine.instrs":            snap["machine_instrs_total"],
		"machine.runs":              snap["machine_runs_total"],
		"machine.cycles":            snap["machine_cycles_total"],
		"machine.fault_free_cycles": float64(lib.ffCycles),
		"rtm.skip_rate":             ratio(float64(lib.rtmSkip), float64(lib.rtmObs)),
		"fault.fired_ratio":         ratio(float64(lib.fired), float64(lib.runs)),
		"fault.checkpoint_writes":   snap["fault_checkpoint_writes_total"],
		"fault.checkpoint_bytes":    float64(lib.ckBytes),
		"core.build_cache_hits":     snap["core_build_cache_hits_total"],
		"fabric.leases":             snap["fabric_leases_granted_total"],
		"result.cache_hits":         float64(svc.hits),
		"result.cache_misses":       float64(svc.misses),
	}
	units := map[string]string{"rtm.skip_rate": "ratio", "fault.fired_ratio": "ratio", "fault.checkpoint_bytes": "bytes"}
	names := make([]string, 0, len(exact))
	for k, v := range exact {
		unit := units[k]
		if unit == "" {
			unit = "count"
		}
		r.set(k, unit, v)
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, k := range names {
		fmt.Fprintf(&sb, " %s=%s", k, strconv.FormatFloat(exact[k], 'f', -1, 64))
	}
	note("exact counters:%s", sb.String())
	sb.Reset()
	for _, k := range lib.ffOrder {
		fmt.Fprintf(&sb, " %s=%.2f", k, lib.ffPer[k])
	}
	note("machine.ns_per_instr by benchmark/scheme:%s", sb.String())

	r.set("core.build_cold_s", "s", median(cs.cold))
	r.set("core.build_warm_s", "s", median(cs.warm))
	r.set("train.s", "s", median(cs.train))
	r.set("machine.ns_per_instr", "ns", lib.ffNs/lib.ffInstrs)
	r.set("fault.prepare_s", "s", median(lib.prepare))
	r.set("fault.replica_us", "us", median(lib.replicaUS))
	r.set("fault.injection_overhead", "ratio", lib.injNum/lib.injDen)
	r.set("fault.checkpoint_save_s", "s", median(lib.ckSave))
	r.set("fault.checkpoint_overhead", "ratio", lib.ckWall/lib.plainWall)
	r.set("result.analyze_cold_s", "s", lib.analyzeCold)
	r.set("result.analyze_warm_s", "s", lib.analyzeWarm)
	r.set("result.cache_hit_ratio", "ratio", ratio(float64(svc.hits), float64(svc.hits+svc.misses)))
	r.set("result.warm_vs_cold", "ratio", median(svc.warmVsCold))
	r.set("fabric.lease_s", "s", times.median("/v1/fabric/lease"))
	r.set("fabric.complete_s", "s", times.median("/v1/fabric/complete"))
	r.set("fabric.vs_single", "ratio", median(svc.vsSingle))
	r.set("server.submit_s", "s", times.median("/v1/campaigns"))
	r.set("server.queue_wait_s", "s", median(svc.queueWait))
	r.set("server.compile_s", "s", times.median("/v1/compile"))
	r.set("trace_overhead", "ratio", 2*traced.wall/(plain.wall+plain2.wall))
	note("passes: untraced %.3fs, traced %.3fs, untraced %.3fs; %d library campaigns, %d daemon requests; spans in %s",
		plain.wall, traced.wall, plain2.wall, len(camps), len(jobs), tracePath)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
