package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fault"
	"rskip/internal/machine"
	"rskip/internal/obs"
	"rskip/internal/result"
)

// camp is one library campaign: a built and trained program, a
// scheme, an input instance and the fault configuration.
type camp struct {
	p    *core.Program
	s    core.Scheme
	inst bench.Instance
	cfg  fault.Config
}

func (c *camp) String() string { return c.p.Bench.Name + "/" + c.s.String() }

// campResult is one campaign result of a timed window.
type campResult struct {
	c   *camp
	res fault.Result
}

// sameResult compares two results of one campaign. Exhaustive is a
// property of the fault.Campaign entry point, not of the records, so
// the executor path leaves it unset.
func sameResult(a, b fault.Result) bool {
	a.Exhaustive, b.Exhaustive = false, false
	return reflect.DeepEqual(a, b)
}

// trainSeeds are the training inputs of every library program: the
// rskipfi default of three.
func trainSeeds(n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = bench.TrainSeed(i)
	}
	return seeds
}

// buildTrained builds b under the default configuration (so the
// default engine) and trains it.
func buildTrained(ctx context.Context, b bench.Benchmark, cfg core.Config, train int) (*core.Program, error) {
	p, err := core.BuildContext(ctx, b, cfg)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", b.Name, err)
	}
	if err := p.Train(trainSeeds(train), bench.ScaleFI); err != nil {
		return nil, fmt.Errorf("train %s: %w", b.Name, err)
	}
	return p, nil
}

// instSeed derives a benchmark input seed from the workload seed.
func instSeed(seed int64, i int) int64 {
	return bench.TestSeed(0) + int64(uint64(seed*1000003+int64(i)*7919)%100000)
}

// checkFaultFree checks that every scheme's fault-free output of p is
// bitwise equal to the unprotected one.
func checkFaultFree(r *run, p *core.Program, inst bench.Instance) {
	golden, _, err := p.Golden(inst)
	if !r.check(err == nil, "%s: fault-free UNSAFE run failed: %v", p.Bench.Name, err) {
		return
	}
	for _, s := range []core.Scheme{core.SWIFT, core.SWIFTR, core.RSkip, core.SWIFTRHard} {
		o := p.Run(s, inst, core.RunOpts{})
		r.check(o.Err == nil && reflect.DeepEqual(o.Output, golden),
			"%s: fault-free %s output differs from UNSAFE (err %v)", p.Bench.Name, s, o.Err)
	}
}

// checkCounts checks that a campaign's class counts sum to its run
// count and that every requested run completed.
func checkCounts(r *run, what string, res fault.Result) {
	sum := 0
	for _, n := range res.Counts {
		sum += n
	}
	r.check(sum == res.N && res.N == res.Requested && res.N > 0,
		"%s: counts sum to %d, N %d, requested %d", what, sum, res.N, res.Requested)
}

// checkReference runs a small campaign on every program under the
// default engine and under the reference interpreter and requires
// identical results. A low hang factor keeps the slow reference runs
// short; both sides use it.
func checkReference(r *run, camps []*camp, seed int64) error {
	refs := map[string]*core.Program{}
	for i, c := range camps {
		ref := refs[c.p.Bench.Name]
		if ref == nil {
			cfg := c.p.Cfg
			cfg.Backend = machine.BackendReference
			var err error
			if ref, err = buildTrained(context.Background(), c.p.Bench, cfg, 3); err != nil {
				return err
			}
			refs[c.p.Bench.Name] = ref
		}
		cfg := fault.Config{N: 4, Seed: seed + int64(i), HangFactor: 5, Mix: c.cfg.Mix, SkipWidth: c.cfg.SkipWidth}
		def, err := fault.Campaign(context.Background(), c.p, c.s, c.inst, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
		got, err := fault.Campaign(context.Background(), ref, c.s, c.inst, cfg)
		if err != nil {
			return fmt.Errorf("%s (reference): %w", c, err)
		}
		r.check(reflect.DeepEqual(def, got), "%s: default engine %+v != reference %+v", c, def.Counts, got.Counts)
	}
	return nil
}

// libStats is what one library pass measured.
type libStats struct {
	ffNs, ffInstrs  float64            // fault-free runs: host ns, simulated instrs
	ffPer           map[string]float64 // ns per instruction by campaign
	ffOrder         []string
	ffCycles        uint64
	rtmObs, rtmSkip int // fault-free RSkip loop elements observed / skipped

	prepare   []float64 // NewExecutor seconds
	replicaUS []float64 // RunRange wall per run, microseconds
	// injection overhead: campaign wall × workers over N × fault-free wall
	injNum, injDen float64
	fired, runs    int

	ckSave    []float64 // Checkpoint.Save seconds
	ckBytes   int64
	ckWall    float64 // checkpointed fault.Campaign wall
	plainWall float64 // prepare + RunRange wall of the same campaigns
	results   []fault.Result
	ckResults []fault.Result

	// result.Analyze of the first campaign, on an empty cache and again
	// on the warm one.
	analyzeCold, analyzeWarm float64
}

// timed runs f under a span of the benchmark's own (a no-op when ctx
// carries no tracer) and returns its wall time in seconds.
func timed(ctx context.Context, name string, f func(ctx context.Context) error) (float64, error) {
	ctx, sp := obs.Start(ctx, "perfbench/"+name)
	defer sp.End()
	t0 := time.Now()
	err := f(ctx)
	return time.Since(t0).Seconds(), err
}

// libPass runs every campaign once through the executor path
// (NewExecutor, RunRange, Aggregate) and once through a checkpointed
// fault.Campaign, timing each public call.
func libPass(ctx context.Context, r *run, camps []*camp) (*libStats, error) {
	st := &libStats{ffPer: map[string]float64{}}
	workers := runtime.GOMAXPROCS(0)
	seenRTM := map[*core.Program]bool{}
	for i, c := range camps {
		// Fault-free runs: ns per simulated instruction on the default
		// engine, and the run wall the injection overhead divides by.
		// The fastest of five is the least disturbed.
		var o core.Outcome
		ffWall := math.Inf(1)
		for k := 0; k < 5; k++ {
			d, _ := timed(ctx, "core.Program.Run", func(context.Context) error {
				o = c.p.Run(c.s, c.inst, core.RunOpts{})
				return nil
			})
			ffWall = math.Min(ffWall, d)
		}
		if o.Err != nil {
			return nil, fmt.Errorf("%s: fault-free run: %w", c, o.Err)
		}
		st.ffNs += ffWall * 1e9
		st.ffInstrs += float64(o.Result.Instrs)
		st.ffPer[c.String()] = ffWall * 1e9 / float64(o.Result.Instrs)
		st.ffOrder = append(st.ffOrder, c.String())
		st.ffCycles += o.Result.Cycles
		if !seenRTM[c.p] {
			seenRTM[c.p] = true
			ro := c.p.Run(core.RSkip, c.inst, core.RunOpts{})
			for _, ls := range ro.Stats {
				st.rtmObs += ls.Observed
				st.rtmSkip += ls.SkippedDI + ls.SkippedAM
			}
		}

		cfg := c.cfg
		cfg.CheckpointPath = ""
		var x *fault.Executor
		prep, err := timed(ctx, "fault.NewExecutor", func(ctx context.Context) (err error) {
			x, err = fault.NewExecutor(ctx, c.p, c.s, c.inst, cfg)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		rng, err := timed(ctx, "fault.Executor.RunRange", func(ctx context.Context) error {
			return x.RunRange(ctx, 0, x.N())
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		recs, err := x.Records(0, x.N())
		if err != nil {
			return nil, err
		}
		res, err := x.Aggregate(recs)
		if err != nil {
			return nil, err
		}
		st.prepare = append(st.prepare, prep)
		st.replicaUS = append(st.replicaUS, rng/float64(x.N())*1e6)
		st.injNum += (prep + rng) * float64(workers)
		st.injDen += float64(x.N()) * ffWall
		st.plainWall += prep + rng
		st.fired += res.Fired
		st.runs += res.N
		st.results = append(st.results, res)

		cfg.CheckpointPath = filepath.Join(r.dir, fmt.Sprintf("pass-%d.ck.json", i))
		os.Remove(cfg.CheckpointPath)
		var ckRes fault.Result
		d, err := timed(ctx, "fault.Campaign", func(ctx context.Context) (err error) {
			ckRes, err = fault.Campaign(ctx, c.p, c.s, c.inst, cfg)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s (checkpointed): %w", c, err)
		}
		st.ckWall += d
		st.ckResults = append(st.ckResults, ckRes)
		r.check(sameResult(res, ckRes), "%s: executor path %+v != checkpointed campaign %+v", c, res.Counts, ckRes.Counts)
		if fi, err := os.Stat(cfg.CheckpointPath); err == nil {
			st.ckBytes += fi.Size()
		}
		ck, err := fault.LoadCheckpoint(cfg.CheckpointPath)
		if err != nil || ck == nil {
			return nil, fmt.Errorf("%s: reading back checkpoint: %v", c, err)
		}
		resave := cfg.CheckpointPath + ".resave"
		for k := 0; k < 3; k++ {
			d, err := timed(ctx, "fault.Checkpoint.Save", func(context.Context) error { return ck.Save(resave) })
			if err != nil {
				return nil, err
			}
			st.ckSave = append(st.ckSave, d)
		}
		os.Remove(resave)
		os.Remove(cfg.CheckpointPath)
	}
	if err := analyzeTwice(ctx, r, camps[0], st); err != nil {
		return nil, err
	}
	return st, nil
}

// analyzeTwice runs the compositional analysis of c on a fresh result
// cache and again warm; the warm run must hit every region and
// reproduce the cold figures.
func analyzeTwice(ctx context.Context, r *run, c *camp, st *libStats) error {
	dir, err := os.MkdirTemp(r.dir, "results-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := result.Open(dir)
	if err != nil {
		return err
	}
	n := c.cfg.N
	if n == 0 || n > 200 {
		n = 200
	}
	opts := result.Options{Cache: cache, PerRegionN: n, Seed: c.cfg.Seed, InstKey: "perfbench", Mix: c.cfg.Mix}
	var cold, warm *result.Report
	st.analyzeCold, err = timed(ctx, "result.Analyze", func(ctx context.Context) (err error) {
		cold, err = result.Analyze(ctx, c.p, c.s, c.inst, opts)
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: analyze: %w", c, err)
	}
	st.analyzeWarm, err = timed(ctx, "result.Analyze", func(ctx context.Context) (err error) {
		warm, err = result.Analyze(ctx, c.p, c.s, c.inst, opts)
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: warm analyze: %w", c, err)
	}
	r.check(warm.CacheMisses == 0 && warm.CacheHits == len(cold.Regions) &&
		reflect.DeepEqual(warm.Composed, cold.Composed) && warm.Protection == cold.Protection,
		"%s: warm analysis (hits %d, misses %d of %d regions) differs from cold", c, warm.CacheHits, warm.CacheMisses, len(cold.Regions))
	return nil
}

// checkResume interrupts a checkpointed campaign after its first
// batches, resumes it from the checkpoint, and requires the resumed
// result to equal the uninterrupted one.
func checkResume(r *run, c *camp, want fault.Result) error {
	cfg := c.cfg
	cfg.CheckpointPath = filepath.Join(r.dir, "resume.ck.json")
	os.Remove(cfg.CheckpointPath)
	defer os.Remove(cfg.CheckpointPath)
	ctx, cancel := context.WithCancel(context.Background())
	cfg.OnProgress = func(p fault.Progress) {
		if p.Done*2 >= p.N {
			cancel()
		}
	}
	part, err := fault.Campaign(ctx, c.p, c.s, c.inst, cfg)
	cancel()
	if err == nil || part.N >= want.N {
		r.check(false, "%s: campaign was not interrupted mid-run (%d of %d runs, err %v)", c, part.N, want.N, err)
		return nil
	}
	cfg.OnProgress = nil
	got, err := fault.Campaign(context.Background(), c.p, c.s, c.inst, cfg)
	if err != nil {
		return fmt.Errorf("%s: resume: %w", c, err)
	}
	r.check(reflect.DeepEqual(got, want), "%s: resumed campaign %+v != uninterrupted %+v", c, got.Counts, want.Counts)
	note("resume check: %s interrupted after %d of %d runs, resumed to an identical result", c, part.N, want.N)
	return nil
}
