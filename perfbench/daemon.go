package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fault"
	"rskip/internal/obs"
	"rskip/internal/server"
)

// workerPoll is the fabric worker's idle re-poll interval: short
// enough that waiting for the next lease stays a small part of a
// distributed job's latency.
const workerPoll = 20 * time.Millisecond

// daemonClients is the number of closed-loop clients: one per CPU.
func daemonClients() int { return runtime.NumCPU() }

// jobReq is one request of a daemon mix: a campaign submission
// (POST /v1/campaigns) or, with role "compile", a POST /v1/compile.
type jobReq struct {
	Bench        string `json:"bench"`
	Scheme       string `json:"scheme,omitempty"`
	N            int    `json:"n,omitempty"`
	Seed         int64  `json:"seed,omitempty"`
	FaultModel   string `json:"fault_model,omitempty"`
	Exhaustive   bool   `json:"exhaustive,omitempty"`
	Incremental  bool   `json:"incremental,omitempty"`
	Distributed  bool   `json:"distributed,omitempty"`
	ShardSize    int    `json:"shard_size,omitempty"`
	LocalWorkers int    `json:"local_workers,omitempty"`

	// role is "sampled", "distributed", "cold", "warm" or "compile";
	// pair is the index, within the same mix, of a distributed job's
	// single-node twin or a warm job's cold run.
	role string
	pair int
}

// jobOut is what the client saw of one request.
type jobOut struct {
	req     jobReq
	id      string
	start   time.Time // before the submit request was sent
	latency float64   // seconds to the terminal stream event (compile: to the response)
	status  int       // submit (or compile) HTTP status
	state   string
	result  map[string]any
	cached  bool // compile only
	err     error
}

func schemeSlug(s core.Scheme) string {
	switch s {
	case core.SWIFT:
		return "swift"
	case core.SWIFTR:
		return "swiftr"
	case core.RSkip:
		return "rskip"
	case core.SWIFTRHard:
		return "swiftrhard"
	}
	return "unsafe"
}

// daemonMix is one client cycle of the daemon-mixed workload. Plan
// seeds come from rng, so every cycle submits new campaigns; the warm
// incremental job and the distributed twin repeat a spec on purpose.
func daemonMix(rng *rand.Rand) []jobReq {
	s1, s2, s3, s4 := rng.Int63n(1<<40)+1, rng.Int63n(1<<40)+1, rng.Int63n(1<<40)+1, rng.Int63n(1<<40)+1
	kde := jobReq{Bench: "kde", Scheme: "swiftr", N: 200, Seed: s1, role: "sampled", pair: -1}
	dist := kde
	dist.Distributed, dist.LocalWorkers, dist.ShardSize = true, -1, 50
	dist.role, dist.pair = "distributed", 0
	cold := jobReq{Bench: "lud", Scheme: "swiftr", N: 100, Seed: s3, Incremental: true, role: "cold", pair: -1}
	warm := cold
	warm.role, warm.pair = "warm", 3
	return []jobReq{
		kde,
		dist,
		{Bench: "sgemm", Scheme: "rskip", N: 100, Seed: s2, role: "sampled", pair: -1},
		cold,
		warm,
		{Bench: "kde", role: "compile", pair: -1},
		{Bench: "backprop", Scheme: "unsafe", N: 100, Seed: s4, role: "sampled", pair: -1},
	}
}

// serviceMix sends library campaigns through the daemon: each as a
// sampled (or exhaustive) job, its distributed twin, and a cold then
// warm incremental job, plus a compile of its benchmark.
func serviceMix(camps []*camp) []jobReq {
	var mix []jobReq
	for _, c := range camps {
		j := jobReq{Bench: c.p.Bench.Name, Scheme: schemeSlug(c.s), N: c.cfg.N, Seed: c.cfg.Seed,
			Exhaustive: c.cfg.Exhaustive, role: "sampled", pair: -1}
		if j.Seed == 0 {
			j.Seed = 1
		}
		if c.cfg.Mix.Skip > 0 {
			j.FaultModel = "skip"
		}
		base := len(mix)
		dist := j
		dist.Distributed, dist.LocalWorkers, dist.role, dist.pair = true, -1, "distributed", base
		if j.N > 0 {
			dist.ShardSize = (j.N + 3) / 4
		}
		cold := j
		cold.Exhaustive, cold.Incremental, cold.role = false, true, "cold"
		if cold.N == 0 || cold.N > 200 {
			cold.N = 200
		}
		warm := cold
		warm.role, warm.pair = "warm", base+2
		mix = append(mix, j, dist, cold, warm, jobReq{Bench: j.Bench, role: "compile", pair: -1})
	}
	return mix
}

// rig is an in-process rskipd behind a loopback listener, with one
// fabric worker joined to it over HTTP.
type rig struct {
	srv        *server.Server
	ts         *httptest.Server
	o          *obs.Obs
	times      *handlerTimes
	stopWorker context.CancelFunc
	workerDone chan error
	hc         *http.Client
}

// startRig starts a daemon with its checkpoint, result-cache and
// advice directories under dir. o is its telemetry handle; times, when
// set, records handler times.
func startRig(dir string, o *obs.Obs, times *handlerTimes) (*rig, error) {
	srv, err := server.New(server.Config{
		CheckpointDir:  filepath.Join(dir, "jobs"),
		ResultCacheDir: filepath.Join(dir, "results"),
		AdviceDir:      filepath.Join(dir, "advice"),
		Obs:            o,
	})
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if times != nil {
		h = times.wrap(h)
	}
	g := &rig{srv: srv, ts: httptest.NewServer(h), o: o, times: times, workerDone: make(chan error, 1),
		hc: &http.Client{Timeout: 2 * time.Minute}}
	wk, err := server.NewWorker(server.WorkerConfig{
		Join: g.ts.URL, Name: "perfbench-worker", Poll: workerPoll, Obs: o,
		Log: func(string, ...any) {},
	})
	if err != nil {
		g.ts.Close()
		return nil, err
	}
	var ctx context.Context
	ctx, g.stopWorker = context.WithCancel(context.Background())
	go func() { g.workerDone <- wk.Run(ctx) }()
	return g, nil
}

func (g *rig) close() {
	g.stopWorker()
	<-g.workerDone
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = g.srv.Drain(ctx)
	g.ts.Close()
}

func (g *rig) post(path string, body any, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := g.hc.Post(g.ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	defer drain(resp.Body)
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// do sends one request of the mix and, for a campaign, follows its
// stream to the terminal event.
func (g *rig) do(req jobReq) jobOut {
	out := jobOut{req: req, start: time.Now()}
	if req.role == "compile" {
		var resp struct {
			Cached bool `json:"cached"`
		}
		out.status, out.err = g.post("/v1/compile", map[string]string{"bench": req.Bench}, &resp)
		out.latency = time.Since(out.start).Seconds()
		out.cached = resp.Cached
		return out
	}
	var sub struct {
		ID        string `json:"id"`
		StreamURL string `json:"stream_url"`
	}
	if out.status, out.err = g.post("/v1/campaigns", req, &sub); out.err != nil || out.status != http.StatusAccepted {
		return out
	}
	out.id = sub.ID
	resp, err := g.hc.Get(g.ts.URL + sub.StreamURL)
	if err != nil {
		out.err = err
		return out
	}
	defer drain(resp.Body)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			State  string         `json:"state"`
			Result map[string]any `json:"result"`
			Error  string         `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			out.err = err
			return out
		}
		out.state = ev.State
		switch ev.State {
		case "done", "failed", "cancelled":
			out.latency = time.Since(out.start).Seconds()
			out.result = ev.Result
			if ev.Error != "" {
				out.err = fmt.Errorf("job %s %s: %s", out.id, ev.State, ev.Error)
			}
			return out
		}
	}
	out.err = fmt.Errorf("job %s: stream ended in state %q: %v", out.id, out.state, sc.Err())
	return out
}

// ok reports whether the request succeeded end to end.
func (o *jobOut) ok() bool {
	if o.req.role == "compile" {
		return o.err == nil && o.status == http.StatusOK
	}
	return o.err == nil && o.status == http.StatusAccepted && o.state == "done"
}

func num(m map[string]any, key string) float64 {
	v, _ := m[key].(float64)
	return v
}

// executedRuns is the number of injected runs a job executed: a warm
// incremental region is served from the result cache and runs nothing.
func (o *jobOut) executedRuns() int {
	n := num(o.result, "n")
	if o.req.Incremental {
		if regions := num(o.result, "regions"); regions > 0 {
			return int(n * num(o.result, "cache_misses") / regions)
		}
	}
	return int(n)
}

// without returns a copy of a result without the named keys. A warm
// incremental job must reproduce the cold figures without the cache
// traffic; a distributed job reproduces its twin's figures, but the
// fabric merge does not carry the exhaustive flag.
func without(m map[string]any, keys ...string) map[string]any {
	out := map[string]any{}
	for k, v := range m {
		out[k] = v
	}
	for _, k := range keys {
		delete(out, k)
	}
	return out
}

// checkMix checks one completed mix: every request succeeded, every
// distributed job equals its single-node twin, and every warm
// incremental job hit the cache everywhere and reproduced the cold
// figures.
func checkMix(r *run, outs []jobOut) {
	for _, o := range outs {
		if !r.check(o.ok(), "%s %s/%s: status %d, state %q, err %v", o.req.role, o.req.Bench, o.req.Scheme, o.status, o.state, o.err) {
			continue
		}
		switch o.req.role {
		case "distributed":
			twin := outs[o.req.pair]
			r.check(twin.ok() && reflect.DeepEqual(without(o.result, "exhaustive"), without(twin.result, "exhaustive")),
				"distributed %s/%s seed %d: %v != single-node %v", o.req.Bench, o.req.Scheme, o.req.Seed, o.result, twin.result)
		case "warm":
			cold := outs[o.req.pair]
			regions := num(cold.result, "regions")
			r.check(cold.ok() && regions > 0 && num(o.result, "cache_misses") == 0 && num(o.result, "cache_hits") == regions,
				"warm incremental %s seed %d: hits %v misses %v of %v regions", o.req.Bench, o.req.Seed,
				o.result["cache_hits"], o.result["cache_misses"], regions)
			r.check(reflect.DeepEqual(without(o.result, "cache_hits", "cache_misses"), without(cold.result, "cache_hits", "cache_misses")),
				"warm incremental %s seed %d: figures %v != cold %v", o.req.Bench, o.req.Seed, o.result, cold.result)
		case "compile":
			r.check(o.cached, "compile %s: not served from the build cache", o.req.Bench)
		}
	}
}

// libraryTwin builds the library campaign a daemon job runs: the
// default configuration, two training inputs for RSkip and the first
// test input, exactly as rskipd does.
func libraryTwin(req jobReq) (*camp, error) {
	b, err := bench.ByName(req.Bench)
	if err != nil {
		return nil, err
	}
	var s core.Scheme
	for _, cand := range []core.Scheme{core.Unsafe, core.SWIFT, core.SWIFTR, core.RSkip, core.SWIFTRHard} {
		if schemeSlug(cand) == req.Scheme {
			s = cand
		}
	}
	p, err := core.Build(b, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if s == core.RSkip {
		if err := p.Train(trainSeeds(2), bench.ScaleFI); err != nil {
			return nil, err
		}
	}
	mix, err := fault.ModelMix(req.FaultModel)
	if err != nil {
		return nil, err
	}
	return &camp{p: p, s: s, inst: b.Gen(bench.TestSeed(0), bench.ScaleFI),
		cfg: fault.Config{N: req.N, Seed: req.Seed, Mix: mix, Exhaustive: req.Exhaustive}}, nil
}

// checkLibraryTwin requires a sampled job's figures to equal the
// library fault.Campaign on the same spec.
func checkLibraryTwin(r *run, o jobOut) error {
	c, err := libraryTwin(o.req)
	if err != nil {
		return err
	}
	res, err := fault.Campaign(context.Background(), c.p, c.s, c.inst, c.cfg)
	if err != nil {
		return fmt.Errorf("library twin of %s/%s: %w", o.req.Bench, o.req.Scheme, err)
	}
	counts, _ := o.result["counts"].(map[string]any)
	same := num(o.result, "n") == float64(res.N) && num(o.result, "fired") == float64(res.Fired) &&
		num(o.result, "false_neg") == float64(res.FalseNeg) && num(o.result, "recovered") == float64(res.Recovered)
	for cl := fault.Correct; cl < fault.NumClasses; cl++ {
		same = same && num(counts, cl.String()) == float64(res.Counts[cl])
	}
	r.check(same, "job %s/%s seed %d: daemon %v != library fault.Campaign %v", o.req.Bench, o.req.Scheme, o.req.Seed, counts, res.Counts)
	return nil
}

// checkServerMetrics requires zero 5xx responses and zero failed job
// persists over the daemon's lifetime.
func checkServerMetrics(r *run, o *obs.Obs) {
	snap := o.M().Snapshot()
	r.check(snap["server_errors_5xx_total"] == 0, "daemon answered %v requests with 5xx", snap["server_errors_5xx_total"])
	r.check(snap["server_persist_errors_total"] == 0, "daemon failed to persist %v job specs", snap["server_persist_errors_total"])
}

type daemon struct {
	seed int64
	rig  *rig
	// mixes holds every completed client cycle of the timed window.
	mu    sync.Mutex
	mixes [][]jobOut
}

// setupDaemon starts the daemon and its worker and warms it up: a
// compile and one small campaign per benchmark and scheme of the mix,
// so the build cache and the advisor's profile cache are warm.
func setupDaemon(r *run) (instance, error) {
	dir, err := os.MkdirTemp(r.dir, "daemon-")
	if err != nil {
		return nil, err
	}
	g, err := startRig(dir, &obs.Obs{Metrics: obs.NewMetrics()}, nil)
	if err != nil {
		return nil, err
	}
	for _, j := range daemonMix(rand.New(rand.NewSource(0))) {
		if j.role != "sampled" && j.role != "cold" && j.role != "compile" {
			continue
		}
		if j.role != "compile" {
			j.N, j.Incremental = 20, false
		}
		if o := g.do(j); !o.ok() {
			g.close()
			return nil, fmt.Errorf("warm-up %s of %s: status %d, state %q, %v", j.role, j.Bench, o.status, o.state, o.err)
		}
	}
	return &daemon{seed: r.seed, rig: g}, nil
}

// measure runs one closed-loop client per CPU; each cycles the mix
// and waits for every job's terminal event before sending the next.
func (w *daemon) measure(r *run) (loop, error) {
	var wg sync.WaitGroup
	start := time.Now()
	walls := make([][]float64, daemonClients())
	for k := 0; k < daemonClients(); k++ {
		rng := rand.New(rand.NewSource(w.seed*7919 + int64(k)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, walls[k], _ = cycles(r.seconds, func(int) error {
				var outs []jobOut
				for _, req := range daemonMix(rng) {
					outs = append(outs, w.rig.do(req))
				}
				w.mu.Lock()
				w.mixes = append(w.mixes, outs)
				w.mu.Unlock()
				return nil
			})
		}()
	}
	wg.Wait()
	lp := loop{wall: time.Since(start).Seconds(), cycles: walls[0]}
	byJob := map[string][]float64{}
	var kinds []string
	for _, outs := range w.mixes {
		for _, o := range outs {
			kind := o.req.role + " " + o.req.Bench + "/" + o.req.Scheme
			if byJob[kind] == nil {
				kinds = append(kinds, kind)
			}
			byJob[kind] = append(byJob[kind], o.latency)
			r.attempted++
			if !o.ok() {
				r.failed++
				continue
			}
			if o.req.role != "compile" {
				lp.latencies = append(lp.latencies, o.latency)
				lp.runs += o.executedRuns()
			}
		}
	}
	for _, k := range kinds {
		note("latency %s: median %.4fs over %d", k, median(byJob[k]), len(byJob[k]))
	}
	return lp, nil
}

func (w *daemon) checkOutputs(r *run) error {
	for i, outs := range w.mixes {
		checkMix(r, outs)
		if i >= daemonClients() {
			continue
		}
		// The first cycles to complete (one per client, as a rule) also
		// run against the library.
		for _, o := range outs {
			if o.req.role == "sampled" && o.ok() {
				if err := checkLibraryTwin(r, o); err != nil {
					return err
				}
			}
		}
	}
	checkServerMetrics(r, w.rig.o)
	return nil
}

// passSpecs: the per-layer pass runs one cycle of the mix through a
// fresh daemon, and the library twins of its sampled jobs.
func (w *daemon) passSpecs() ([]*camp, []jobReq, error) {
	mix := daemonMix(rand.New(rand.NewSource(w.seed)))
	var camps []*camp
	for _, j := range mix {
		if j.role == "sampled" {
			c, err := libraryTwin(j)
			if err != nil {
				return nil, nil, err
			}
			camps = append(camps, c)
		}
	}
	return camps, mix, nil
}

func (w *daemon) close() { w.rig.close() }
