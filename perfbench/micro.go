package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fault"
)

var microSchemes = []core.Scheme{core.SWIFT, core.SWIFTRHard}

type micro struct {
	dir   string
	camps []*camp
	// results holds every campaign result of the timed window.
	results []campResult
}

func setupMicro(r *run) (instance, error) {
	w := &micro{dir: r.dir}
	for i, b := range bench.Micros() {
		p, err := buildTrained(context.Background(), b, core.DefaultConfig(), 3)
		if err != nil {
			return nil, err
		}
		inst := b.Gen(instSeed(r.seed, i), bench.ScaleFI)
		if o := p.Run(core.Unsafe, inst, core.RunOpts{}); o.Err != nil {
			return nil, fmt.Errorf("%s: fault-free run: %w", b.Name, o.Err)
		}
		for _, s := range microSchemes {
			w.camps = append(w.camps, &camp{p: p, s: s, inst: inst,
				cfg: fault.Config{Mix: fault.Mix{Skip: 1}, Exhaustive: true}})
		}
	}
	return w, nil
}

// measure runs the exhaustive campaigns one at a time in a closed
// loop, each with a fresh checkpoint file, as rskipfi -exhaustive
// -checkpoint does.
func (w *micro) measure(r *run) (loop, error) {
	var lp loop
	var err error
	lp.wall, lp.cycles, err = cycles(r.seconds, func(cycle int) error {
		for i, c := range w.camps {
			cfg := c.cfg
			cfg.CheckpointPath = filepath.Join(w.dir, fmt.Sprintf("micro-%d-%d.ck.json", cycle, i))
			t0 := time.Now()
			res, err := fault.Campaign(context.Background(), c.p, c.s, c.inst, cfg)
			r.attempted++
			if err != nil {
				r.failed++
				r.check(false, "%s: campaign failed: %v", c, err)
				continue
			}
			lp.latencies = append(lp.latencies, time.Since(t0).Seconds())
			lp.runs += res.N
			w.results = append(w.results, campResult{c, res})
			os.Remove(cfg.CheckpointPath)
		}
		return nil
	})
	return lp, err
}

// checkMicro checks the properties every exhaustive skip campaign has
// for any input: SWIFT-R-HARD protects every skip and every skip
// fires; plain SWIFT misses at least one.
func checkMicro(r *run, c *camp, res fault.Result) {
	checkCounts(r, c.String(), res)
	switch c.s {
	case core.SWIFTRHard:
		r.check(res.Counts[fault.Correct]+res.Counts[fault.Detected] == res.N && res.Fired == res.N,
			"%s: hardened TMR let a skip through: counts %v, fired %d of %d", c, res.Counts, res.Fired, res.N)
	case core.SWIFT:
		r.check(res.Counts[fault.Correct]+res.Counts[fault.Detected] < res.N,
			"%s: SWIFT caught every skip (counts %v); the skip model is not reaching it", c, res.Counts)
	}
}

func (w *micro) checkOutputs(r *run) error {
	first := map[*camp]fault.Result{}
	for _, cr := range w.results {
		checkMicro(r, cr.c, cr.res)
		if want, ok := first[cr.c]; ok {
			r.check(sameResult(cr.res, want), "%s: repeated exhaustive campaign differs: %v != %v", cr.c, cr.res.Counts, want.Counts)
		} else {
			first[cr.c] = cr.res
		}
	}
	seen := map[*core.Program]bool{}
	for _, c := range w.camps {
		if !seen[c.p] {
			seen[c.p] = true
			checkFaultFree(r, c.p, c.inst)
		}
	}
	return nil
}

func (w *micro) passSpecs() ([]*camp, []jobReq, error) { return w.camps, serviceMix(w.camps[:1]), nil }

func (w *micro) close() {}
