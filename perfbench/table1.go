package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fault"
)

// table1Work is the simulated fault-free work, in instructions, one
// table1-sampled campaign injects into: N = table1Work / (fault-free
// instructions), at least table1MinN. Equal work per campaign keeps
// the long conv2d replicas from dominating the mix.
const (
	table1Work = 4e6
	table1MinN = 8
)

var table1Schemes = []core.Scheme{core.Unsafe, core.SWIFTR, core.RSkip}

type table1 struct {
	seed  int64
	camps []*camp
	// results holds every campaign result of the timed window.
	results []campResult
}

func setupTable1(r *run) (instance, error) {
	w := &table1{seed: r.seed}
	for i, b := range bench.All() {
		p, err := buildTrained(context.Background(), b, core.DefaultConfig(), 3)
		if err != nil {
			return nil, err
		}
		inst := b.Gen(instSeed(r.seed, i), bench.ScaleFI)
		for _, s := range table1Schemes {
			o := p.Run(s, inst, core.RunOpts{})
			if o.Err != nil {
				return nil, fmt.Errorf("%s/%s: fault-free run: %w", b.Name, s, o.Err)
			}
			n := int(table1Work / float64(o.Result.Instrs))
			if n < table1MinN {
				n = table1MinN
			}
			w.camps = append(w.camps, &camp{p: p, s: s, inst: inst, cfg: fault.Config{N: n}})
		}
	}
	return w, nil
}

// measure runs the Table-1 campaigns one at a time in a closed loop;
// every cycle draws fresh plan seeds.
func (w *table1) measure(r *run) (loop, error) {
	rng := rand.New(rand.NewSource(w.seed))
	var lp loop
	var err error
	lp.wall, lp.cycles, err = cycles(r.seconds, func(int) error {
		for _, c := range w.camps {
			cfg := c.cfg
			cfg.Seed = rng.Int63()
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
		}
		return nil
	})
	return lp, err
}

func (w *table1) checkOutputs(r *run) error {
	for _, cr := range w.results {
		checkCounts(r, cr.c.String(), cr.res)
	}
	seen := map[*core.Program]bool{}
	for _, c := range w.camps {
		if !seen[c.p] {
			seen[c.p] = true
			checkFaultFree(r, c.p, c.inst)
		}
	}
	return checkReference(r, w.camps, w.seed)
}

// passSpecs: the per-layer pass runs every campaign with a fixed plan
// seed, and sends the conv1d campaigns through the daemon.
func (w *table1) passSpecs() ([]*camp, []jobReq, error) {
	camps := make([]*camp, len(w.camps))
	for i, c := range w.camps {
		cc := *c
		cc.cfg.Seed = w.seed + int64(i)
		camps[i] = &cc
	}
	return camps, serviceMix(camps[:2]), nil
}

func (w *table1) close() {}
