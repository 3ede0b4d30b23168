// Golden-counters differential test: the compiled closure-threaded
// engine and the seed reference interpreter must be indistinguishable
// — on every kernel, under every protection scheme, with and without
// injected faults, the dynamic-instruction counters, per-opcode
// histogram, cycle counts, outputs and fault outcomes are bit for bit
// identical. The three ways are the reference interpreter, a fresh
// compiled machine per run, and one pooled compiled machine reset
// between runs (the campaign replica path). This is the contract that
// lets campaigns run on the compiled engine while the reference
// interpreter stays the spec.
package bench_test

import (
	"fmt"
	"testing"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/machine"
)

// runTriple executes the same instance on the reference interpreter,
// on a fresh compiled machine and on the pooled compiled machine of
// inj, and reports any observable divergence from the reference.
func runTriple(t *testing.T, p *core.Program, s core.Scheme, inj *core.Injector, gen func() bench.Instance, opts core.RunOpts) {
	t.Helper()
	refOpts := opts
	refOpts.Backend = machine.BackendReference
	ref := p.Run(s, gen(), refOpts)

	for _, leg := range []struct {
		name string
		got  core.Outcome
	}{
		{"compiled", p.Run(s, gen(), opts)},
		{"pooled", inj.Run(gen(), opts)},
	} {
		bk, got := leg.name, leg.got
		if got.Result != ref.Result {
			t.Errorf("%s RunResult diverged:\n  %s %+v\n  ref %+v", bk, bk, got.Result, ref.Result)
		}
		if fmt.Sprint(got.Err) != fmt.Sprint(ref.Err) {
			t.Errorf("%s error diverged: got %v, ref %v", bk, got.Err, ref.Err)
		}
		if got.FaultFired != ref.FaultFired || got.FaultTag != ref.FaultTag || got.FaultOp != ref.FaultOp {
			t.Errorf("%s fault outcome diverged: got fired=%v tag=%v op=%v, ref fired=%v tag=%v op=%v",
				bk, got.FaultFired, got.FaultTag, got.FaultOp,
				ref.FaultFired, ref.FaultTag, ref.FaultOp)
		}
		if len(got.Output) != len(ref.Output) {
			t.Fatalf("%s output length diverged: got %d, ref %d", bk, len(got.Output), len(ref.Output))
		}
		for i := range got.Output {
			if got.Output[i] != ref.Output[i] {
				t.Fatalf("%s output[%d] diverged: got %#x, ref %#x", bk, i, got.Output[i], ref.Output[i])
			}
		}
		// The accounting invariant must hold on real runs, not just the
		// unit test: every charged instruction lands in the histogram.
		if got, want := got.Result.Counter.OpTotal(), got.Result.Counter.Dyn; got != want {
			t.Errorf("%s opcode histogram does not reconcile: OpTotal = %d, Dyn = %d", bk, got, want)
		}
	}
}

func TestGoldenCountersThreeWay(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	// One probe per fault kind, plus burst/multi-bit width variants:
	// the width machinery (skip continuation across blocks, adjacent-bit
	// flips) must behave identically on every execution path too.
	probes := []struct {
		kind  machine.FaultKind
		width uint
	}{
		{machine.FaultResultBit, 0}, {machine.FaultSourceBit, 0},
		{machine.FaultOpcode, 0}, {machine.FaultRegFile, 0},
		{machine.FaultSkip, 1}, {machine.FaultSkip, 3},
		{machine.FaultMultiBit, 2}, {machine.FaultMultiBit, 5},
	}
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p, err := core.Build(b, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Train([]int64{bench.TrainSeed(0)}, bench.ScaleTiny); err != nil {
				t.Fatal(err)
			}
			inst := b.Gen(bench.TestSeed(1), bench.ScaleFI)
			for _, s := range []core.Scheme{core.Unsafe, core.SWIFT, core.SWIFTR, core.RSkip, core.SWIFTRHard} {
				clean := p.Run(s, inst, core.RunOpts{Backend: machine.BackendReference})
				gen := func() bench.Instance { return b.Gen(bench.TestSeed(1), bench.ScaleFI) }
				inj := p.NewInjector(s)
				defer inj.Close()
				t.Run(s.String()+"/clean", func(t *testing.T) {
					runTriple(t, p, s, inj, gen, core.RunOpts{})
				})
				region := clean.Result.Region
				if region == 0 {
					continue
				}
				budget := 3 * clean.Result.Instrs
				for i, pr := range probes {
					plan := machine.FaultPlan{
						Kind:   pr.kind,
						Target: region * uint64(i) / uint64(len(probes)),
						Bit:    uint(7 * (i + 1) % 64),
						Pick:   i,
						Width:  pr.width,
					}
					t.Run(fmt.Sprintf("%s/%v.w%d@%d", s, pr.kind, pr.width, plan.Target), func(t *testing.T) {
						runTriple(t, p, s, inj, gen,
							core.RunOpts{Fault: &plan, MaxInstrs: budget})
					})
				}
			}
		})
	}
}
