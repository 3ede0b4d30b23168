package advice

import (
	"context"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fault"
	"rskip/internal/machine"
)

// TestAdvisorInert is the tentpole property: running the full advisor
// lifecycle around a campaign — profile extraction before, recorded
// forecast, concurrent advisory queries while the campaign runs,
// outcome observation after — must leave the campaign's fault.Result
// bit-identical to a campaign that never touched the advisor. Checked
// on every execution backend; under -race the concurrent query hammer
// doubles as the data-race stress for the advise path.
func TestAdvisorInert(t *testing.T) {
	b, err := bench.ByName("musum")
	if err != nil {
		t.Fatal(err)
	}
	backends := []struct {
		name string
		be   machine.Backend
	}{
		{"reference", machine.BackendReference},
		{"compiled", machine.BackendCompiled},
	}
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			t.Parallel()
			cfg := core.DefaultConfig()
			cfg.Backend = bk.be
			p, err := core.Build(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			inst := b.Gen(bench.TestSeed(3), bench.ScaleTiny)
			fcfg := fault.Config{N: 120, Seed: 99, Workers: 2}
			scheme := core.RSkip

			// Control: no advisor anywhere near the campaign.
			quiet, err := fault.Campaign(context.Background(), p, scheme, inst, fcfg)
			if err != nil {
				t.Fatal(err)
			}

			// Treatment: the identical campaign with the advisor running
			// its entire lifecycle around and during it.
			adv, err := New(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			sh := Shape{Mix: fcfg.Mix, Requested: fcfg.N}
			feats, err := ExtractFeatures(context.Background(), p, scheme, inst, sh)
			if err != nil {
				t.Fatal(err)
			}
			fc, predID, err := adv.Forecast(feats)
			if err != nil {
				t.Fatal(err)
			}
			if !fc.Advisory {
				t.Error("forecast not labeled advisory")
			}

			// Hammer advisory queries concurrently with the campaign.
			done := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
							adv.Estimate(feats)
							adv.Calibration()
						}
					}
				}()
			}
			start := time.Now()
			advised, err := fault.Campaign(context.Background(), p, scheme, inst, fcfg)
			wall := time.Since(start).Seconds()
			close(done)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := adv.Observe(predID, feats, ResultLabels(advised, wall)); err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(quiet, advised) {
				t.Errorf("advisor lifecycle perturbed the campaign:\n  quiet:   %+v\n  advised: %+v", quiet, advised)
			}
		})
	}
}

// TestAdviceNotImportedByEngines pins the structural half of the
// inertness contract: the packages that execute, analyze or merge
// campaigns must not import this one, so no code path of theirs can
// consult a prediction. For fault/core/machine the compiler already
// enforces it (an import back would cycle); for result and fabric —
// which advice does not import — this test is the enforcement.
func TestAdviceNotImportedByEngines(t *testing.T) {
	engines := []string{"fault", "core", "machine", "result", "fabric", "ir", "pass"}
	fset := token.NewFileSet()
	for _, pkg := range engines {
		dir := filepath.Join("..", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, imp := range f.Imports {
				if strings.Contains(imp.Path.Value, "internal/advice") {
					t.Errorf("%s imports the advice package — predictions must never influence the engine", path)
				}
			}
		}
	}
}
