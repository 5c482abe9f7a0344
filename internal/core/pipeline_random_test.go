package core

import (
	"math"
	"testing"

	"ctdvs/internal/cfg"
	"ctdvs/internal/paths"
	"ctdvs/internal/profile"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

// TestPipelineOnRandomPrograms runs the full pipeline — generate, profile,
// optimize, place, execute, path-profile — over a family of random synthetic
// programs and checks cross-cutting invariants that no single package test
// can see:
//
//  1. profiled flow conservation (edge counts in = out = invocations);
//  2. the optimized schedule meets its deadline when executed;
//  3. optimized measured energy ≤ best-single-mode measured energy;
//  4. MILP-predicted energy/time agree with the simulator within 5 %;
//  5. stripping silent mode-sets changes nothing at run time;
//  6. Ball–Larus path counts are consistent with back-edge traversals.
func TestPipelineOnRandomPrograms(t *testing.T) {
	t.Parallel()
	m := sim.MustNew(sim.DefaultConfig())
	ms := volt.XScale3()
	reg := volt.DefaultRegulator()

	for seed := int64(1); seed <= 8; seed++ {
		spec, err := workloads.Synthetic(workloads.SyntheticConfig{
			Regions:         2 + int(seed%3),
			BlocksPerRegion: 1 + int(seed%4),
			TripsPerRegion:  25,
			Seed:            seed * 97,
		})
		if err != nil {
			t.Fatal(err)
		}
		pr, err := profile.Collect(m, spec.Program, spec.Inputs[0], ms)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g := pr.Graph

		// (1) Flow conservation.
		for j := 0; j < g.NumBlocks; j++ {
			in := int64(0)
			for _, h := range g.Preds(j) {
				in += pr.EdgeCounts[g.EdgeID(cfg.Edge{From: h, To: j})]
			}
			if in != pr.Invocations[j] {
				t.Fatalf("seed %d: block %d flow violated: in %d != inv %d",
					seed, j, in, pr.Invocations[j])
			}
		}

		n := ms.Len()
		dl := pr.TotalTimeUS[n-1] + 0.4*(pr.TotalTimeUS[0]-pr.TotalTimeUS[n-1])
		res, err := OptimizeSingle(pr, dl, &Options{Regulator: reg})
		if err != nil {
			t.Fatalf("seed %d: optimize: %v", seed, err)
		}

		// (2) Deadline met on execution.
		run, err := m.RunDVS(spec.Program, spec.Inputs[0], res.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		if run.TimeUS > dl*1.02 {
			t.Errorf("seed %d: measured %v µs misses deadline %v µs", seed, run.TimeUS, dl)
		}

		// (3) Never worse than the best single mode.
		mode, _, ok := pr.BestSingleMode(dl)
		if !ok {
			t.Fatalf("seed %d: no single mode", seed)
		}
		single, err := m.RunDVS(spec.Program, spec.Inputs[0], SingleModeSchedule(pr, mode, reg))
		if err != nil {
			t.Fatal(err)
		}
		if run.EnergyUJ > single.EnergyUJ*1.005 {
			t.Errorf("seed %d: DVS energy %v above single-mode %v",
				seed, run.EnergyUJ, single.EnergyUJ)
		}

		// (4) Predictions track measurements.
		if math.Abs(res.PredictedEnergyUJ-run.EnergyUJ) > 0.05*run.EnergyUJ {
			t.Errorf("seed %d: predicted energy %v vs measured %v",
				seed, res.PredictedEnergyUJ, run.EnergyUJ)
		}
		if math.Abs(res.PredictedTimeUS[0]-run.TimeUS) > 0.05*run.TimeUS {
			t.Errorf("seed %d: predicted time %v vs measured %v",
				seed, res.PredictedTimeUS[0], run.TimeUS)
		}

		// (5) Placement strip is behaviour-preserving.
		pl := PlaceModeSets(pr, res.Schedule)
		lean, err := m.RunDVS(spec.Program, spec.Inputs[0], pl.Strip(res.Schedule))
		if err != nil {
			t.Fatal(err)
		}
		if lean.EnergyUJ != run.EnergyUJ || lean.TimeUS != run.TimeUS ||
			lean.Transitions != run.Transitions {
			t.Errorf("seed %d: strip changed behaviour", seed)
		}

		// (6) Path profile consistency.
		numbering, err := paths.New(g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tracer := numbering.NewTracer()
		m.EdgeHook = tracer.Edge
		traced, err := m.Run(spec.Program, spec.Inputs[0], ms.Mode(n-1))
		m.EdgeHook = nil
		if err != nil {
			t.Fatal(err)
		}
		tracer.Finish()
		back := int64(0)
		for _, e := range g.Edges {
			if e.From != cfg.Entry && numbering.IsBackEdge(e) {
				back += traced.EdgeCountsByID[g.EdgeID(e)]
			}
		}
		total := int64(0)
		for _, c := range tracer.Counts() {
			total += c
		}
		if total != back+1 {
			t.Errorf("seed %d: path count %d != back traversals %d + 1", seed, total, back)
		}
	}
}
