package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ctdvs/internal/lp"
	"ctdvs/internal/milp"
)

// formulateTwoPhase builds the MILP formulation (with its analytic bounder)
// for the standard two-phase program at the given deadline.
func formulateTwoPhase(t *testing.T, dl float64) *Formulation {
	t.Helper()
	_, pr := collectTwoPhase(t)
	prep, err := Prepare([]Category{{Profile: pr, Weight: 1, DeadlineUS: dl}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return prep.Formulate(prep.Filter())
}

// groupBases returns the first-variable index of every mode-binary group in
// ascending order.
func groupBases(fm *Formulation) []int {
	bases := make([]int, 0, len(fm.f.kvar))
	for _, base := range fm.f.kvar {
		bases = append(bases, base)
	}
	sort.Ints(bases)
	return bases
}

// TestAnalyticBoundBelowLPAndOptimum pins the dual-bound contract at the
// root box: the MCKP hull bound must lower-bound both the LP relaxation and
// the integer optimum.
func TestAnalyticBoundBelowLPAndOptimum(t *testing.T) {
	t.Parallel()
	_, pr := collectTwoPhase(t)
	fm := formulateTwoPhase(t, midDeadline(pr))
	b, ok := fm.f.bounder.Bound(nil)
	if !ok {
		t.Fatal("root bound unavailable")
	}
	if math.IsInf(b, 1) {
		t.Fatal("root bound infeasible for a feasible deadline")
	}
	sol, err := fm.f.problem.LP.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal {
		t.Fatalf("root LP status %v", sol.Status)
	}
	slack := 1e-9 * math.Abs(sol.Objective)
	if b > sol.Objective+slack {
		t.Errorf("analytic bound %v exceeds root LP objective %v", b, sol.Objective)
	}
	res, err := milp.Solve(fm.f.problem, &milp.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b > res.Objective+1e-9*math.Abs(res.Objective) {
		t.Errorf("analytic bound %v exceeds integer optimum %v", b, res.Objective)
	}
}

// TestAnalyticBoundRandomBoxes throws randomized branch-and-bound boxes —
// forced modes and excluded modes over the real formulation's mode binaries —
// at the bounder and checks each value against every integer completion of
// the box, computed exactly by forcing all groups and solving the LP. The
// bound may exceed the box's LP relaxation (the transition floor charges
// |ΔV²| pairs that fractional modes can dodge), but it must never exceed any
// feasible integer schedule, and +Inf must mean the LP is infeasible too —
// that is the contract that lets the search discard children unsolved.
func TestAnalyticBoundRandomBoxes(t *testing.T) {
	t.Parallel()
	_, pr := collectTwoPhase(t)
	fm := formulateTwoPhase(t, midDeadline(pr))
	bases := groupBases(fm)
	nm := fm.f.modes.Len()
	rng := rand.New(rand.NewSource(61))
	feasible, infeasible := 0, 0
	for i := 0; i < 60; i++ {
		ov := map[int]lp.Bound{}
		allowed := make([][]int, len(bases))
		for gi, base := range bases {
			forced := -1
			excluded := make([]bool, nm)
			switch rng.Intn(4) {
			case 0:
				forced = rng.Intn(nm)
				ov[base+forced] = lp.Bound{Lo: 1, Hi: 1}
			case 1:
				for m := 0; m < nm; m++ {
					if rng.Intn(2) == 0 {
						excluded[m] = true
						ov[base+m] = lp.Bound{Lo: 0, Hi: 0}
					}
				}
			default: // leave the group at the root box
			}
			for m := 0; m < nm; m++ {
				if (forced < 0 || m == forced) && !excluded[m] {
					allowed[gi] = append(allowed[gi], m)
				}
			}
		}
		b, ok := fm.f.bounder.Bound(ov)
		if !ok {
			t.Fatalf("box %d: bound unavailable", i)
		}
		if math.IsInf(b, 1) {
			infeasible++
			// The bound's infeasibility proof (per-group fastest times
			// overrun the budget, or an empty/contradictory mask breaks the
			// SOS1 row) holds for the LP relaxation as well.
			sol, err := fm.f.problem.LP.SolveBounded(nil, ov)
			if err != nil {
				t.Fatalf("box %d: %v", i, err)
			}
			if sol.Status != lp.Infeasible {
				t.Errorf("box %d (%v): bound says infeasible, LP status %v obj %v",
					i, ov, sol.Status, sol.Objective)
			}
			continue
		}
		feasible++
		// Enumerate the box's integer points; forcing every group pins the
		// mode binaries via the SOS1 rows, so the LP objective is the exact
		// schedule cost, transitions included.
		assign := make([]int, len(bases))
		var walk func(gi int)
		walk = func(gi int) {
			if gi == len(bases) {
				full := map[int]lp.Bound{}
				for gj, base := range bases {
					full[base+assign[gj]] = lp.Bound{Lo: 1, Hi: 1}
				}
				sol, err := fm.f.problem.LP.SolveBounded(nil, full)
				if err != nil {
					t.Fatalf("box %d assign %v: %v", i, assign, err)
				}
				if sol.Status != lp.Optimal {
					return // this completion misses the deadline
				}
				if b > sol.Objective+1e-9*math.Abs(sol.Objective)+1e-12 {
					t.Errorf("box %d (%v): bound %v exceeds integer schedule %v (assign %v)",
						i, ov, b, sol.Objective, assign)
				}
				return
			}
			for _, m := range allowed[gi] {
				assign[gi] = m
				walk(gi + 1)
			}
		}
		walk(0)
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("want both verdicts exercised, got %d feasible / %d infeasible", feasible, infeasible)
	}
}

// TestAnalyticBoundDeterministic pins bit-reproducibility: the bound of a
// box must not depend on map iteration order or on call history.
func TestAnalyticBoundDeterministic(t *testing.T) {
	t.Parallel()
	_, pr := collectTwoPhase(t)
	fm := formulateTwoPhase(t, midDeadline(pr))
	bases := groupBases(fm)
	nm := fm.f.modes.Len()
	rng := rand.New(rand.NewSource(67))
	for i := 0; i < 20; i++ {
		var keys []int
		var vals []lp.Bound
		for _, base := range bases {
			if rng.Intn(2) == 0 {
				continue
			}
			m := rng.Intn(nm)
			keys = append(keys, base+m)
			if rng.Intn(2) == 0 {
				vals = append(vals, lp.Bound{Lo: 1, Hi: 1})
			} else {
				vals = append(vals, lp.Bound{Lo: 0, Hi: 0})
			}
		}
		fwd := map[int]lp.Bound{}
		rev := map[int]lp.Bound{}
		for j := range keys {
			fwd[keys[j]] = vals[j]
		}
		for j := len(keys) - 1; j >= 0; j-- {
			rev[keys[j]] = vals[j]
		}
		b1, _ := fm.f.bounder.Bound(fwd)
		b2, _ := fm.f.bounder.Bound(fwd)
		b3, _ := fm.f.bounder.Bound(rev)
		if b1 != b2 || b1 != b3 {
			t.Fatalf("box %d: bound not deterministic: %v %v %v", i, b1, b2, b3)
		}
	}
}

// declineBound is an analytic-bound callback that offers no bound for any
// box. A caller's callback replaces the formulation's own, and the search
// treats a declined box exactly like no bound, so passing it solves with the
// analytic bound off.
func declineBound(map[int]lp.Bound) (float64, bool) { return 0, false }

// TestAnalyticPruningDeterminism is the solver-level determinism contract:
// with the analytic bound active, a parallel solve must be bit-identical to
// the serial one, and switching the bound off (declineBound) must change node
// counts only — never the objective.
func TestAnalyticPruningDeterminism(t *testing.T) {
	t.Parallel()
	_, pr := collectTwoPhase(t)
	n := pr.Modes.Len()
	fast, slow := pr.TotalTimeUS[n-1], pr.TotalTimeUS[0]
	dl := fast + 0.15*(slow-fast) // tight: branching and pruning both happen

	solve := func(mo milp.Options) *Result {
		res, err := OptimizeSingle(pr, dl, &Options{MILP: &mo})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := solve(milp.Options{Workers: 1})
	parallel := solve(milp.Options{Workers: 4, ParallelThreshold: -1})
	disabled := solve(milp.Options{Workers: 1, AnalyticBound: declineBound})

	if serial.Solver.Objective != parallel.Solver.Objective {
		t.Errorf("parallel objective %v != serial %v",
			parallel.Solver.Objective, serial.Solver.Objective)
	}
	if serial.PredictedEnergyUJ != parallel.PredictedEnergyUJ {
		t.Errorf("parallel energy %v != serial %v",
			parallel.PredictedEnergyUJ, serial.PredictedEnergyUJ)
	}
	if serial.Solver.Objective != disabled.Solver.Objective {
		t.Errorf("bound-off objective %v != bound-on %v",
			disabled.Solver.Objective, serial.Solver.Objective)
	}
	if disabled.Solver.AnalyticPrunes != 0 {
		t.Errorf("declined bound left AnalyticPrunes = %d", disabled.Solver.AnalyticPrunes)
	}
	if serial.Solver.Nodes > disabled.Solver.Nodes {
		t.Errorf("bound-on committed %d nodes, bound-off only %d",
			serial.Solver.Nodes, disabled.Solver.Nodes)
	}
}

// TestGraphAnalyticBoundObjective extends the disable-vs-enable contract to
// the task-graph formulation: per-task bounds may shrink the tree but must
// not move the optimum.
func TestGraphAnalyticBoundObjective(t *testing.T) {
	t.Parallel()
	g, profiles := testGraph(t)
	lo, hi := graphSpan(t, g, profiles, 2)
	dl := lo + 0.4*(hi-lo)

	on, err := OptimizeGraph(g, profiles, 2, dl, &Options{MILP: &milp.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	off, err := OptimizeGraph(g, profiles, 2, dl,
		&Options{MILP: &milp.Options{Workers: 1, AnalyticBound: declineBound}})
	if err != nil {
		t.Fatal(err)
	}
	if on.Solver.Objective != off.Solver.Objective {
		t.Errorf("graph objective moved: bound-on %v, bound-off %v",
			on.Solver.Objective, off.Solver.Objective)
	}
	if off.Solver.AnalyticPrunes != 0 {
		t.Errorf("declined bound left AnalyticPrunes = %d", off.Solver.AnalyticPrunes)
	}
	if on.Solver.Nodes > off.Solver.Nodes {
		t.Errorf("bound-on committed %d nodes, bound-off only %d",
			on.Solver.Nodes, off.Solver.Nodes)
	}
}
