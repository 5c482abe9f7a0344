package milp

import (
	"math"
	"testing"

	"ctdvs/internal/lp"
)

// knapsackProblem rebuilds the classic binary knapsack from milp_test.go:
// max 8a + 11b + 6c + 4d s.t. 5a + 7b + 4c + 3d ≤ 14, optimum -21 as a
// minimization, with a fractional LP relaxation so branching happens.
func knapsackProblem() *Problem {
	p := lp.NewProblem()
	vals := []float64{8, 11, 6, 4}
	wts := []float64{5, 7, 4, 3}
	var vars []int
	var cons []lp.Term
	for i := range vals {
		v := p.AddVariable(-vals[i], 0, 1)
		vars = append(vars, v)
		cons = append(cons, lp.Term{Var: v, Coef: wts[i]})
	}
	p.MustAddConstraint(cons, lp.LE, 14)
	return &Problem{LP: p, Integers: vars}
}

// TestAnalyticBoundCallbackWiring pins the callback contract: the search
// consults the bound at the root and at every child, a vacuous bound changes
// nothing, and a bound that declines every box is the same as none.
func TestAnalyticBoundCallbackWiring(t *testing.T) {
	t.Parallel()
	base := solveOK(t, knapsackProblem(), &Options{Workers: 1})

	calls := 0
	vacuous := solveOK(t, knapsackProblem(), &Options{
		Workers: 1,
		AnalyticBound: func(ov map[int]lp.Bound) (float64, bool) {
			calls++
			return math.Inf(-1), true
		},
	})
	if calls == 0 {
		t.Fatal("AnalyticBound never consulted")
	}
	if vacuous.Objective != base.Objective || vacuous.Nodes != base.Nodes {
		t.Errorf("vacuous bound changed the solve: obj %v/%v nodes %d/%d",
			vacuous.Objective, base.Objective, vacuous.Nodes, base.Nodes)
	}
	if vacuous.AnalyticPrunes != 0 {
		t.Errorf("vacuous bound pruned %d children", vacuous.AnalyticPrunes)
	}

	// ok=false must be treated exactly like no bound at all.
	declined := solveOK(t, knapsackProblem(), &Options{
		Workers:       1,
		AnalyticBound: func(ov map[int]lp.Bound) (float64, bool) { return 0, false },
	})
	if declined.Objective != base.Objective || declined.Nodes != base.Nodes {
		t.Errorf("declined bound changed the solve: obj %v/%v nodes %d/%d",
			declined.Objective, base.Objective, declined.Nodes, base.Nodes)
	}
	if declined.AnalyticPrunes != 0 {
		t.Errorf("declined bound pruned %d children", declined.AnalyticPrunes)
	}
}

// TestAnalyticBoundPrunes hands the search the exact integer optimum as the
// bound for every box: children that cannot beat it are discarded before
// their LP solves, the tree shrinks, and the objective is untouched.
func TestAnalyticBoundPrunes(t *testing.T) {
	t.Parallel()
	base := solveOK(t, knapsackProblem(), &Options{Workers: 1})
	exact := solveOK(t, knapsackProblem(), &Options{
		Workers: 1,
		AnalyticBound: func(ov map[int]lp.Bound) (float64, bool) {
			return -21, true // the known optimum: a valid bound for every box
		},
	})
	if exact.Objective != base.Objective {
		t.Errorf("objective moved: %v, want %v", exact.Objective, base.Objective)
	}
	if exact.Nodes > base.Nodes {
		t.Errorf("exact bound grew the tree: %d nodes, baseline %d", exact.Nodes, base.Nodes)
	}
	if exact.AnalyticPrunes == 0 && exact.Nodes == base.Nodes {
		t.Error("exact bound neither pruned nor shrank the tree")
	}
	if exact.Bound < -21-tol {
		t.Errorf("reported dual bound %v weaker than the analytic -21", exact.Bound)
	}
}

// TestAnalyticBoundInfeasible: on an LP-feasible but integer-infeasible
// problem, a truthful +Inf bound must leave the verdict Infeasible — the
// search may take the bound's word for pruning, but it never fabricates an
// incumbent from it.
func TestAnalyticBoundInfeasible(t *testing.T) {
	t.Parallel()
	// 2x + 2y = 1 over binaries: the LP sits at x = y = 0.25, but every
	// integer point sums to an even total.
	build := func() *Problem {
		p := lp.NewProblem()
		x := p.AddVariable(1, 0, 1)
		y := p.AddVariable(1, 0, 1)
		p.MustAddConstraint([]lp.Term{{Var: x, Coef: 2}, {Var: y, Coef: 2}}, lp.EQ, 1)
		return &Problem{LP: p, Integers: []int{x, y}}
	}
	for _, withBound := range []bool{false, true} {
		opts := &Options{Workers: 1}
		if withBound {
			opts.AnalyticBound = func(ov map[int]lp.Bound) (float64, bool) {
				return math.Inf(1), true
			}
		}
		res, err := Solve(build(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Infeasible {
			t.Errorf("withBound=%v: status = %v, want infeasible", withBound, res.Status)
		}
	}
}
