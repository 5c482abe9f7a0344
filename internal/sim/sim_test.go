package sim

import (
	"math"
	"testing"

	"ctdvs/internal/cfg"
	"ctdvs/internal/ir"
	"ctdvs/internal/volt"
)

func mode800() volt.Mode { return volt.Mode{V: 1.65, F: 800} }
func mode200() volt.Mode { return volt.Mode{V: 0.70, F: 200} }

// computeOnly builds a pure-compute program: loop of trips iterations, each
// doing cycles of independent compute.
func computeOnly(trips, cycles int) *ir.Program {
	b := ir.NewBuilder("compute-only")
	body := b.Block("body")
	exit := b.Block("exit")
	body.Compute(cycles)
	b.LoopBranch(body, body, exit, trips)
	exit.Compute(1)
	exit.Exit()
	return b.MustFinish()
}

// memLoop builds a loop that loads from a stream and then depends on it.
func memLoop(trips int, ws int64, random bool) *ir.Program {
	b := ir.NewBuilder("mem-loop")
	var s int
	if random {
		s = b.RandomStream(ws)
	} else {
		s = b.SequentialStream(ws)
	}
	body := b.Block("body")
	exit := b.Block("exit")
	body.Load(s).Compute(20).DependentCompute(10)
	b.LoopBranch(body, body, exit, trips)
	exit.Compute(1)
	exit.Exit()
	return b.MustFinish()
}

func run(t *testing.T, p *ir.Program, m volt.Mode) *Result {
	t.Helper()
	mach := MustNew(DefaultConfig())
	res, err := mach.Run(p, ir.Input{Name: "default", Seed: 1}, m)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDeterminism(t *testing.T) {
	t.Parallel()
	p := memLoop(500, 1<<22, true)
	a := run(t, p, mode800())
	b := run(t, p, mode800())
	if a.TimeUS != b.TimeUS || a.EnergyUJ != b.EnergyUJ || a.MemMisses != b.MemMisses {
		t.Errorf("nondeterministic: %v/%v vs %v/%v", a.TimeUS, a.EnergyUJ, b.TimeUS, b.EnergyUJ)
	}
}

func TestPureComputeScalesWithFrequency(t *testing.T) {
	t.Parallel()
	p := computeOnly(100, 50)
	hi := run(t, p, mode800())
	lo := run(t, p, mode200())
	// Pure compute: time ratio must be exactly f ratio (same cycle count).
	ratio := lo.TimeUS / hi.TimeUS
	if math.Abs(ratio-4) > 1e-9 {
		t.Errorf("time ratio = %v, want 4", ratio)
	}
	// Energy ratio must equal the voltage-squared ratio.
	eratio := hi.EnergyUJ / lo.EnergyUJ
	want := (1.65 * 1.65) / (0.70 * 0.70)
	if math.Abs(eratio-want) > 1e-9 {
		t.Errorf("energy ratio = %v, want %v", eratio, want)
	}
}

func TestMemoryTimeInvariantAcrossModes(t *testing.T) {
	t.Parallel()
	p := memLoop(2000, 1<<24, true) // large random working set → misses
	hi := run(t, p, mode800())
	lo := run(t, p, mode200())
	if hi.MemMisses == 0 {
		t.Fatal("expected misses")
	}
	if hi.MemMisses != lo.MemMisses {
		t.Errorf("miss counts differ across modes: %d vs %d", hi.MemMisses, lo.MemMisses)
	}
	if math.Abs(hi.Params.TInvariantUS-lo.Params.TInvariantUS) > 1e-9 {
		t.Errorf("tinvariant differs: %v vs %v", hi.Params.TInvariantUS, lo.Params.TInvariantUS)
	}
	// At the lower frequency, cycles cost more wall time, so the run is
	// slower — but by less than 4× because the memory component is fixed.
	ratio := lo.TimeUS / hi.TimeUS
	if ratio >= 4 || ratio <= 1 {
		t.Errorf("memory-bound time ratio = %v, want within (1, 4)", ratio)
	}
}

func TestSmallWorkingSetHitsInL1(t *testing.T) {
	t.Parallel()
	p := memLoop(5000, 4<<10, false) // 4 KB sequential fits in L1
	res := run(t, p, mode800())
	if res.MemMisses > 200 { // only cold misses (128 lines) plus noise
		t.Errorf("too many misses for an L1-resident working set: %d", res.MemMisses)
	}
	if res.L1Hits == 0 {
		t.Error("expected L1 hits")
	}
}

func TestHugeRandomWorkingSetMisses(t *testing.T) {
	t.Parallel()
	p := memLoop(3000, 64<<20, true)
	res := run(t, p, mode800())
	if float64(res.MemMisses) < 0.8*float64(res.L1Hits+res.L2Hits+res.MemMisses) {
		t.Errorf("expected mostly misses: misses=%d hits=%d/%d",
			res.MemMisses, res.L1Hits, res.L2Hits)
	}
	if res.Params.TInvariantUS == 0 {
		t.Error("tinvariant not accumulated")
	}
}

func TestOverlapHidesMissLatency(t *testing.T) {
	t.Parallel()
	// One miss plus lots of independent compute: the compute should hide
	// much of the miss latency.
	b := ir.NewBuilder("overlap")
	s := b.RandomStream(64 << 20)
	blk := b.Block("b")
	exit := b.Block("exit")
	blk.Load(s).Compute(200).DependentCompute(1)
	b.LoopBranch(blk, blk, exit, 1000)
	exit.Compute(1)
	exit.Exit()
	p := b.MustFinish()

	withOverlap := run(t, p, mode800())

	// Same work but the compute is dependent → no overlap.
	b2 := ir.NewBuilder("no-overlap")
	s2 := b2.RandomStream(64 << 20)
	blk2 := b2.Block("b")
	exit2 := b2.Block("exit")
	blk2.Load(s2).DependentCompute(200).DependentCompute(1)
	b2.LoopBranch(blk2, blk2, exit2, 1000)
	exit2.Compute(1)
	exit2.Exit()
	p2 := b2.MustFinish()

	withoutOverlap := run(t, p2, mode800())
	if withOverlap.TimeUS >= withoutOverlap.TimeUS {
		t.Errorf("overlap run (%v µs) not faster than dependent run (%v µs)",
			withOverlap.TimeUS, withoutOverlap.TimeUS)
	}
}

func TestEdgeAndPathCounts(t *testing.T) {
	t.Parallel()
	const trips = 7
	p := memLoop(trips, 1<<12, false)
	res := run(t, p, mode800())

	edgeCounts, pathCounts, err := countMaps(p, res)
	if err != nil {
		t.Fatal(err)
	}
	back := cfg.Edge{From: 0, To: 0}
	exit := cfg.Edge{From: 0, To: 1}
	entry := cfg.Edge{From: cfg.Entry, To: 0}
	if edgeCounts[entry] != 1 {
		t.Errorf("entry edge count = %d", edgeCounts[entry])
	}
	if edgeCounts[back] != trips-1 {
		t.Errorf("back edge count = %d, want %d", edgeCounts[back], trips-1)
	}
	if edgeCounts[exit] != 1 {
		t.Errorf("exit edge count = %d, want 1", edgeCounts[exit])
	}

	// D_hij consistency: sum over h of D(h,i,j) = G(i,j) for non-terminal i.
	sumIn := pathCounts[cfg.Path{In: cfg.Entry, Mid: 0, Out: 0}] +
		pathCounts[cfg.Path{In: 0, Mid: 0, Out: 0}]
	if sumIn != edgeCounts[back] {
		t.Errorf("sum of paths into back edge = %d, want %d", sumIn, edgeCounts[back])
	}
	// Block invocations: body runs trips times, exit once.
	if res.Blocks[0].Invocations != trips {
		t.Errorf("body invocations = %d, want %d", res.Blocks[0].Invocations, trips)
	}
	if res.Blocks[1].Invocations != 1 {
		t.Errorf("exit invocations = %d", res.Blocks[1].Invocations)
	}
}

func TestBlockTimeSumsToTotal(t *testing.T) {
	t.Parallel()
	p := memLoop(100, 1<<16, false)
	res := run(t, p, mode800())
	sumT, sumE := 0.0, 0.0
	for _, b := range res.Blocks {
		sumT += b.TimeUS
		sumE += b.EnergyUJ
	}
	if math.Abs(sumT-res.TimeUS) > 1e-6*res.TimeUS {
		t.Errorf("block time sum %v != total %v", sumT, res.TimeUS)
	}
	if math.Abs(sumE-res.EnergyUJ) > 1e-6*res.EnergyUJ {
		t.Errorf("block energy sum %v != total %v", sumE, res.EnergyUJ)
	}
}

func TestProbBranchRespondsToInput(t *testing.T) {
	t.Parallel()
	b := ir.NewBuilder("branchy")
	x := b.Block("x")
	hot := b.Block("hot")
	cold := b.Block("cold")
	join := b.Block("join")
	exit := b.Block("exit")
	x.Compute(1)
	pid := b.ProbBranch(x, hot, cold, 0.9)
	hot.Compute(100)
	hot.Jump(join)
	cold.Compute(1)
	cold.Jump(join)
	join.Compute(1)
	b.LoopBranch(join, x, exit, 1000)
	exit.Compute(1)
	exit.Exit()
	p := b.MustFinish()

	mach := MustNew(DefaultConfig())
	biased, err := mach.Run(p, ir.Input{Name: "hot", Seed: 5}, mode800())
	if err != nil {
		t.Fatal(err)
	}
	over, err := mach.Run(p, ir.Input{Name: "cold", Seed: 5, Probs: map[int]float64{pid: 0.0}}, mode800())
	if err != nil {
		t.Fatal(err)
	}
	if biased.Blocks[1].Invocations < 800 {
		t.Errorf("hot block ran %d times, want ≈900", biased.Blocks[1].Invocations)
	}
	if over.Blocks[1].Invocations != 0 {
		t.Errorf("override failed: hot block ran %d times", over.Blocks[1].Invocations)
	}
	if over.TimeUS >= biased.TimeUS {
		t.Error("cold input should run faster")
	}
}

func TestTripOverride(t *testing.T) {
	t.Parallel()
	p := computeOnly(10, 100)
	mach := MustNew(DefaultConfig())
	long, err := mach.Run(p, ir.Input{Name: "long", Seed: 1, Trips: map[int]int{0: 50}}, mode800())
	if err != nil {
		t.Fatal(err)
	}
	short := run(t, p, mode800())
	if long.Blocks[0].Invocations != 50 || short.Blocks[0].Invocations != 10 {
		t.Errorf("trip override: %d vs %d", long.Blocks[0].Invocations, short.Blocks[0].Invocations)
	}
}

func TestBranchPredictorAccounting(t *testing.T) {
	t.Parallel()
	// A strongly biased loop branch should predict well; an alternating one
	// should not.
	p := computeOnly(10000, 2)
	res := run(t, p, mode800())
	if res.Branches == 0 {
		t.Fatal("no branches recorded")
	}
	mis := float64(res.Mispredicts) / float64(res.Branches)
	if mis > 0.05 {
		t.Errorf("loop branch mispredict rate = %v, want < 5%%", mis)
	}

	// Alternating: trip 2 means taken, not-taken, taken, ... per pair.
	p2 := computeOnly(2, 2)
	b := ir.NewBuilder("alt")
	body := b.Block("body")
	exit := b.Block("exit")
	body.Compute(2)
	b.LoopBranch(body, body, exit, 2)
	exit.Compute(1)
	exit.Exit()
	_ = p2
	res2 := run(t, b.MustFinish(), mode800())
	if res2.Branches != 2 {
		t.Errorf("branches = %d", res2.Branches)
	}
}

func TestDVSSameModeEverywhereMatchesFixedRun(t *testing.T) {
	t.Parallel()
	p := memLoop(300, 1<<18, false)
	mach := MustNew(DefaultConfig())
	ms := volt.XScale3()
	fixed, err := mach.Run(p, ir.Input{Name: "d", Seed: 2}, ms.Mode(1))
	if err != nil {
		t.Fatal(err)
	}
	sched := &Schedule{
		Modes:     ms,
		Initial:   1,
		Regulator: volt.DefaultRegulator(),
		Assignment: map[cfg.Edge]int{
			{From: cfg.Entry, To: 0}: 1,
			{From: 0, To: 0}:         1,
			{From: 0, To: 1}:         1,
		},
	}
	dvs, err := mach.RunDVS(p, ir.Input{Name: "d", Seed: 2}, sched)
	if err != nil {
		t.Fatal(err)
	}
	if dvs.Transitions != 0 {
		t.Errorf("transitions = %d, want 0", dvs.Transitions)
	}
	if math.Abs(dvs.TimeUS-fixed.TimeUS) > 1e-9 || math.Abs(dvs.EnergyUJ-fixed.EnergyUJ) > 1e-9 {
		t.Errorf("DVS constant schedule differs from fixed run: %v/%v vs %v/%v",
			dvs.TimeUS, dvs.EnergyUJ, fixed.TimeUS, fixed.EnergyUJ)
	}
}

func TestDVSTransitionCosts(t *testing.T) {
	t.Parallel()
	// Alternate modes on the back edge vs loop exit: every iteration of the
	// loop body switches mode.
	b := ir.NewBuilder("switchy")
	a := b.Block("a")
	c := b.Block("c")
	exit := b.Block("exit")
	a.Compute(100)
	a.Jump(c)
	c.Compute(100)
	b.LoopBranch(c, a, exit, 10)
	exit.Compute(1)
	exit.Exit()
	p := b.MustFinish()

	ms := volt.XScale3()
	reg := volt.DefaultRegulator()
	sched := &Schedule{
		Modes:     ms,
		Initial:   2,
		Regulator: reg,
		Assignment: map[cfg.Edge]int{
			{From: 0, To: 1}: 0, // a→c: drop to 200 MHz
			{From: 1, To: 0}: 2, // c→a: back to 800 MHz
		},
	}
	mach := MustNew(DefaultConfig())
	res, err := mach.RunDVS(p, ir.Input{Name: "d", Seed: 3}, sched)
	if err != nil {
		t.Fatal(err)
	}
	// a→c switches 10 times; c→a switches 9 times (back edge taken 9 times).
	if res.Transitions != 19 {
		t.Errorf("transitions = %d, want 19", res.Transitions)
	}
	wantTime := 19 * reg.TransitionTime(1.65, 0.70)
	if math.Abs(res.TransitionTimeUS-wantTime) > 1e-9 {
		t.Errorf("transition time = %v, want %v", res.TransitionTimeUS, wantTime)
	}
	wantEnergy := 19 * reg.TransitionEnergy(1.65, 0.70)
	if math.Abs(res.TransitionEnergyUJ-wantEnergy) > 1e-9 {
		t.Errorf("transition energy = %v, want %v", res.TransitionEnergyUJ, wantEnergy)
	}
}

func TestDVSScheduleValidation(t *testing.T) {
	t.Parallel()
	p := computeOnly(2, 2)
	mach := MustNew(DefaultConfig())
	ms := volt.XScale3()
	if _, err := mach.RunDVS(p, ir.Input{}, nil); err == nil {
		t.Error("nil schedule accepted")
	}
	if _, err := mach.RunDVS(p, ir.Input{}, &Schedule{Modes: ms, Initial: 9}); err == nil {
		t.Error("bad initial mode accepted")
	}
	bad := &Schedule{Modes: ms, Initial: 0, Assignment: map[cfg.Edge]int{{From: 0, To: 0}: 7}}
	if _, err := mach.RunDVS(p, ir.Input{}, bad); err == nil {
		t.Error("bad mode index accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.L1.Assoc = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero assoc accepted")
	}
	bad = good
	bad.L1.SizeBytes = 60000 // not divisible / non-power-of-two sets
	if err := bad.Validate(); err == nil {
		t.Error("bad L1 size accepted")
	}
	bad = good
	bad.MemLatencyUS = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero memory latency accepted")
	}
	bad = good
	bad.PredictorEntries = 1000
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two predictor accepted")
	}
	bad = good
	bad.CeffComputeNF = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero capacitance accepted")
	}
}

func TestParamsClassification(t *testing.T) {
	t.Parallel()
	p := memLoop(1000, 1<<12, false)
	res := run(t, p, mode800())
	// Body: 20 independent + 10 dependent cycles per iteration, plus 1 at
	// exit and mispredict penalties folded into NOverlap.
	if res.Params.NDependent != 1000*10 {
		t.Errorf("NDependent = %d, want 10000", res.Params.NDependent)
	}
	minOverlap := int64(1000*20 + 1)
	if res.Params.NOverlap < minOverlap {
		t.Errorf("NOverlap = %d, want >= %d", res.Params.NOverlap, minOverlap)
	}
	if res.Params.NCache == 0 {
		t.Error("NCache = 0, want L1-hit cycles")
	}
}

func TestFormatParams(t *testing.T) {
	t.Parallel()
	s := FormatParams(Params{NCache: 732700, NOverlap: 735600, NDependent: 4302000, TInvariantUS: 915.9})
	want := "Ncache=732.7K cycles, Noverlap=735.6K cycles, Ndependent=4302.0K cycles, tinvariant=915.9µs"
	if s != want {
		t.Errorf("FormatParams = %q", s)
	}
}

func TestCacheLRU(t *testing.T) {
	t.Parallel()
	// Direct unit test of the cache structure: 2 sets, 2 ways, 16 B lines.
	c := newCkCache(CacheConfig{SizeBytes: 64, Assoc: 2, LineBytes: 16, LatencyCycles: 1})
	// Addresses mapping to set 0: lines 0, 2, 4 (line = addr>>4).
	if c.access(0x00) {
		t.Error("cold access hit")
	}
	if c.access(0x20) {
		t.Error("cold access hit")
	}
	if !c.access(0x00) {
		t.Error("resident line missed")
	}
	// Insert a third line into set 0: evicts LRU (0x20).
	if c.access(0x40) {
		t.Error("cold access hit")
	}
	// Probing 0x20 misses (it was evicted) and allocates again, evicting 0x00.
	if c.access(0x20) {
		t.Error("evicted line hit")
	}
	if !c.access(0x40) {
		t.Error("resident line missed after probe")
	}
	if c.access(0x00) {
		t.Error("line should have been evicted by the probe allocation")
	}
}

func TestPredictorLearnsBias(t *testing.T) {
	t.Parallel()
	p := newPredictor(16)
	correct := 0
	for i := 0; i < 100; i++ {
		if p.predictAndUpdate(3, true) {
			correct++
		}
	}
	if correct < 98 {
		t.Errorf("always-taken accuracy = %d/100", correct)
	}
}
