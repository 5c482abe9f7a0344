package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ctdvs/internal/cfg"
	"ctdvs/internal/ir"
	"ctdvs/internal/volt"
)

// randomProgram builds a terminating random CFG: forward jumps and
// probabilistic branches (sometimes with both arms on one block, exercising
// edge dedup), counted back edges to arbitrary earlier blocks, and a mix of
// overlap/dependent computation with sequential, strided and random memory
// streams. Working sets overflow the small test caches so all three access
// outcomes occur.
func randomProgram(rng *rand.Rand, name string) (*ir.Program, ir.Input) {
	b := ir.NewBuilder(name)
	n := 1 + rng.Intn(7)
	blocks := make([]*ir.Block, n)
	for i := range blocks {
		blocks[i] = b.Block(fmt.Sprintf("b%d", i))
	}
	nStreams := 1 + rng.Intn(3)
	streams := make([]int, nStreams)
	for i := range streams {
		ws := int64(1<<10) << rng.Intn(6)
		switch rng.Intn(3) {
		case 0:
			streams[i] = b.SequentialStream(ws)
		case 1:
			streams[i] = b.StridedStream(int64(4*(1+rng.Intn(64))), ws)
		default:
			streams[i] = b.RandomStream(ws)
		}
	}
	for i, blk := range blocks {
		for k, nk := 0, rng.Intn(4); k < nk; k++ {
			switch rng.Intn(4) {
			case 0:
				blk.Compute(1 + rng.Intn(40))
			case 1:
				blk.DependentCompute(1 + rng.Intn(20))
			case 2:
				blk.Load(streams[rng.Intn(nStreams)])
			default:
				blk.Store(streams[rng.Intn(nStreams)])
			}
		}
		if i == n-1 {
			blk.Exit()
			continue
		}
		switch rng.Intn(4) {
		case 0:
			blk.Jump(blocks[i+1])
		case 1:
			j := i + 1 + rng.Intn(n-i-1)
			b.ProbBranch(blk, blocks[j], blocks[i+1], rng.Float64())
		case 2:
			b.ProbBranch(blk, blocks[i+1], blocks[i+1], rng.Float64())
		default:
			b.LoopBranch(blk, blocks[rng.Intn(i+1)], blocks[i+1], 2+rng.Intn(5))
		}
	}
	p, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return p, ir.Input{Name: "rand", Seed: rng.Int63()}
}

// replayTestConfigs spans the envelope the replay kernel must reproduce:
// the default machine, tiny caches that force L2 hits and misses,
// multi-channel memory, nonzero leakage, and a zero mispredict penalty.
func replayTestConfigs() []Config {
	small := Config{
		L1:                      CacheConfig{SizeBytes: 1 << 10, Assoc: 2, LineBytes: 32, LatencyCycles: 1},
		L2:                      CacheConfig{SizeBytes: 4 << 10, Assoc: 4, LineBytes: 32, LatencyCycles: 9},
		MemLatencyUS:            0.17,
		MemChannels:             1,
		PredictorEntries:        64,
		MispredictPenaltyCycles: 5,
		CeffComputeNF:           0.33,
		CeffL1NF:                0.41,
		CeffL2NF:                0.77,
	}
	multi := small
	multi.MemChannels = 3
	multi.MemLatencyUS = 0.09
	leaky := small
	leaky.StaticPowerMW = 2.5
	noPen := small
	noPen.MispredictPenaltyCycles = 0
	noPen.MemChannels = 2
	return []Config{DefaultConfig(), small, multi, leaky, noPen}
}

func bitEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkReplayedResult requires got to be bit-identical to want: the float
// fields compared via their IEEE-754 bits, everything else structurally.
func checkReplayedResult(t *testing.T, ctx string, want, got *Result) {
	t.Helper()
	if !bitEqual(want.TimeUS, got.TimeUS) || !bitEqual(want.EnergyUJ, got.EnergyUJ) ||
		!bitEqual(want.LeakageEnergyUJ, got.LeakageEnergyUJ) ||
		!bitEqual(want.Params.TInvariantUS, got.Params.TInvariantUS) {
		t.Errorf("%s: totals differ: time %x/%x energy %x/%x", ctx,
			math.Float64bits(want.TimeUS), math.Float64bits(got.TimeUS),
			math.Float64bits(want.EnergyUJ), math.Float64bits(got.EnergyUJ))
	}
	for j := range want.Blocks {
		if !bitEqual(want.Blocks[j].TimeUS, got.Blocks[j].TimeUS) ||
			!bitEqual(want.Blocks[j].EnergyUJ, got.Blocks[j].EnergyUJ) ||
			want.Blocks[j].Invocations != got.Blocks[j].Invocations {
			t.Errorf("%s: block %d differs: %+v vs %+v", ctx, j, want.Blocks[j], got.Blocks[j])
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: results differ:\nwant %+v\ngot  %+v", ctx, want, got)
	}
}

func TestReplayMatchesRunBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ms5, err := volt.Uniform(5, 0.8, 1.6, volt.DefaultScaling())
	if err != nil {
		t.Fatal(err)
	}
	modeSets := [][]volt.Mode{volt.XScale3().Modes(), ms5.Modes()}
	for ci, mc := range replayTestConfigs() {
		for pi := 0; pi < 6; pi++ {
			p, in := randomProgram(rng, fmt.Sprintf("rand-%d-%d", ci, pi))
			modes := modeSets[pi%len(modeSets)]
			m := MustNew(mc)
			ref := modes[len(modes)-1]
			rec, refRes, err := m.Record(p, in, ref)
			if err != nil {
				t.Fatalf("cfg %d prog %d: record: %v", ci, pi, err)
			}
			// Recording must not perturb the instrumented run.
			direct, err := m.Run(p, in, ref)
			if err != nil {
				t.Fatal(err)
			}
			checkReplayedResult(t, fmt.Sprintf("cfg %d prog %d: recorded run", ci, pi), direct, refRes)

			batch, err := rec.ReplayAll(modes)
			if err != nil {
				t.Fatal(err)
			}
			refm := MustNew(mc)
			for mi, mode := range modes {
				want, err := m.Run(p, in, mode)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rec.Replay(mode)
				if err != nil {
					t.Fatal(err)
				}
				ctx := fmt.Sprintf("cfg %d prog %d mode %v", ci, pi, mode)
				checkReplayedResult(t, ctx, want, got)
				checkReplayedResult(t, ctx+" (batched)", want, batch[mi])
				// Replay must also match the reference interpreter, closing
				// the Run ↔ Record ↔ Replay ↔ reference identity square.
				refRes, err := refm.refRun(p, in, mode)
				if err != nil {
					t.Fatal(err)
				}
				checkReplayedResult(t, ctx+" (reference)", refRes, got)
			}
		}
	}
}

func TestReplayDegenerateSingleBlock(t *testing.T) {
	b := ir.NewBuilder("one")
	s := b.SequentialStream(8 << 10)
	blk := b.Block("only")
	blk.Compute(12).Load(s).DependentCompute(3).Store(s)
	blk.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	in := ir.Input{Name: "in", Seed: 3}
	m := MustNew(DefaultConfig())
	mode := volt.XScale3().Max()
	rec, _, err := m.Record(p, in, mode)
	if err != nil {
		t.Fatal(err)
	}
	for _, md := range volt.XScale3().Modes() {
		want, err := m.Run(p, in, md)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rec.Replay(md)
		if err != nil {
			t.Fatal(err)
		}
		checkReplayedResult(t, md.String(), want, got)
	}
	if len(rec.Trace) != 1 || rec.Trace[0] != 0 {
		t.Errorf("single-block trace = %v", rec.Trace)
	}
}

func TestRecordEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, in := randomProgram(rng, "envelope")
	mode := volt.XScale3().Max()

	negative := DefaultConfig()
	negative.RecordBudgetEvents = -1
	if _, err := New(negative); err == nil {
		t.Error("New accepted a negative record budget")
	}

	tiny := DefaultConfig()
	tiny.RecordBudgetEvents = 2
	m := MustNew(tiny)
	if _, _, err := m.Record(p, in, mode); !errors.Is(err, ErrUnrecordable) {
		t.Errorf("tiny budget: err = %v, want ErrUnrecordable", err)
	}
	// The machine stays usable for plain runs after an aborted recording.
	if _, err := m.Run(p, in, mode); err != nil {
		t.Fatalf("run after aborted recording: %v", err)
	}
}

func TestReplayUnboundRecording(t *testing.T) {
	rec := &Recording{}
	if _, err := rec.Replay(volt.XScale3().Max()); err == nil {
		t.Error("replay of unbound recording succeeded")
	}
}

// TestDenseCountsMatchGraph pins the correspondence between the simulator's
// dense count arrays and cfg.FromProgram numbering: EdgeCountsByID[g.EdgeID(e)]
// must equal countMaps' count of e, and PathCountsByID must follow g.Paths
// order. countMaps derives its keys from buildBlockInfo's independent
// numbering, so agreement here pins the two numberings to each other.
func TestDenseCountsMatchGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := MustNew(DefaultConfig())
	for pi := 0; pi < 8; pi++ {
		p, in := randomProgram(rng, fmt.Sprintf("dense-%d", pi))
		res, err := m.Run(p, in, volt.XScale3().Mode(1))
		if err != nil {
			t.Fatal(err)
		}
		g, err := cfg.FromProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.EdgeCountsByID) != g.NumEdges() || len(res.PathCountsByID) != len(g.Paths) {
			t.Fatalf("prog %d: dense dims (%d, %d), graph (%d, %d)",
				pi, len(res.EdgeCountsByID), len(res.PathCountsByID), g.NumEdges(), len(g.Paths))
		}
		edgeCounts, pathCounts, err := countMaps(p, res)
		if err != nil {
			t.Fatal(err)
		}
		for id, e := range g.Edges {
			if res.EdgeCountsByID[id] != edgeCounts[e] {
				t.Errorf("prog %d: edge %v: dense %d, map %d", pi, e, res.EdgeCountsByID[id], edgeCounts[e])
			}
		}
		for id, pt := range g.Paths {
			if res.PathCountsByID[id] != pathCounts[pt] {
				t.Errorf("prog %d: path %v: dense %d, map %d", pi, pt, res.PathCountsByID[id], pathCounts[pt])
			}
		}
	}
}

// TestConcurrentReplay replays one recorded stream from many goroutines at
// once; the race detector (make ci) guards the immutability of a bound
// Recording, and every goroutine must see bit-identical results.
func TestConcurrentReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p, in := randomProgram(rng, "concurrent")
	m := MustNew(DefaultConfig())
	modes := volt.XScale3().Modes()
	rec, _, err := m.Record(p, in, modes[len(modes)-1])
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := rec.ReplayAll(modes)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got, err := rec.ReplayAll(modes)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			if !reflect.DeepEqual(baseline, got) {
				t.Errorf("worker %d: replay diverged", w)
			}
			one, err := rec.Replay(modes[w%len(modes)])
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			if !reflect.DeepEqual(baseline[w%len(modes)], one) {
				t.Errorf("worker %d: single replay diverged", w)
			}
		}(w)
	}
	wg.Wait()
}
