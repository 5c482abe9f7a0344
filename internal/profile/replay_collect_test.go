package profile

import (
	"reflect"
	"testing"

	"ctdvs/internal/ir"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
)

// memoryHeavy: a loop whose working set overflows L1, so the recorded stream
// carries all three memory outcomes and multi-channel overlap matters.
func memoryHeavy(trips int) *ir.Program {
	b := ir.NewBuilder("memheavy")
	big := b.RandomStream(256 << 10)
	seq := b.SequentialStream(32 << 10)
	head := b.Block("head")
	body := b.Block("body")
	exit := b.Block("exit")
	head.Compute(3).Load(big)
	head.Jump(body)
	body.Load(big).Load(seq).DependentCompute(8).Store(seq)
	b.LoopBranch(body, head, exit, trips)
	exit.Compute(1)
	exit.Exit()
	return b.MustFinish()
}

// TestCollectMatchesPerMode is the tentpole's correctness property at the
// profile layer: the record-once/replay-per-mode Collect must produce a
// Profile structurally identical — bit-for-bit in every float — to the
// per-mode simulation it replaced, across programs, machine configurations
// and mode-set sizes.
func TestCollectMatchesPerMode(t *testing.T) {
	multi := sim.DefaultConfig()
	multi.MemChannels = 3
	leaky := sim.DefaultConfig()
	leaky.StaticPowerMW = 1.5
	cases := []struct {
		name string
		p    *ir.Program
		mc   sim.Config
	}{
		{"branchy-default", branchyLoop(500), sim.DefaultConfig()},
		{"memheavy-multichannel", memoryHeavy(300), multi},
		{"branchy-leaky", branchyLoop(200), leaky},
	}
	for _, tc := range cases {
		for _, levels := range []int{3, 7, 13} {
			ms, err := volt.Levels(levels)
			if err != nil {
				t.Fatal(err)
			}
			in := ir.Input{Name: "in", Seed: 17}
			want, err := CollectPerMode(sim.MustNew(tc.mc), tc.p, in, ms)
			if err != nil {
				t.Fatalf("%s/%d: per-mode: %v", tc.name, levels, err)
			}
			got, err := Collect(sim.MustNew(tc.mc), tc.p, in, ms)
			if err != nil {
				t.Fatalf("%s/%d: replayed: %v", tc.name, levels, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%d: replayed profile differs from per-mode profile", tc.name, levels)
			}
		}
	}
}

// TestCollectFallsBackOutsideEnvelope: when the stream exceeds the recording
// budget, Collect silently degrades to per-mode simulation and still returns
// the identical profile.
func TestCollectFallsBackOutsideEnvelope(t *testing.T) {
	p := branchyLoop(300)
	in := ir.Input{Name: "in", Seed: 29}
	ms := volt.XScale3()
	want, err := CollectPerMode(sim.MustNew(sim.DefaultConfig()), p, in, ms)
	if err != nil {
		t.Fatal(err)
	}
	mc := sim.DefaultConfig()
	mc.RecordBudgetEvents = 2
	got, err := Collect(sim.MustNew(mc), p, in, ms)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("fallback profile differs from per-mode profile")
	}
}

// TestFromRecording: replaying a recording (the exp cache path) matches a
// fresh Collect, and recordings of the wrong workload are rejected.
func TestFromRecording(t *testing.T) {
	p := branchyLoop(400)
	in := ir.Input{Name: "in", Seed: 31}
	ms7, err := volt.Levels(7)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.MustNew(sim.DefaultConfig())
	rec, _, err := m.Record(p, in, volt.XScale3().Max())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(sim.MustNew(sim.DefaultConfig()), p, in, ms7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromRecording(rec, p, in, ms7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("profile from recording differs from Collect")
	}
	if _, err := FromRecording(rec, p, ir.Input{Name: "other", Seed: 31}, ms7); err == nil {
		t.Error("recording of a different input accepted")
	}
}
