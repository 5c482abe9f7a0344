package schedfile

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ctdvs/internal/ir"
	"ctdvs/internal/pipeline"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
)

func recordingFixture(t testing.TB) (*ir.Program, ir.Input, sim.Config, *sim.Recording) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	b := ir.NewBuilder("codec")
	s := b.SequentialStream(32 << 10)
	r := b.RandomStream(64 << 10)
	head := b.Block("head")
	body := b.Block("body")
	tail := b.Block("tail")
	head.Compute(7).Load(s)
	b.LoopBranch(head, head, body, 40)
	body.Load(r).DependentCompute(5).Store(s)
	b.ProbBranch(body, head, tail, 0.4)
	tail.Compute(3)
	tail.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	in := ir.Input{Name: "in", Seed: rng.Int63()}
	mc := sim.DefaultConfig()
	rec, _, err := sim.MustNew(mc).Record(p, in, volt.XScale3().Max())
	if err != nil {
		t.Fatal(err)
	}
	return p, in, mc, rec
}

// TestRecordingBinaryParity is the round-trip property the store relies on:
// a recording read back from its binary artifact equals the freshly recorded
// one, replays bit-identically at every mode, and re-encodes to the same
// bytes.
func TestRecordingBinaryParity(t *testing.T) {
	p, in, mc, rec := recordingFixture(t)

	bdata, err := EncodeRecordingBinary(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !pipeline.IsBinaryArtifact(bdata) {
		t.Fatal("binary encoding does not carry the artifact magic")
	}
	fromBin, err := DecodeRecordingBinary(bdata, p, in, mc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, fromBin) {
		t.Errorf("binary round trip changed the recording:\nwant %+v\ngot  %+v", rec, fromBin)
	}

	want, err := rec.ReplayAll(volt.XScale3().Modes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := fromBin.ReplayAll(volt.XScale3().Modes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("binary-decoded recording replays differently")
	}

	// Determinism: encode(decode(encode(x))) == encode(x).
	bdata2, err := EncodeRecordingBinary(fromBin)
	if err != nil {
		t.Fatal(err)
	}
	if string(bdata) != string(bdata2) {
		t.Error("binary encode(decode(encode)) is not byte-identical")
	}
}

// TestRecordingRoundTrip carries degenerate recordings through the store
// codec: a branch-free, memory-free program leaves the bitstreams empty, and a
// straight-line program with loads has memory events but no branch events.
// Each must decode to the recording it was encoded from and replay the same.
func TestRecordingRoundTrip(t *testing.T) {
	computeOnly := func() (*ir.Program, error) {
		b := ir.NewBuilder("compute-only")
		only := b.Block("only")
		only.Compute(9).DependentCompute(4)
		only.Exit()
		return b.Finish()
	}
	loadsOnly := func() (*ir.Program, error) {
		b := ir.NewBuilder("loads-only")
		s := b.SequentialStream(16 << 10)
		first := b.Block("first")
		second := b.Block("second")
		first.Compute(2).Load(s).Load(s)
		first.Jump(second)
		second.Load(s).Store(s)
		second.Exit()
		return b.Finish()
	}
	for name, tc := range map[string]struct {
		build  func() (*ir.Program, error)
		hasMem bool
	}{
		"compute only": {computeOnly, false},
		"loads only":   {loadsOnly, true},
	} {
		t.Run(name, func(t *testing.T) {
			p, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			in := ir.Input{Name: "in", Seed: 3}
			mc := sim.DefaultConfig()
			rec, _, err := sim.MustNew(mc).Record(p, in, volt.XScale3().Max())
			if err != nil {
				t.Fatal(err)
			}
			if rec.BranchOps != 0 || (rec.MemOps > 0) != tc.hasMem {
				t.Fatalf("fixture recorded %d branch and %d memory events", rec.BranchOps, rec.MemOps)
			}
			data, err := EncodeRecordingBinary(rec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeRecordingBinary(data, p, in, mc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rec, got) {
				t.Errorf("round trip changed the recording:\nwant %+v\ngot  %+v", rec, got)
			}
			want, err := rec.ReplayAll(volt.XScale3().Modes())
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := got.ReplayAll(volt.XScale3().Modes())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, replayed) {
				t.Error("decoded recording replays differently")
			}
		})
	}
}

// TestDecodeRecordingRejectsMismatches holds the decoder to the identity a
// recording is keyed by: the program name and every machine parameter the
// artifact stores.
func TestDecodeRecordingRejectsMismatches(t *testing.T) {
	p, in, mc, rec := recordingFixture(t)
	data, err := EncodeRecordingBinary(rec)
	if err != nil {
		t.Fatal(err)
	}

	renamed := *p
	renamed.Name = "other"
	if _, err := DecodeRecordingBinary(data, &renamed, in, mc); err == nil || !strings.Contains(err.Error(), "is for") {
		t.Errorf("program-name mismatch: err = %v", err)
	}

	for name, change := range map[string]func(*sim.Config){
		"L1 size":            func(c *sim.Config) { c.L1.SizeBytes *= 2 },
		"L2 assoc":           func(c *sim.Config) { c.L2.Assoc *= 2 },
		"L2 latency":         func(c *sim.Config) { c.L2.LatencyCycles++ },
		"memory channels":    func(c *sim.Config) { c.MemChannels++ },
		"static power":       func(c *sim.Config) { c.StaticPowerMW += 1 },
		"predictor entries":  func(c *sim.Config) { c.PredictorEntries *= 2 },
		"mispredict penalty": func(c *sim.Config) { c.MispredictPenaltyCycles++ },
		"record budget":      func(c *sim.Config) { c.RecordBudgetEvents++ },
		"compute Ceff":       func(c *sim.Config) { c.CeffComputeNF *= 1.5 },
		"L2 Ceff":            func(c *sim.Config) { c.CeffL2NF *= 1.5 },
	} {
		other := mc
		change(&other)
		if _, err := DecodeRecordingBinary(data, p, in, other); err == nil || !strings.Contains(err.Error(), "machine") {
			t.Errorf("%s mismatch: err = %v", name, err)
		}
	}

	got, err := DecodeRecordingBinary(data, p, in, mc)
	if err != nil {
		t.Fatalf("matching machine rejected: %v", err)
	}
	if got.Config != mc {
		t.Errorf("decoded recording carries config %+v, want the caller's %+v", got.Config, mc)
	}
}

// TestDecodeRecordingBinaryRejects holds the binary decoder to rejecting — not
// crashing on, not over-allocating for — malformed frames: wrong identity,
// wrong machine, a structurally different program, a well-framed but
// tampered stream, and truncation at every byte boundary.
func TestDecodeRecordingBinaryRejects(t *testing.T) {
	p, in, mc, rec := recordingFixture(t)
	data, err := EncodeRecordingBinary(rec)
	if err != nil {
		t.Fatal(err)
	}

	otherCfg := mc
	otherCfg.MemLatencyUS *= 2
	if _, err := DecodeRecordingBinary(data, p, in, otherCfg); err == nil || !strings.Contains(err.Error(), "machine") {
		t.Errorf("config mismatch: err = %v", err)
	}
	if _, err := DecodeRecordingBinary(data, p, ir.Input{Name: "other", Seed: in.Seed}, mc); err == nil {
		t.Error("input mismatch accepted")
	}

	b := ir.NewBuilder("codec") // same name, different structure
	blk := b.Block("only")
	blk.Compute(1)
	blk.Exit()
	p2, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRecordingBinary(data, p2, in, mc); err == nil {
		t.Error("structurally different program accepted")
	}

	// A well-framed artifact whose block trace lost its last entry decodes
	// cleanly and must be rejected by Bind's stream validation.
	tampered := *rec
	tampered.Trace = rec.Trace[:len(rec.Trace)-1]
	tdata, err := EncodeRecordingBinary(&tampered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRecordingBinary(tdata, p, in, mc); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("truncated trace: err = %v, want a Bind rejection", err)
	}

	// Every truncation must be rejected cleanly, including cuts inside the
	// frame header, the varint trace and the raw bitstream words.
	for n := 0; n < len(data); n++ {
		if _, err := DecodeRecordingBinary(data[:n], p, in, mc); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(data))
		}
	}
	// Trailing garbage is rejected by the exact-consumption check.
	if _, err := DecodeRecordingBinary(append(append([]byte{}, data...), 0), p, in, mc); err == nil {
		t.Error("trailing byte accepted")
	}
	// A frame claiming a giant trace must fail before allocating.
	huge := append([]byte("CTDB\x03\x01\x01"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if _, err := DecodeRecordingBinary(huge, p, in, mc); err == nil {
		t.Error("giant claimed length accepted")
	}
	if _, err := DecodeRecordingBinary([]byte("CTDB\x03\x01"), p, in, mc); err == nil {
		t.Error("empty payload accepted")
	}
	// Artifacts of the older frame versions (v1, and v2 with its alignment
	// padding) are rejected at the frame header — they re-miss and are
	// rewritten, never misparsed.
	for _, old := range []byte{1, 2} {
		legacy := append([]byte{}, data...)
		legacy[4] = old
		if _, err := DecodeRecordingBinary(legacy, p, in, mc); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("legacy version %d: err = %v", old, err)
		}
	}
}

// FuzzDecodeRecordingBinary throws arbitrary bytes at the binary recording
// decoder and holds it to returning errors, never panicking or allocating
// from unchecked lengths. Anything it accepts against the fixture program
// must re-encode deterministically.
func FuzzDecodeRecordingBinary(f *testing.F) {
	p, in, mc, rec := recordingFixture(f)
	valid, err := EncodeRecordingBinary(rec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// Targeted corruptions: bad magic, legacy and future versions, wrong tag,
	// truncated header, huge claimed trace length, flipped payload bytes, and
	// cuts inside the raw trace words and the params tail.
	f.Add([]byte{})
	f.Add([]byte("CTDB"))
	f.Add([]byte("CTDB\x02\x01")) // version 2: padded layout, must re-miss
	f.Add([]byte("CTDB\x04\x01")) // future version
	f.Add([]byte("CTDB\x03\x03")) // wrong tag
	f.Add(append([]byte("CTDB\x03\x01"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	if len(valid) > 8 {
		half := append([]byte{}, valid[:len(valid)/2]...)
		f.Add(half)
		flipped := append([]byte{}, valid...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
		f.Add(append([]byte{}, valid[:len(valid)-3]...)) // cut inside the params tail
		f.Add(append([]byte{}, valid[:len(valid)*3/4]...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeRecordingBinary(data, p, in, mc)
		if err != nil {
			return // rejection is the expected outcome for garbage
		}
		enc, err := EncodeRecordingBinary(got)
		if err != nil {
			t.Fatalf("accepted recording failed to encode: %v", err)
		}
		got2, err := DecodeRecordingBinary(enc, p, in, mc)
		if err != nil {
			t.Fatalf("re-decode of accepted recording failed: %v", err)
		}
		if !reflect.DeepEqual(got, got2) {
			t.Fatal("binary encode/decode round trip changed the recording")
		}
	})
}
