package profile

import (
	"bytes"
	"strings"
	"testing"

	"ctdvs/internal/ir"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
)

// TestCodecRoundTrip: the JSON encoding that fingerprints hash — and so the
// solve keys downstream of a profile — is byte-identical whether the profile
// was freshly collected or read back from its binary store artifact.
func TestCodecRoundTrip(t *testing.T) {
	pr := collect(t)
	bdata, err := EncodeBinary(pr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(bdata, pr.Program, pr.Input, pr.Modes)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Encode(pr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, data) {
		t.Fatal("a store round trip changed the fingerprinted encoding")
	}
}

func TestFingerprintStable(t *testing.T) {
	pr := collect(t)
	fp1, err := Fingerprint(pr)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := Fingerprint(pr)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 || len(fp1) != 64 {
		t.Fatalf("fingerprint unstable or malformed: %q vs %q", fp1, fp2)
	}
	// A fresh collection of the same deterministic workload fingerprints
	// identically — the cross-process stability the cache depends on.
	m := sim.MustNew(sim.DefaultConfig())
	pr2, err := Collect(m, branchyLoop(500), ir.Input{Name: "in", Seed: 11}, volt.XScale3())
	if err != nil {
		t.Fatal(err)
	}
	fp3, err := Fingerprint(pr2)
	if err != nil {
		t.Fatal(err)
	}
	if fp3 != fp1 {
		t.Fatal("re-collected profile fingerprints differently")
	}
}

// TestDecodeRejectsMismatch holds the store decoder to its identity checks:
// an artifact read against a different program name, a same-named program of
// a different shape, or a mode set of the same size but other operating
// points is reported, never returned as the caller's profile.
func TestDecodeRejectsMismatch(t *testing.T) {
	pr := collect(t)
	data, err := EncodeBinary(pr)
	if err != nil {
		t.Fatal(err)
	}

	renamed := branchyLoop(500)
	renamed.Name = "other"
	if _, err := DecodeBinary(data, renamed, pr.Input, pr.Modes); err == nil || !strings.Contains(err.Error(), "is for") {
		t.Errorf("program-name mismatch: err = %v", err)
	}

	b := ir.NewBuilder(pr.Program.Name) // same name, different structure
	only := b.Block("only")
	only.Compute(1)
	only.Exit()
	reshaped := b.MustFinish()
	if _, err := DecodeBinary(data, reshaped, pr.Input, pr.Modes); err == nil || !strings.Contains(err.Error(), "graph dims") {
		t.Errorf("structurally different program: err = %v", err)
	}

	// Same mode count as the artifact, one operating point moved: the
	// per-mode check, not the count check, must catch it.
	moved := pr.Modes.Modes()
	moved[1].V += 0.05
	if _, err := DecodeBinary(data, pr.Program, pr.Input, volt.MustModeSet(moved)); err == nil || !strings.Contains(err.Error(), "mode 1") {
		t.Errorf("moved operating point: err = %v", err)
	}
}
