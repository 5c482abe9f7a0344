package profile

import (
	"reflect"
	"testing"

	"ctdvs/internal/ir"
	"ctdvs/internal/pipeline"
	"ctdvs/internal/volt"
)

// TestBinaryParity is the round-trip property the store relies on: a profile
// read back from its binary artifact equals the freshly collected one, and
// the binary encoding is deterministic.
func TestBinaryParity(t *testing.T) {
	pr := collect(t)
	p := branchyLoop(500)
	in := ir.Input{Name: "in", Seed: 11}
	modes := volt.XScale3()

	bdata, err := EncodeBinary(pr)
	if err != nil {
		t.Fatal(err)
	}
	if !pipeline.IsBinaryArtifact(bdata) {
		t.Fatal("binary encoding does not carry the artifact magic")
	}
	fromBin, err := DecodeBinary(bdata, p, in, modes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr, fromBin) {
		t.Error("binary round trip changed the profile")
	}

	bdata2, err := EncodeBinary(fromBin)
	if err != nil {
		t.Fatal(err)
	}
	if string(bdata) != string(bdata2) {
		t.Error("binary encode(decode(encode)) is not byte-identical")
	}
}

// TestDecodeBinaryRejects holds the binary profile decoder to clean rejection
// of mismatched identities, garbage, older frame versions and truncation at
// every byte boundary.
func TestDecodeBinaryRejects(t *testing.T) {
	pr := collect(t)
	p := branchyLoop(500)
	in := ir.Input{Name: "in", Seed: 11}
	modes := volt.XScale3()
	data, err := EncodeBinary(pr)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := DecodeBinary(data, p, ir.Input{Name: "other", Seed: 11}, modes); err == nil {
		t.Error("input mismatch accepted")
	}
	if _, err := DecodeBinary(data, p, in, volt.AMDK6Mobile()); err == nil {
		t.Error("mode-set mismatch accepted")
	}
	for n := 0; n < len(data); n += 7 {
		if _, err := DecodeBinary(data[:n], p, in, modes); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(data))
		}
	}
	if _, err := DecodeBinary(append(append([]byte{}, data...), 0), p, in, modes); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := DecodeBinary([]byte("garbage"), p, in, modes); err == nil {
		t.Error("garbage accepted")
	}
	v2 := append([]byte{}, data...)
	v2[4] = 2
	if _, err := DecodeBinary(v2, p, in, modes); err == nil {
		t.Error("version-2 frame accepted")
	}
}
