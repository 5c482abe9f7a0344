package profile

import (
	"reflect"
	"testing"
)

// FuzzDecodeBinary throws arbitrary bytes at the binary profile decoder, the
// one the warm read path trusts, and holds it to the same contract as the
// other artifact codecs: errors for garbage, no panics, no allocation from
// unchecked lengths, and deterministic re-encoding of anything accepted.
func FuzzDecodeBinary(f *testing.F) {
	pr := collect(f)
	valid, err := EncodeBinary(pr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// Targeted corruptions: bad magic, legacy and future versions, wrong
	// tag, a huge claimed mode count, a flipped byte inside the matrices,
	// and cuts inside the matrices and the params tail.
	f.Add([]byte{})
	f.Add([]byte("CTDB"))
	f.Add([]byte("CTDB\x02\x02")) // version 2: padded layout, must re-miss
	f.Add([]byte("CTDB\x04\x02")) // future version
	f.Add([]byte("CTDB\x03\x01")) // wrong tag
	f.Add(append([]byte("CTDB\x03\x02\x01\x07branchy\x02in"), 0xfe, 0xff, 0xff, 0xff, 0x0f))
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(append([]byte{}, valid[:len(valid)/2]...))
	f.Add(append([]byte{}, valid[:len(valid)-3]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeBinary(data, pr.Program, pr.Input, pr.Modes)
		if err != nil {
			return // rejection is the expected outcome for garbage
		}
		enc, err := EncodeBinary(got)
		if err != nil {
			t.Fatalf("accepted profile failed to encode: %v", err)
		}
		got2, err := DecodeBinary(enc, pr.Program, pr.Input, pr.Modes)
		if err != nil {
			t.Fatalf("re-decode of accepted profile failed: %v", err)
		}
		if !reflect.DeepEqual(got, got2) {
			t.Fatal("binary encode/decode round trip changed the profile")
		}
	})
}
