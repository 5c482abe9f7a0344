package pipeline

import (
	"errors"
	"os"
	"testing"
)

// corruptBin is a frame with a valid header and a garbage payload: it passes
// the frame check and fails only in the stage decoder.
var corruptBin = append([]byte{'C', 'T', 'D', 'B', BinVersion, BinTagProfile}, 0xFF, 0xFF, 0xFF)

// TestLoadArtifactDeletesCorruptBinary is the regression test for the warm
// read path: a damaged binary artifact must be deleted on read, so the next
// warm read stops paying a doomed decode, and recomputed to the same value a
// fresh computation gives. A well-formed artifact of the previous frame
// version (v2) is damage too: it fails at the header.
func TestLoadArtifactDeletesCorruptBinary(t *testing.T) {
	st := binIntStage(StageSolve)
	v2, err := st.Encode(7)
	if err != nil {
		t.Fatal(err)
	}
	v2[4] = 2
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"garbage payload", corruptBin},
		{"v2 header", v2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			key := testKey("corrupt-bin", tc.name)
			if err := store.Put(StageSolve, key, tc.data, FormatBinary); err != nil {
				t.Fatal(err)
			}
			path := store.Path(StageSolve, key, FormatBinary)

			// A failing recompute writes nothing, so whatever is on disk
			// afterwards is what the read left: nothing.
			boom := errors.New("boom")
			if _, err := Run(NewRunner(store), st, key, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the recompute error", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("damaged artifact still on disk after a failed read: %v", err)
			}

			if err := store.Put(StageSolve, key, tc.data, FormatBinary); err != nil {
				t.Fatal(err)
			}
			computes := 0
			v, err := Run(NewRunner(store), st, key, func() (int, error) { computes++; return 7, nil })
			if err != nil || v != 7 || computes != 1 {
				t.Fatalf("v=%d computes=%d err=%v", v, computes, err)
			}
			warm := NewRunner(store)
			v, err = Run(warm, st, key, func() (int, error) { return -1, nil })
			if err != nil || v != 7 {
				t.Fatalf("warm v=%d err=%v, want the recomputed value", v, err)
			}
			if !warm.Manifest().AllHits() {
				t.Errorf("rewritten artifact missed: %+v", warm.Manifest().Records())
			}
		})
	}
}

// TestLoadArtifactCorruptBinaryNoTwinRecomputes: a damaged binary is a miss;
// the recompute overwrites it with a good one.
func TestLoadArtifactCorruptBinaryNoTwinRecomputes(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := binIntStage(StageSolve)
	key := testKey("corrupt-bin-solo")
	if err := store.Put(StageSolve, key, corruptBin, FormatBinary); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(store)
	v, err := Run(r, st, key, func() (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	// The rewrite is good: a fresh runner over the same store disk-hits.
	r2 := NewRunner(store)
	v, err = Run(r2, st, key, func() (int, error) { return -1, nil })
	if err != nil || v != 9 {
		t.Fatalf("warm v=%d err=%v", v, err)
	}
	if !r2.Manifest().AllHits() {
		t.Errorf("rewritten artifact missed: %+v", r2.Manifest().Records())
	}
}
