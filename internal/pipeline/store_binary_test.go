package pipeline

import (
	"fmt"
	"os"
	"sync"
	"testing"
)

// binIntStage is a binary-format stage for store tests. The binary layout is
// a single varint under the profile tag.
func binIntStage(kind Kind) Stage[int] {
	return Stage[int]{
		Kind:   kind,
		Format: FormatBinary,
		Encode: func(v int) ([]byte, error) {
			w := NewBinWriter(BinTagProfile, 16)
			w.Varint(int64(v))
			return w.Bytes(), nil
		},
		Decode: func(data []byte) (int, error) {
			r, err := NewBinReader(data, BinTagProfile)
			if err != nil {
				return 0, err
			}
			v := r.Int()
			if err := r.Done(); err != nil {
				return 0, err
			}
			return v, nil
		},
	}
}

// TestStoreWritesBinaryForCapableStages pins the format routing: a binary
// stage's artifact is written as .bin, a fresh runner warm-reads it, and no
// .json twin is written.
func TestStoreWritesBinaryForCapableStages(t *testing.T) {
	dir := t.TempDir()
	st := binIntStage(StageProfile)
	key := testKey("bin-write")

	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(NewRunner(store), st, key, func() (int, error) { return 99, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(store.Path(StageProfile, key, FormatBinary)); err != nil {
		t.Fatalf("binary artifact missing: %v", err)
	}
	if _, err := os.Stat(store.Path(StageProfile, key, FormatJSON)); !os.IsNotExist(err) {
		t.Fatalf("unexpected JSON twin: %v", err)
	}

	// A fresh runner over the same directory warm-reads the binary artifact.
	store2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewRunner(store2)
	v, err := Run(warm, st, key, func() (int, error) { t.Fatal("recompute on warm read"); return 0, nil })
	if err != nil || v != 99 {
		t.Fatalf("warm read = %d, %v", v, err)
	}
	if !warm.Manifest().AllHits() {
		t.Error("warm manifest reports misses")
	}
}

// TestRunnerCorruptBinaryArtifact pins the damage policy: a truncated or
// corrupt binary artifact is a cache miss (recompute, overwrite), never an
// error.
func TestRunnerCorruptBinaryArtifact(t *testing.T) {
	st := binIntStage(StageProfile)

	t.Run("no fallback recomputes", func(t *testing.T) {
		store, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		key := testKey("corrupt-bin")
		valid, err := st.Encode(123)
		if err != nil {
			t.Fatal(err)
		}
		for i, bad := range [][]byte{
			valid[:4],                      // cut inside the magic
			valid[:len(valid)-1],           // cut inside the payload
			[]byte("CTDB\xff\xff garbage"), // wrong version
			{},                             // empty file
		} {
			if err := store.Put(StageProfile, key, bad, FormatBinary); err != nil {
				t.Fatal(err)
			}
			computes := 0
			v, err := Run(NewRunner(store), st, key, func() (int, error) { computes++; return 55, nil })
			if err != nil || v != 55 || computes != 1 {
				t.Fatalf("case %d: v=%d computes=%d err=%v", i, v, computes, err)
			}
			// The recompute overwrote the damaged artifact.
			data, _, ok, err := store.Get(StageProfile, key, FormatBinary)
			if err != nil || !ok {
				t.Fatalf("case %d: artifact after recompute ok=%v err=%v", i, ok, err)
			}
			if got, err := st.Decode(data); err != nil || got != 55 {
				t.Fatalf("case %d: rewritten artifact decodes to %d, %v", i, got, err)
			}
		}
	})

}

// TestStoreConcurrentPuts hammers one store from many goroutines — same
// shard, distinct keys, plus racing writers on one shared key — and then
// requires every artifact to read back complete. Run under -race (make ci)
// this also gates the shard-directory cache and buffer pool for data races.
func TestStoreConcurrentPuts(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	shared := testKey("shared")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := testKey("concurrent", fmt.Sprint(w))
			payload := []byte(fmt.Sprintf("artifact-%02d", w))
			for i := 0; i < 20; i++ {
				if err := store.Put(StageRecording, key, payload, FormatBinary); err != nil {
					t.Error(err)
					return
				}
				// Racing writers of identical bytes on one key: atomic
				// temp+rename means readers never observe a torn file.
				if err := store.Put(StageRecording, shared, []byte("shared-bytes"), FormatBinary); err != nil {
					t.Error(err)
					return
				}
				if data, _, ok, err := store.Get(StageRecording, shared, FormatBinary); err != nil || !ok || string(data) != "shared-bytes" {
					t.Errorf("torn shared read: %q ok=%v err=%v", data, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		key := testKey("concurrent", fmt.Sprint(w))
		data, _, ok, err := store.Get(StageRecording, key, FormatBinary)
		if err != nil || !ok || string(data) != fmt.Sprintf("artifact-%02d", w) {
			t.Fatalf("writer %d: %q ok=%v err=%v", w, data, ok, err)
		}
	}
}

// TestStoreShardDirCaching pins the MkdirAll caching contract: repeated Puts
// into one shard keep working (the second sees the remembered directory), and
// shards are physically distinct per key prefix.
func TestStoreShardDirCaching(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("shard-cache")
	for i := 0; i < 3; i++ {
		if err := store.Put(StageSolve, key, []byte(fmt.Sprint(i)), FormatJSON); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	data, _, ok, err := store.Get(StageSolve, key, FormatJSON)
	if err != nil || !ok || string(data) != "2" {
		t.Fatalf("after rewrites: %q ok=%v err=%v", data, ok, err)
	}
	// Distinct key prefixes land in distinct shard directories.
	other := testKey("a", "different", "artifact")
	if err := store.Put(StageSolve, other, []byte("x"), FormatJSON); err != nil {
		t.Fatal(err)
	}
	if string(key[:2]) != string(other[:2]) {
		d1 := store.Path(StageSolve, key, FormatJSON)
		d2 := store.Path(StageSolve, other, FormatJSON)
		if d1 == d2 {
			t.Error("distinct keys share one artifact path")
		}
	}
}
