package pipeline

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// putBoth writes an artifact under both extensions, as a cache written by
// an older build may hold, and returns the combined size. Compact and
// DiskStats count each file on its own.
func putBoth(t *testing.T, s *Store, key Key, binSize, jsonSize int) int64 {
	t.Helper()
	if err := s.Put(StageProfile, key, bytes.Repeat([]byte{0xCB}, binSize), FormatBinary); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(StageProfile, key, bytes.Repeat([]byte{'j'}, jsonSize), FormatJSON); err != nil {
		t.Fatal(err)
	}
	return int64(binSize + jsonSize)
}

func TestDiskStats(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putBoth(t, s, testKey("ds-1"), 100, 50)
	if err := s.Put(StageSolve, testKey("ds-2"), make([]byte, 30), FormatBinary); err != nil {
		t.Fatal(err)
	}
	ds, err := s.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.TotalArtifacts != 3 || ds.TotalBytes != 180 {
		t.Fatalf("totals = %d artifacts, %d bytes", ds.TotalArtifacts, ds.TotalBytes)
	}
	if ks := ds.Kinds[StageProfile]; ks.Artifacts != 2 || ks.Bytes != 150 {
		t.Fatalf("profile kind = %+v", ks)
	}
	if ks := ds.Kinds[StageSolve]; ks.Artifacts != 1 || ks.Bytes != 30 {
		t.Fatalf("solve kind = %+v", ks)
	}
}

// TestCompactUnderBudgetIsNoop: a store already within budget loses nothing.
func TestCompactUnderBudgetIsNoop(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	total := putBoth(t, s, testKey("fit"), 100, 60)
	st, err := s.Compact(total + 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.EvictedArtifacts != 0 || st.BytesAfter != total {
		t.Fatalf("stats = %+v", st)
	}
	// Budget 0 means "no budget": report/cleanup only, never evict.
	if st, err := s.Compact(0); err != nil || st.EvictedArtifacts != 0 {
		t.Fatalf("budget 0 evicted: %+v err=%v", st, err)
	}
}

// TestCompactLRUOrder: eviction is least-recently-used. With no access
// record, file mtime carries the order.
func TestCompactLRUOrder(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old, mid, fresh := testKey("lru-old"), testKey("lru-mid"), testKey("lru-new")
	for _, k := range []Key{old, mid, fresh} {
		if err := s.Put(StageProfile, k, make([]byte, 100), FormatBinary); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Now()
	for i, k := range []Key{old, mid, fresh} {
		mt := now.Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(s.Path(StageProfile, k, FormatBinary), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Compact(150)
	if err != nil {
		t.Fatal(err)
	}
	if st.EvictedArtifacts != 2 {
		t.Fatalf("stats = %+v, want 2 evictions", st)
	}
	if _, err := os.Stat(s.Path(StageProfile, fresh, FormatBinary)); err != nil {
		t.Error("most recent artifact evicted")
	}
	for _, k := range []Key{old, mid} {
		if _, err := os.Stat(s.Path(StageProfile, k, FormatBinary)); !os.IsNotExist(err) {
			t.Errorf("stale artifact %s survived", k)
		}
	}
	if ev := s.Evictions(); ev.Compactions != 1 || ev.EvictedArtifacts != 2 || ev.EvictedBytes != 200 {
		t.Errorf("gauges = %+v", ev)
	}
}

// TestCompactAtimeSidecarSurvivesRestart: an access recorded by one process
// protects the artifact from a later process's LRU pass via the sidecar
// index, even when file mtimes say otherwise.
func TestCompactAtimeSidecarSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := testKey("sidecar-hot"), testKey("sidecar-cold")
	for _, k := range []Key{hot, cold} {
		if err := s.Put(StageProfile, k, make([]byte, 100), FormatBinary); err != nil {
			t.Fatal(err)
		}
		// Both files look ancient on disk.
		mt := time.Now().Add(-24 * time.Hour)
		if err := os.Chtimes(s.Path(StageProfile, k, FormatBinary), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Only hot is read; Close persists that access to the sidecar.
	if _, _, ok, err := s.Get(StageProfile, hot, FormatBinary); err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, atimeIndexName)); err != nil {
		t.Fatalf("sidecar index missing after Close: %v", err)
	}

	// A fresh process has no in-memory atimes: the sidecar must carry them.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Compact(150); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s2.Path(StageProfile, hot, FormatBinary)); err != nil {
		t.Error("recently read artifact evicted despite sidecar atime")
	}
	if _, err := os.Stat(s2.Path(StageProfile, cold, FormatBinary)); !os.IsNotExist(err) {
		t.Error("never-read artifact survived over the recently read one")
	}
}

// TestCompactDamagedSidecarFallsBack: a corrupt sidecar index degrades to
// mtime order instead of failing the compaction.
func TestCompactDamagedSidecarFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, atimeIndexName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(StageProfile, testKey("dmg"), make([]byte, 10), FormatBinary); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(5); err != nil {
		t.Fatalf("compact with damaged sidecar: %v", err)
	}
}

// TestCompactRemovesStaleTemps: orphaned temp files from crashed writers are
// reclaimed once they are old enough that no live Put can own them, and
// fresh temps are left alone.
func TestCompactRemovesStaleTemps(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("temps")
	if err := s.Put(StageProfile, key, []byte("x"), FormatBinary); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Dir(s.Path(StageProfile, key, FormatBinary))
	stale := filepath.Join(shard, ".tmp-stale")
	freshTmp := filepath.Join(shard, ".tmp-fresh")
	for _, p := range []string{stale, freshTmp} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	st, err := s.Compact(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if st.RemovedTemps != 1 {
		t.Fatalf("removed %d temps, want 1", st.RemovedTemps)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp survived")
	}
	if _, err := os.Stat(freshTmp); err != nil {
		t.Error("fresh temp removed — could have been a live Put's file")
	}
}

// TestCompactConcurrentWithReaders is the required race test: a fixed number
// of Compact passes run under a churn of concurrent Gets, pooled-buffer reads
// and re-Puts. Readers must only ever see an intact artifact or a clean miss
// — never an error or torn bytes — and the store must stay usable
// throughout. Run with -race this also proves the atime table's locking.
func TestCompactConcurrentWithReaders(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 16
	keys := make([]Key, nKeys)
	payloads := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = testKey("race", fmt.Sprint(i))
		payloads[i] = bytes.Repeat([]byte{byte(i + 1)}, 512)
		if err := s.Put(StageProfile, keys[i], payloads[i], FormatBinary); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		started.Add(1)
		go func(g int) {
			defer wg.Done()
			started.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % nKeys
				if g%2 == 0 {
					data, _, ok, err := s.Get(StageProfile, keys[k], FormatBinary)
					if err != nil {
						t.Errorf("Get during compact: %v", err)
						return
					}
					if ok && !bytes.Equal(data, payloads[k]) {
						t.Errorf("torn read for key %d", k)
						return
					}
					if !ok { // evicted: recompute-and-store, like the runner would
						if err := s.Put(StageProfile, keys[k], payloads[k], FormatBinary); err != nil {
							t.Errorf("re-Put during compact: %v", err)
							return
						}
					}
				} else {
					data, _, ok, err := s.getAppend(s.acquireBuf(), StageProfile, keys[k], FormatBinary)
					if err != nil {
						t.Errorf("pooled read during compact: %v", err)
						return
					}
					if ok && !bytes.Equal(data, payloads[k]) {
						t.Errorf("torn pooled read for key %d", k)
					}
					s.releaseBuf(data)
				}
			}
		}(g)
	}
	// Every pass runs with all four readers live. Each pass first restores
	// the full working set (racing the readers' own re-Puts), and the budget
	// is half of it, so every pass evicts for real.
	started.Wait()
	const passes = 8
compaction:
	for pass := 0; pass < passes; pass++ {
		for i, k := range keys {
			if err := s.Put(StageProfile, k, payloads[i], FormatBinary); err != nil {
				t.Errorf("refill: %v", err)
				break compaction
			}
		}
		st, err := s.Compact(nKeys * 512 / 2)
		if err != nil {
			t.Errorf("compact: %v", err)
			break
		}
		if st.EvictedArtifacts == 0 {
			t.Errorf("pass %d evicted nothing: %+v", pass, st)
		}
	}
	close(stop)
	wg.Wait()

	// The store is intact: every key readable after one final re-Put pass.
	for i, k := range keys {
		if err := s.Put(StageProfile, k, payloads[i], FormatBinary); err != nil {
			t.Fatal(err)
		}
		data, _, ok, err := s.Get(StageProfile, k, FormatBinary)
		if err != nil || !ok || !bytes.Equal(data, payloads[i]) {
			t.Fatalf("key %d unreadable after the storm: ok=%v err=%v", i, ok, err)
		}
	}
}
