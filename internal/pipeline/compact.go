package pipeline

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// atimeIndexName is the compact sidecar file holding last-access times, the
// LRU signal Compact evicts by. It lives beside the kind directories and is
// never an eviction candidate itself.
const atimeIndexName = "atime.idx"

// BinTagAtimeIndex frames the sidecar index: uvarint entry count, then per
// entry a length-prefixed "kind/key" string and a varint unix-seconds atime.
const BinTagAtimeIndex uint8 = 5

// KindDiskStats is the on-disk footprint of one artifact kind.
type KindDiskStats struct {
	Artifacts int   `json:"artifacts"`
	Bytes     int64 `json:"bytes"`
}

// DiskStats is the store's on-disk footprint, the /statsz store gauge.
type DiskStats struct {
	TotalArtifacts int                    `json:"total_artifacts"`
	TotalBytes     int64                  `json:"total_bytes"`
	Kinds          map[Kind]KindDiskStats `json:"kinds,omitempty"`
}

// EvictionStats are this process's lifetime Compact totals, the /statsz
// eviction gauges.
type EvictionStats struct {
	Compactions      int64 `json:"compactions"`
	EvictedArtifacts int64 `json:"evicted_artifacts"`
	EvictedBytes     int64 `json:"evicted_bytes"`
}

// Evictions returns the process-lifetime eviction gauges.
func (s *Store) Evictions() EvictionStats {
	return EvictionStats{
		Compactions:      s.compactions.Load(),
		EvictedArtifacts: s.evictedArtifacts.Load(),
		EvictedBytes:     s.evictedBytes.Load(),
	}
}

// DiskStats walks the store and reports per-kind artifact counts and bytes.
func (s *Store) DiskStats() (DiskStats, error) {
	ds := DiskStats{Kinds: make(map[Kind]KindDiskStats)}
	arts, _, err := s.scan()
	if err != nil {
		return ds, err
	}
	for _, a := range arts {
		ks := ds.Kinds[a.kind]
		ks.Artifacts++
		ks.Bytes += a.size
		ds.Kinds[a.kind] = ks
		ds.TotalArtifacts++
		ds.TotalBytes += a.size
	}
	return ds, nil
}

// CompactStats reports what one Compact call did.
type CompactStats struct {
	BudgetBytes      int64 `json:"budget_bytes"`
	BytesBefore      int64 `json:"bytes_before"`
	BytesAfter       int64 `json:"bytes_after"`
	EvictedArtifacts int   `json:"evicted_artifacts"`
	EvictedBytes     int64 `json:"evicted_bytes"`
	RemovedTemps     int   `json:"removed_temps"`
}

// artifact is one store file seen by scan.
type artifact struct {
	kind  Kind
	key   Key
	path  string
	size  int64
	mtime time.Time
}

// scan walks the store tree, returning every artifact file plus any stale
// temp files old enough that no live Put can still own them.
func (s *Store) scan() ([]artifact, []string, error) {
	var arts []artifact
	var staleTemps []string
	kinds, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: scan store: %w", err)
	}
	tempCutoff := time.Now().Add(-10 * time.Minute)
	for _, kd := range kinds {
		if !kd.IsDir() {
			continue
		}
		kind := Kind(kd.Name())
		kindDir := filepath.Join(s.dir, kd.Name())
		shards, err := os.ReadDir(kindDir)
		if err != nil {
			return nil, nil, fmt.Errorf("pipeline: scan %s: %w", kind, err)
		}
		for _, sd := range shards {
			if !sd.IsDir() {
				continue
			}
			shardDir := filepath.Join(kindDir, sd.Name())
			files, err := os.ReadDir(shardDir)
			if err != nil {
				return nil, nil, fmt.Errorf("pipeline: scan %s: %w", kind, err)
			}
			for _, fe := range files {
				if fe.IsDir() {
					continue
				}
				name := fe.Name()
				info, err := fe.Info()
				if err != nil {
					continue // deleted underneath us: concurrent compaction or writer
				}
				if strings.HasPrefix(name, ".tmp-") {
					if info.ModTime().Before(tempCutoff) {
						staleTemps = append(staleTemps, filepath.Join(shardDir, name))
					}
					continue
				}
				var f Format
				switch {
				case strings.HasSuffix(name, ".bin"):
					f = FormatBinary
				case strings.HasSuffix(name, ".json"):
					f = FormatJSON
				default:
					continue
				}
				key := Key(strings.TrimSuffix(name, f.ext()))
				if key.Validate() != nil {
					continue
				}
				arts = append(arts, artifact{
					kind: kind, key: key,
					path: filepath.Join(shardDir, name),
					size: info.Size(), mtime: info.ModTime(),
				})
			}
		}
	}
	return arts, staleTemps, nil
}

// Compact enforces a size budget on the store: it removes stale temp files,
// then — while the tree exceeds budget bytes — evicts least-recently-used
// artifacts. Recency is the merge of this process's in-memory access table,
// the sidecar index previous processes saved, and file mtime as the fallback
// for artifacts never seen by either.
//
// Compact is safe to run concurrently with readers, including readers in
// other processes: eviction is plain unlink, so an artifact opened before
// its unlink stays readable through the held descriptor (POSIX keeps the
// inode alive until it closes), while a reader that loses the race sees a
// clean miss and recomputes. No read holds a file open past its decode, so
// unlinked space is freed at once. The surviving entries' access times are
// rewritten to the sidecar index.
func (s *Store) Compact(budget int64) (CompactStats, error) {
	st := CompactStats{BudgetBytes: budget}
	arts, staleTemps, err := s.scan()
	if err != nil {
		return st, err
	}
	for _, p := range staleTemps {
		if os.Remove(p) == nil {
			st.RemovedTemps++
		}
	}
	var total int64
	for _, a := range arts {
		total += a.size
	}
	st.BytesBefore = total
	st.BytesAfter = total
	if budget <= 0 || total <= budget {
		return st, s.SaveAtimeIndex()
	}

	atimes := s.mergedAtimes()
	atime := func(a artifact) int64 {
		if t, ok := atimes[string(a.kind)+"/"+string(a.key)]; ok {
			return t
		}
		return a.mtime.Unix()
	}
	sort.Slice(arts, func(i, j int) bool { return atime(arts[i]) < atime(arts[j]) })
	for _, a := range arts {
		if total <= budget {
			break
		}
		if err := os.Remove(a.path); err != nil {
			continue
		}
		total -= a.size
		st.EvictedArtifacts++
		st.EvictedBytes += a.size
		s.evictedArtifacts.Add(1)
		s.evictedBytes.Add(a.size)
	}
	st.BytesAfter = total
	s.compactions.Add(1)
	return st, s.SaveAtimeIndex()
}

// mergedAtimes merges the sidecar index with the in-memory table (in-memory
// wins; it is at least as fresh), keyed by "kind/key".
func (s *Store) mergedAtimes() map[string]int64 {
	out, _ := s.loadAtimeIndex()
	if out == nil {
		out = make(map[string]int64)
	}
	t := &s.atimes
	t.mu.RLock()
	for kind, km := range t.m {
		for key, sec := range km {
			rel := string(kind) + "/" + string(key)
			if sec > out[rel] {
				out[rel] = sec
			}
		}
	}
	t.mu.RUnlock()
	return out
}

// loadAtimeIndex reads the sidecar index; a missing or damaged index is an
// empty one (mtimes then carry the LRU order).
func (s *Store) loadAtimeIndex() (map[string]int64, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, atimeIndexName))
	if err != nil {
		return nil, nil
	}
	r, err := NewBinReader(data, BinTagAtimeIndex)
	if err != nil {
		return nil, err
	}
	n := r.Len()
	if r.Err() != nil || n > r.Remaining() {
		return nil, r.Err()
	}
	out := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		rel := r.String()
		sec := r.Varint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		out[rel] = sec
	}
	return out, nil
}

// SaveAtimeIndex persists the merged access times to the sidecar index,
// atomically like any artifact. Store.Close calls it; long-lived processes
// may call it whenever (concurrent savers last-writer-win on a complete
// index, never a torn one).
func (s *Store) SaveAtimeIndex() error {
	merged := s.mergedAtimes()
	if len(merged) == 0 {
		return nil
	}
	rels := make([]string, 0, len(merged))
	for rel := range merged {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	w := NewBinWriter(BinTagAtimeIndex, 16+24*len(rels))
	w.Uvarint(uint64(len(rels)))
	for _, rel := range rels {
		w.String(rel)
		w.Varint(merged[rel])
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("pipeline: save atime index: %w", err)
	}
	_, werr := tmp.Write(w.Bytes())
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), filepath.Join(s.dir, atimeIndexName))
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("pipeline: save atime index: %w", werr)
	}
	return nil
}
