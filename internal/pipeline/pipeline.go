package pipeline

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// Stage describes one typed pipeline stage: its kind and the one codec that
// round-trips its artifact through the store. Format names the codec's
// on-disk encoding: the large kinds (recordings, profiles, solve results)
// are length-prefixed binary, the small report-like kinds JSON.
//
// Encode must be deterministic — encode(decode(encode(x))) == encode(x) —
// so processes racing to write one key write identical bytes. Decode is handed a buffer the runner reuses for the next read: it must not
// retain or alias its input past the call, and it must reject a damaged or
// stale artifact with an error (the runner then deletes and recomputes it).
type Stage[T any] struct {
	Kind   Kind
	Format Format
	Encode func(T) ([]byte, error)
	Decode func([]byte) (T, error)
}

// slot is the in-memory singleflight cell for one (kind, key): concurrent
// requests for the same artifact block on one computation while other keys
// proceed in parallel. The resolved artifact stays in the slot, so repeated
// in-process requests are memory hits.
//
// Each in-flight slot runs its computation under a private context that is
// cancelled only when every caller interested in the result has cancelled —
// one disconnected client never aborts work another client still waits on. A
// slot whose computation ends in a context error is removed from the runner,
// so the next request for the same key computes afresh instead of replaying a
// stale cancellation.
type slot struct {
	done chan struct{} // closed when val/err are final

	val any
	err error

	// waiters counts callers whose context is still alive; cancel aborts the
	// computation context once it drops to zero. Both are guarded by the
	// runner's mutex. finished marks the slot resolved (also under the
	// runner's mutex, set before done is closed).
	waiters  int
	cancel   context.CancelFunc
	finished bool
}

// Runner executes pipeline stages against an optional artifact store,
// deduplicating concurrent work and recording every request in the run
// manifest. A nil-store Runner is a pure in-memory cache (the default for
// library use); with a store, artifacts persist across processes. A Runner
// is safe for concurrent use.
type Runner struct {
	store *Store
	man   *Manifest

	mu    sync.Mutex
	slots map[string]*slot
}

// NewRunner returns a runner over the given store; store may be nil for a
// memory-only runner.
func NewRunner(store *Store) *Runner {
	return &Runner{
		store: store,
		man:   NewManifest(),
		slots: make(map[string]*slot),
	}
}

// Store returns the backing store (nil for memory-only runners).
func (r *Runner) Store() *Store { return r.store }

// Manifest returns the run manifest.
func (r *Runner) Manifest() *Manifest { return r.man }

// Run resolves the artifact for (stage, key): from this run's memory, then
// from the store, and only then by computing it (persisting the result when
// a store is attached). All callers of the same key share one resolution.
func Run[T any](r *Runner, st Stage[T], key Key, compute func() (T, error)) (T, error) {
	return RunCtx(context.Background(), r, st, key, func(context.Context) (T, error) {
		return compute()
	})
}

// isCtxErr reports whether err is a context cancellation or deadline error
// (possibly wrapped) — the class of failures that say nothing about the
// artifact itself and must not be cached.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RunCtx is Run with caller cancellation: a caller whose context ends while
// waiting unblocks immediately with ctx.Err(), and the computation itself is
// aborted only once every caller for the key has gone away (its context is
// derived from the runner, not from any one request). Results that fail with
// a context error are not retained — the next request recomputes.
func RunCtx[T any](ctx context.Context, r *Runner, st Stage[T], key Key, compute func(context.Context) (T, error)) (T, error) {
	for {
		v, err := runOnce(ctx, r, st, key, compute)
		// A caller that attached to a computation just as its last
		// interested party cancelled inherits that cancellation; if this
		// caller itself is still live, the slot is gone by now (it is
		// deleted before waiters are released) and a retry computes afresh.
		if isCtxErr(err) && ctx.Err() == nil {
			continue
		}
		return v, err
	}
}

func runOnce[T any](ctx context.Context, r *Runner, st Stage[T], key Key, compute func(context.Context) (T, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	id := string(st.Kind) + "/" + string(key)

	r.mu.Lock()
	s, ok := r.slots[id]
	if ok && s.finished {
		r.mu.Unlock()
		r.man.addMemHit(st.Kind, key)
		if s.err != nil {
			return zero, s.err
		}
		return slotValue[T](s, st, key)
	}
	leader := false
	if !ok {
		cctx, cancel := context.WithCancel(context.Background())
		s = &slot{done: make(chan struct{}), cancel: cancel}
		r.slots[id] = s
		leader = true
		go func() {
			v, err := resolve(cctx, r, st, key, compute)
			r.mu.Lock()
			s.val, s.err, s.finished = v, err, true
			if isCtxErr(err) {
				// A cancelled computation says nothing about the artifact:
				// drop the slot so the next caller recomputes.
				delete(r.slots, id)
			}
			r.mu.Unlock()
			cancel()
			close(s.done)
		}()
	}
	s.waiters++
	r.mu.Unlock()

	select {
	case <-s.done:
		if !leader {
			// Served from the in-memory slot (possibly after blocking on a
			// concurrent resolution of the same key).
			r.man.addMemHit(st.Kind, key)
		}
		if s.err != nil {
			return zero, s.err
		}
		return slotValue[T](s, st, key)
	case <-ctx.Done():
		r.mu.Lock()
		s.waiters--
		if s.waiters == 0 && !s.finished {
			s.cancel()
		}
		r.mu.Unlock()
		return zero, ctx.Err()
	}
}

// slotValue extracts the typed artifact from a resolved slot.
func slotValue[T any](s *slot, st Stage[T], key Key) (T, error) {
	v, ok := s.val.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("pipeline: stage %s key %s resolved to %T", st.Kind, key, s.val)
	}
	return v, nil
}

func resolve[T any](ctx context.Context, r *Runner, st Stage[T], key Key, compute func(context.Context) (T, error)) (T, error) {
	var artifact string
	if r.store != nil {
		if v, path, ok := loadArtifact(r, st, key); ok {
			r.man.addDiskHit(st.Kind, key, path)
			return v, nil
		}
		// No artifact, or a corrupt/stale one (now deleted): fall through
		// to a recompute, which rewrites it.
	}

	// Stage boundary: a request cancelled while queued behind the store
	// lookup never starts the expensive computation at all.
	if err := ctx.Err(); err != nil {
		var zero T
		return zero, err
	}

	start := time.Now()
	v, err := compute(ctx)
	ms := float64(time.Since(start).Microseconds()) / 1e3
	if err != nil {
		var zero T
		r.man.addMiss(st.Kind, key, ms, "", r.store != nil)
		return zero, err
	}
	if r.store != nil {
		if data, eerr := st.Encode(v); eerr == nil {
			artifact = r.store.Path(st.Kind, key, st.Format)
			if perr := r.store.Put(st.Kind, key, data, st.Format); perr != nil {
				artifact = "" // computed fine, persisting failed; stay usable
			}
		}
	}
	r.man.addMiss(st.Kind, key, ms, artifact, r.store != nil)
	return v, nil
}

// loadArtifact reads and decodes the stored artifact for (stage, key)
// through a pooled buffer. An artifact that fails to decode (truncated,
// corrupt, wrong version or tag) is deleted — it would otherwise be retried
// and fail on every warm read — and the caller treats the key as a miss and
// recomputes. A damaged cache entry can cost work, never correctness.
func loadArtifact[T any](r *Runner, st Stage[T], key Key) (v T, path string, ok bool) {
	buf := r.store.acquireBuf()
	data, path, found, err := r.store.getAppend(buf, st.Kind, key, st.Format)
	defer func() { r.store.releaseBuf(data) }() // keep whatever capacity the read grew
	if err != nil || !found {
		return v, "", false
	}
	v, err = st.Decode(data)
	if err != nil {
		os.Remove(path)
		return v, "", false
	}
	return v, path, true
}

// Observe times an uncached stage (filter, formulate) and records it in the
// manifest. These stages only run when the enclosing solve misses, so a warm
// run's manifest contains no entries for them.
func (r *Runner) Observe(kind Kind, key Key, fn func() error) error {
	start := time.Now()
	err := fn()
	r.man.addMiss(kind, key, float64(time.Since(start).Microseconds())/1e3, "", false)
	return err
}
