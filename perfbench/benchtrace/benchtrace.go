// Package benchtrace is the span recorder the benchmark injects into an
// instrumented copy of the ctdvs sources. The instrumenter wraps each traced
// function in Begin/End; spans are kept in memory and written out at the end
// as Chrome trace-event JSON plus a per-name summary.
//
// The recorder keeps one global span stack, so it assumes traced work runs
// one call at a time (the traced driver runs every cell at one worker). Work
// that hops goroutines but blocks its caller, like a pipeline stage leader,
// still nests correctly in time. End reports a misnested span in the summary
// rather than guessing.
package benchtrace

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// maxEvents caps the trace file; aggregates stay exact past the cap.
const maxEvents = 200000

// hot names are aggregated but never written as individual trace events:
// they are called hundreds of thousands of times per surface.
var hot = map[string]bool{"volt.voltage": true}

// Stat aggregates every span of one name.
type Stat struct {
	Calls   int64 `json:"calls"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

type frame struct {
	name    string
	start   int64
	childNS int64
}

type event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

var (
	mu       sync.Mutex
	t0       = time.Now()
	stack    []frame
	stats    = map[string]*Stat{}
	byParent = map[string]int64{}
	counters = map[string]int64{}
	events   []event
	dropped  int64
	misnest  int64
)

// Span is an open span; End closes it.
type Span struct{ depth int }

func now() int64 { return int64(time.Since(t0)) }

// Begin opens a span named name as a child of the innermost open span.
func Begin(name string) Span {
	mu.Lock()
	stack = append(stack, frame{name: name, start: now()})
	d := len(stack)
	mu.Unlock()
	return Span{depth: d}
}

// End closes the span. Its self time is its duration minus the time its
// direct children covered.
func (s Span) End() {
	t := now()
	mu.Lock()
	defer mu.Unlock()
	if len(stack) != s.depth {
		misnest++
		if len(stack) < s.depth {
			return
		}
		stack = stack[:s.depth]
	}
	f := stack[len(stack)-1]
	stack = stack[:len(stack)-1]
	dur := t - f.start
	st := stats[f.name]
	if st == nil {
		st = &Stat{}
		stats[f.name] = st
	}
	st.Calls++
	st.TotalNS += dur
	st.SelfNS += dur - f.childNS
	parent := ""
	if n := len(stack); n > 0 {
		stack[n-1].childNS += dur
		parent = stack[n-1].name
	}
	byParent[f.name+"<"+parent]++
	if hot[f.name] {
		return
	}
	if len(events) >= maxEvents {
		dropped++
		return
	}
	events = append(events, event{Name: f.name, Ph: "X", TS: float64(f.start) / 1e3,
		Dur: float64(dur) / 1e3, PID: 1, TID: 1})
}

// Add adds v to the named counter.
func Add(name string, v int64) {
	mu.Lock()
	counters[name] += v
	mu.Unlock()
}

// Calls returns how many spans named name have ended so far.
func Calls(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if st := stats[name]; st != nil {
		return st.Calls
	}
	return 0
}

// Get returns the aggregate for name so far.
func Get(name string) Stat {
	mu.Lock()
	defer mu.Unlock()
	if st := stats[name]; st != nil {
		return *st
	}
	return Stat{}
}

// WrapHandler spans every request h serves, named by the request path:
// "serve.handler" for /optimize and "serve.<path>" otherwise.
func WrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "serve.handler"
		if r.URL.Path != "/optimize" {
			name = "serve" + sanitize(r.URL.Path)
		}
		defer Begin(name).End()
		h.ServeHTTP(w, r)
	})
}

func sanitize(p string) string {
	b := []byte(p)
	for i, c := range b {
		if c == '/' {
			b[i] = '.'
		}
	}
	return string(b)
}

// Summary is the machine-readable result of a traced run.
type Summary struct {
	Stats    map[string]Stat  `json:"stats"`
	ByParent map[string]int64 `json:"by_parent"`
	Counters map[string]int64 `json:"counters"`
	Misnest  int64            `json:"misnested"`
	Dropped  int64            `json:"dropped_events"`
	Open     int              `json:"open_spans"`
}

// Snapshot returns the summary so far.
func Snapshot() Summary {
	mu.Lock()
	defer mu.Unlock()
	s := Summary{Stats: map[string]Stat{}, ByParent: map[string]int64{}, Counters: map[string]int64{},
		Misnest: misnest, Dropped: dropped, Open: len(stack)}
	for k, v := range stats {
		s.Stats[k] = *v
	}
	for k, v := range byParent {
		s.ByParent[k] = v
	}
	for k, v := range counters {
		s.Counters[k] = v
	}
	return s
}

// WriteTrace writes the recorded spans as Chrome trace-event JSON.
func WriteTrace(w io.Writer) error {
	mu.Lock()
	evs := append([]event(nil), events...)
	mu.Unlock()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
