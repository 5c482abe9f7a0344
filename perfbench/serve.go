package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"
)

// Serve-mix shape: an open loop at a fixed rate, half repeats of the
// pre-warmed keys and half never-seen keys, over procs connections.
const (
	serveRate  = 240.0 // requests per second
	freshLoU   = 0.25  // fresh deadlines span [D1 + 0.25(D5-D1), D5]
	freshCapLo = 5e-6
	freshCapHi = 50e-6

	// serveSetups is how many servers a serve-mix run starts, one after
	// another; setup_s and wall_s are medians over them. More than the
	// sweeps' setups because a server's set-up and cold cells are short next
	// to the tens of seconds over which a shared virtual machine's speed
	// drifts.
	serveSetups = 5
)

var serveBenches = []string{"mpeg/decode", "gsm/encode", "mpg123", "adpcm/encode", "epic", "ghostscript"}

// coldCells are the requests timed as serve-mix wall_s: every benchmark at
// 7 and 13 levels and deadlines 1, 3 and 5, full (replay, solve, validate and
// baseline), none of them pre-warmed. Their recordings are shared with the
// pre-warmed 3-level keys, so each pays replay rather than recording.
func coldCells(rng *rand.Rand) []request {
	var out []request
	for _, b := range serveBenches {
		for _, levels := range []int{7, 13} {
			for _, d := range []int{1, 3, 5} {
				out = append(out, request{Class: "cold", Key: -1,
					Body: map[string]any{"bench": b, "deadline": d, "levels": levels}})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// freshBenches are the benchmarks fresh keys draw from: the ones whose
// solves stay within a few milliseconds at any deadline and capacitance.
// gsm/encode and mpeg/decode trees grow to hundreds of nodes at some
// deadlines, which would make a run's cost depend on which keys its seed
// drew rather than on the server.
var freshBenches = []string{"mpg123", "adpcm/encode", "epic", "ghostscript"}

// repeatKeys are the pre-warmed requests: every benchmark at every paper
// deadline, measured (validate and baseline included).
func repeatKeys() []map[string]any {
	var keys []map[string]any
	for _, b := range serveBenches {
		for d := 1; d <= 5; d++ {
			keys = append(keys, map[string]any{"bench": b, "deadline": d, "levels": 3})
		}
	}
	return keys
}

// request is one generated request: a repeat of pre-warmed key Key (hit) or
// a never-seen solve-only key (miss).
type request struct {
	Class string         `json:"class"`
	Key   int            `json:"key"`
	Body  map[string]any `json:"body"`
}

// deadlines holds each benchmark's paper D1 and D5 in µs, read from the
// pre-warm responses; at a fixed scale they are constants of the workload.
type deadlines map[string][2]float64

// genStream is the request stream for one seed: n requests, exactly half of
// them hits, in a seeded order. The draws are stratified so every seed asks
// for the same mix of work: hits cycle through the pre-warmed keys and the
// misses come from freshKeys. The server sees only these requests.
func genStream(seed int64, n int, dl deadlines) []request {
	rng := rand.New(rand.NewSource(seed))
	keys := repeatKeys()
	out := make([]request, 0, n)
	for k := 0; k < n/2; k++ {
		out = append(out, request{Class: "hit", Key: k % len(keys), Body: keys[k%len(keys)]})
	}
	out = append(out, freshKeys(rng, n-n/2, dl, true)...)
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// freshKeys draws m never-seen requests. The k-th takes
// freshBenches[k mod 4], with its deadline and capacitance drawn inside the
// k-th of m/4 equal bands (capacitance bands permuted), so seeds differ only
// in the jitter within each band. skipMeasure asks for the solve alone.
func freshKeys(rng *rand.Rand, m int, dl deadlines, skipMeasure bool) []request {
	bands := (m + len(freshBenches) - 1) / len(freshBenches)
	capBand := rng.Perm(bands)
	out := make([]request, 0, m)
	for k := 0; k < m; k++ {
		b, j := freshBenches[k%len(freshBenches)], k/len(freshBenches)
		u := freshLoU + (1-freshLoU)*(float64(j)+rng.Float64())/float64(bands)
		c := freshCapLo + (freshCapHi-freshCapLo)*(float64(capBand[j])+rng.Float64())/float64(bands)
		d := dl[b]
		out = append(out, request{Class: "miss", Key: -1, Body: map[string]any{
			"bench": b, "levels": 3, "skip_measure": skipMeasure,
			"deadline_us": d[0] + u*(d[1]-d[0]), "capacitance_f": c,
		}})
	}
	return out
}

type server struct {
	cmd  *exec.Cmd
	base string
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts dvs-serve in memory on a loopback port and waits until
// /healthz answers.
func (r *run) startServer(workers int, extra ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port), "-scale", serveScale,
		"-serve-workers", strconv.Itoa(workers), "-workers", "1", "-queue", "64",
		"-request-timeout", "60s"}, extra...)
	cmd := r.command("dvs-serve", args...)
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port)}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop(cmd)
	return nil, fmt.Errorf("dvs-serve did not become ready")
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func post(c *http.Client, base string, body map[string]any) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Post(base+"/optimize", "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// canonical drops the response's timing fields (the request's elapsed time
// and the solve time of the solve that produced the schedule) and re-encodes
// with sorted keys.
func canonical(body []byte) (string, error) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return "", err
	}
	delete(m, "elapsed_ms")
	if s, ok := m["solver"].(map[string]any); ok {
		delete(s, "solve_time_ns")
	}
	out, err := json.Marshal(m)
	return string(out), err
}

// prewarm sends every repeat key once, serially, and returns the canonical
// responses plus each benchmark's D1/D5.
func prewarm(base string) ([]string, deadlines, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	keys := repeatKeys()
	want := make([]string, len(keys))
	dl := deadlines{}
	for i, k := range keys {
		status, body, err := post(c, base, k)
		if err != nil {
			return nil, nil, err
		}
		if status != http.StatusOK {
			return nil, nil, fmt.Errorf("pre-warm %v: status %d: %s", k, status, body)
		}
		if want[i], err = canonical(body); err != nil {
			return nil, nil, err
		}
		var resp struct {
			DeadlineUS float64 `json:"deadline_us"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, nil, err
		}
		b, d := k["bench"].(string), k["deadline"].(int)
		e := dl[b]
		if d == 1 {
			e[0] = resp.DeadlineUS
		} else if d == 5 {
			e[1] = resp.DeadlineUS
		}
		dl[b] = e
	}
	return want, dl, nil
}

// checkResponse verifies one response: 200 always; a hit (or a repeated
// pre-warm) equals its pre-warm response; a miss answers the deadline it asked for with an
// optimal schedule that meets it (or reports it infeasible).
func checkResponse(q request, status int, body []byte, want []string) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s request: status %d: %.200s", q.Class, status, body)
	}
	if q.Class == "hit" || q.Class == "prewarm" {
		got, err := canonical(body)
		if err != nil {
			return err
		}
		if got != want[q.Key] {
			return fmt.Errorf("%s key %d: response differs from its pre-warm response", q.Class, q.Key)
		}
		return nil
	}
	var resp struct {
		Bench           string  `json:"bench"`
		DeadlineUS      float64 `json:"deadline_us"`
		Infeasible      bool    `json:"infeasible"`
		PredictedTimeUS float64 `json:"predicted_time_us"`
		Solver          *struct {
			Status string `json:"status"`
		} `json:"solver"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	switch {
	case resp.Bench != q.Body["bench"]:
		return fmt.Errorf("%s: answered %s for %v", q.Class, resp.Bench, q.Body)
	case q.Body["deadline_us"] != nil && resp.DeadlineUS != q.Body["deadline_us"]:
		return fmt.Errorf("miss: answered %s at %v µs for %v", resp.Bench, resp.DeadlineUS, q.Body)
	case resp.Infeasible:
		return nil
	case resp.Solver == nil || resp.Solver.Status != "optimal":
		return fmt.Errorf("miss %v: solver did not prove optimality", q.Body)
	case resp.PredictedTimeUS > resp.DeadlineUS*(1+1e-9):
		return fmt.Errorf("miss %v: predicted %v µs past the deadline", q.Body, resp.PredictedTimeUS)
	}
	return nil
}

type sample struct {
	class   string
	latency time.Duration // completion minus due time
	late    time.Duration // dispatch minus due time
	err     error
}

// drive sends reqs over conns connections. With rate > 0 it is an open
// loop: request i is due at i/rate and is timed from then, however long it
// waited for a free connection. With rate == 0 it is a closed loop.
func drive(base string, reqs []request, conns int, rate float64, want []string) []sample {
	type job struct {
		i        int
		due, out time.Time
	}
	jobs := make(chan job, len(reqs)) // every request fits: the dispatcher never blocks
	out := make([]sample, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for j := range jobs {
				q := reqs[j.i]
				status, body, err := post(c, base, q.Body)
				s := sample{class: q.Class, latency: time.Since(j.due), late: j.out.Sub(j.due)}
				if err == nil {
					err = checkResponse(q, status, body, want)
				}
				s.err = err
				out[j.i] = s
			}
		}()
	}
	start := time.Now()
	for i := range reqs {
		due := start
		if rate > 0 {
			due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		} else {
			due = time.Now()
		}
		jobs <- job{i: i, due: due, out: time.Now()}
	}
	close(jobs)
	wg.Wait()
	return out
}

// serveStats is what one serve-mix measurement yields beyond the
// end-to-end metrics; the traced run reports it per layer.
type serveStats struct {
	hit, miss           []float64 // latency from due time, ms
	lateP99MS           float64
	rssGrowthMB         float64
	coalesced, rejected float64
	prewarm             []string
	dl                  deadlines
}

// serveMix measures dvs-serve under the open-loop mix. It starts serveSetups
// servers one after another. Each is set up (start to ready, then a serial
// pre-warm of the repeat keys; setup_s is the median) and then answers the
// coldCells serially (wall_s is the median; the open loop's own length is
// fixed by its schedule, so it is not a wall time). The last server then
// takes the open loop; cpu_s is its CPU time over the loop and peak_rss_mb
// its peak RSS.
func (r *run) serveMix() error {
	_, err := r.measureServe()
	return err
}

func (r *run) measureServe() (*serveStats, error) {
	st := &serveStats{}
	var srv *server
	var setupS, walls []float64
	for i := 0; i < serveSetups; i++ {
		if srv != nil {
			if err := stop(srv.cmd); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		s, err := r.startServer(procs)
		if err != nil {
			return nil, err
		}
		srv = s
		want, dl, err := prewarm(s.base)
		if err != nil {
			stop(s.cmd)
			return nil, err
		}
		setupS = append(setupS, time.Since(t).Seconds())
		if st.prewarm != nil {
			r.op(firstDiff("pre-warm responses", fmt.Sprint(want), fmt.Sprint(st.prewarm)))
		}
		st.prewarm, st.dl = want, dl

		t = time.Now()
		cold := drive(s.base, coldCells(rand.New(rand.NewSource(r.seed+int64(i)))), 1, 0, st.prewarm)
		walls = append(walls, time.Since(t).Seconds())
		for _, c := range cold {
			r.op(c.err)
		}
	}
	defer stop(srv.cmd)
	r.set("setup_s", median(setupS), "s")
	fmt.Fprintf(os.Stderr, "perfbench: cold-cell walls %.3f s, setups %.3f s\n", walls, setupS)
	r.set("wall_s", median(walls), "s")

	pid := srv.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	rss0, err := procStatus(pid, "VmRSS")
	if err != nil {
		return nil, err
	}
	open := drive(srv.base, genStream(r.seed, int(serveRate*r.seconds), st.dl), procs, serveRate, st.prewarm)

	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	peak, err := procStatus(pid, "VmHWM")
	if err != nil {
		return nil, err
	}
	rss1, err := procStatus(pid, "VmRSS")
	if err != nil {
		return nil, err
	}
	st.rssGrowthMB = rss1 - rss0
	st.coalesced, st.rejected = statsz(srv.base)

	var late []float64
	for _, s := range open {
		r.op(s.err)
		ms := float64(s.latency) / 1e6
		if s.err != nil {
			// A failed or refused request misses every latency limit.
			ms = float64(time.Hour) / 1e6
		}
		if s.class == "hit" {
			st.hit = append(st.hit, ms)
		} else {
			st.miss = append(st.miss, ms)
		}
		late = append(late, float64(s.late)/1e6)
	}
	st.lateP99MS = percentile(late, 0.99)
	for _, c := range []struct {
		name string
		xs   []float64
	}{{"hit", st.hit}, {"miss", st.miss}} {
		fmt.Fprintf(os.Stderr, "perfbench: %s n=%d p50=%.3fms p99=%.3fms (%d beyond p99)\n",
			c.name, len(c.xs), percentile(c.xs, 0.5), percentile(c.xs, 0.99), beyond(len(c.xs), 0.99))
	}
	r.set("cpu_s", (cpu1 - cpu0).Seconds(), "s")
	r.set("peak_rss_mb", peak, "MB")
	return st, nil
}

// statsz reads the two /statsz counters the serve metrics use; a missing
// field reads as zero.
func statsz(base string) (coalesced, rejected float64) {
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	var s map[string]any
	if json.NewDecoder(resp.Body).Decode(&s) != nil {
		return 0, 0
	}
	c, _ := s["coalesced"].(float64)
	j, _ := s["rejected"].(float64)
	return c, j
}
