package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// Tolerances of the traced run's self-consistency checks: layer self times
// must sum to within these shares of the traced wall.
const (
	benchCoverageTol = 0.05
	serveCoverageTol = 0.10
)

// serialRequests is how many stream requests the traced serve run sends
// after the pre-warm keys, and statszEvery how often it polls /statsz.
const (
	serialRequests = 300
	statszEvery    = 25
)

type stat struct {
	Calls   int64 `json:"calls"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

type traceSummary struct {
	ProcessWall time.Duration `json:"-"`
	WallNS      int64         `json:"wall_ns"`
	Summary     struct {
		Stats    map[string]stat  `json:"stats"`
		ByParent map[string]int64 `json:"by_parent"`
		Counters map[string]int64 `json:"counters"`
		Misnest  int64            `json:"misnested"`
		Open     int              `json:"open_spans"`
	} `json:"summary"`
	Serve []struct {
		Class     string `json:"class"`
		Status    int    `json:"status"`
		RTTNS     int64  `json:"rtt_ns"`
		HandlerNS int64  `json:"handler_ns"`
		Body      string `json:"body"`
	} `json:"serve"`
}

// buildTraced instruments a copy of the checkout's sources and builds the
// traced driver from it.
func (r *run) buildTraced() (missing int, err error) {
	src := filepath.Join(buildDir, "traced", "src")
	miss, err := instrumentTree(".", src, "perfbench")
	if err != nil {
		return 0, fmt.Errorf("instrument: %w", err)
	}
	for _, m := range miss {
		fmt.Fprintln(os.Stderr, "perfbench: trace target not found:", m)
	}
	bin, err := filepath.Abs(filepath.Join(r.bin, "benchtrace-drv"))
	if err != nil {
		return 0, err
	}
	cmd := exec.Command("go", "build", "-tags", "benchtrace", "-o", bin, "./cmd/benchtrace-drv")
	cmd.Dir = src
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("build traced driver: %w", err)
	}
	return len(miss), nil
}

// runTraced runs the traced driver and reads its summary. The summary's
// wall is the driver's own, from its first span to its last; ProcessWall is
// the process's, comparable with an untraced CLI run.
func (r *run) runTraced(args ...string) (*traceSummary, error) {
	sum := r.dir("summary.json")
	args = append(args, "-summary", sum, "-trace", filepath.Join(buildDir, "trace.json"))
	cmd := r.command("benchtrace-drv", args...)
	cmd.Stdout = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("traced driver: %w", err)
	}
	wall := time.Since(start)
	data, err := os.ReadFile(sum)
	if err != nil {
		return nil, err
	}
	ts := traceSummary{ProcessWall: wall}
	return &ts, json.Unmarshal(data, &ts)
}

// traced makes the per-layer run: an untraced reference (its manifest gives
// the per-stage counts), the same cells through the traced
// driver, and the checks tying the two together. The trace is written to
// .bench_build/trace.json.
func (r *run) traced(workload string) error {
	missing, err := r.buildTraced()
	if err != nil {
		return err
	}
	var (
		ts       *traceSummary
		untraced time.Duration
		manifest map[string]stageStats
		serveSt  *serveStats
		tol      = benchCoverageTol
	)
	switch workload {
	case "sweep-cold":
		man := r.dir("untraced.json")
		out, u, err := r.bench("-scale", sweepScale, "-exp", sweepExps, "-cache-dir", r.dir("u"), "-manifest", man)
		if err != nil {
			return err
		}
		r.op(checkCold(out, man))
		untraced = u.wall
		if manifest, err = readManifest(man); err != nil {
			return err
		}
		tables := r.dir("traced.txt")
		if ts, err = r.runTraced("-mode", "bench", "-scale", sweepScale, "-exp", sweepExps,
			"-cache-dir", r.dir("t"), "-out", tables); err != nil {
			return err
		}
		out, err = os.ReadFile(tables)
		if err != nil {
			return err
		}
		want, err := golden("sweep.txt")
		if err != nil {
			return err
		}
		r.op(firstDiff("traced sweep tables", maskTimings(out), want))
	case "surfaces":
		out, u, err := r.bench("-exp", surfExps, "-grid", surfGrid, "-no-cache")
		if err != nil {
			return err
		}
		want, err := golden("surfaces.txt")
		if err != nil {
			return err
		}
		r.op(firstDiff("surface tables", string(out), want))
		untraced = u.wall
		manifest = map[string]stageStats{}
		tables := r.dir("traced.txt")
		if ts, err = r.runTraced("-mode", "bench", "-exp", surfExps, "-grid", surfGrid, "-out", tables); err != nil {
			return err
		}
		if out, err = os.ReadFile(tables); err != nil {
			return err
		}
		r.op(firstDiff("traced surface tables", string(out), want))
	case "serve-mix":
		tol = serveCoverageTol
		if serveSt, err = r.measureServe(); err != nil {
			return err
		}
		reqs, err := r.writeSerial(serveSt)
		if err != nil {
			return err
		}
		man := r.dir("untraced.json")
		if untraced, err = r.serial(reqs, serveSt.prewarm, man); err != nil {
			return err
		}
		if manifest, err = readManifest(man); err != nil {
			return err
		}
		if ts, err = r.runTraced("-mode", "serve", "-scale", serveScale, "-requests", r.dir("requests.jsonl")); err != nil {
			return err
		}
		for i, q := range ts.Serve {
			if q.Class == "statsz" {
				continue
			}
			r.op(checkResponse(reqs[i], q.Status, []byte(q.Body), serveSt.prewarm))
		}
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}

	r.res.Metrics = map[string]metric{}
	r.fidelity(ts, manifest, tol)
	r.layerMetrics(ts, manifest, serveSt)
	r.set("trace.wall_s", float64(ts.WallNS)/1e9, "s")
	r.set("trace.untraced_wall_s", untraced.Seconds(), "s")
	// The untraced serve wall is the client's request loop, so it compares
	// with the traced driver's loop; the others compare whole processes.
	traced := ts.ProcessWall
	if workload == "serve-mix" {
		traced = time.Duration(ts.WallNS)
	}
	r.set("trace.overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds(), "%")
	r.set("trace.missing_targets", float64(missing), "count")
	return nil
}

// fidelity checks the traced run against the untraced one: per stage, the
// traced calls into the stage's layer equal the manifest's misses, and the
// layer self times sum to the traced wall within tol.
func (r *run) fidelity(ts *traceSummary, man map[string]stageStats, tol float64) {
	s := ts.Summary
	calls := func(name string) int64 { return s.Stats[name].Calls }
	for _, c := range []struct {
		stage string
		got   int64
	}{
		{"record", calls("sim.record")},
		{"profile", calls("profile.replay")},
		{"filter", calls("core.filter")},
		{"formulate", calls("core.formulate")},
		{"solve", calls("milp.solve")},
		// Validate is the RunDVS made by the validate stage, not a
		// governor's or a baseline's.
		{"validate", s.ByParent["sim.validate<exp.validate"]},
	} {
		var err error
		if c.got != man[c.stage].Misses {
			err = fmt.Errorf("traced %s calls %d, untraced manifest misses %d", c.stage, c.got, man[c.stage].Misses)
		}
		r.op(err)
	}
	var err error
	if s.Misnest != 0 || s.Open != 0 {
		err = fmt.Errorf("trace: %d misnested spans, %d left open", s.Misnest, s.Open)
	}
	r.op(err)
	var self int64
	for _, st := range s.Stats {
		self += st.SelfNS
	}
	for _, q := range ts.Serve {
		self += q.RTTNS - q.HandlerNS // transport: round trip outside the handler
	}
	cov := float64(self) / float64(ts.WallNS)
	r.set("trace.coverage_pct", 100*cov, "%")
	err = nil
	if math.Abs(1-cov) > tol {
		err = fmt.Errorf("trace: layer self times sum to %.1f%% of the traced wall (tolerance %.0f%%)", 100*cov, 100*tol)
	}
	r.op(err)
}

// layerMetrics turns the traced summary and the untraced manifest into the
// per-layer metrics. Every workload reports every metric; a layer a
// workload does not reach reads 0.
func (r *run) layerMetrics(ts *traceSummary, man map[string]stageStats, st *serveStats) {
	s := ts.Summary
	selfMS := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += s.Stats[n].SelfNS
		}
		return float64(ns) / 1e6
	}
	for _, l := range []string{"sim.validate", "sim.record", "sim.governor", "profile.replay",
		"core.prepare", "core.filter", "core.formulate", "milp.solve", "pipeline.put", "pipeline.get",
		"schedfile.encode", "schedfile.decode", "exp.key", "exp.validate", "exp.cell", "paths.filter",
		"analytic.continuous", "analytic.discrete", "analytic.exact", "volt.voltage"} {
		r.set(l+".self_ms", selfMS(l), "ms")
	}
	for _, l := range []string{"sim.validate", "sim.record", "profile.replay", "milp.solve",
		"analytic.continuous", "volt.voltage"} {
		r.set(l+".calls", float64(s.Stats[l].Calls), "count")
	}
	nsPerCall := 0.0
	if v := s.Stats["volt.voltage"]; v.Calls > 0 {
		nsPerCall = float64(v.SelfNS) / float64(v.Calls)
	}
	r.set("volt.voltage.ns_per_call", nsPerCall, "ns")
	c := s.Counters
	r.set("core.independent_edges", float64(c["core.independent_edges"]), "count")
	r.set("milp.nodes", float64(c["milp.nodes"]), "count")
	r.set("milp.analytic_prunes", float64(c["milp.analytic_prunes"]), "count")
	r.set("lp.pivots", float64(c["lp.pivots"]), "count")
	warm := 0.0
	if n := c["lp.warm_solves"] + c["lp.cold_solves"]; n > 0 {
		warm = float64(c["lp.warm_solves"]) / float64(n)
	}
	r.set("lp.warm_hit_rate", warm, "ratio")
	r.set("pipeline.put.bytes", float64(c["pipeline.put.bytes"]), "bytes")
	r.set("pipeline.get.bytes", float64(c["pipeline.get.bytes"]), "bytes")
	for _, stage := range []string{"record", "profile", "filter", "formulate", "solve", "validate"} {
		m := man[stage]
		r.set("pipeline."+stage+".misses", float64(m.Misses), "count")
		if stage == "filter" || stage == "formulate" {
			continue // uncached: these stages only ever miss
		}
		r.set("pipeline."+stage+".disk_hits", float64(m.DiskHits), "count")
		r.set("pipeline."+stage+".mem_hits", float64(m.MemHits), "count")
	}

	var handlerHit, transportHit, statszMS []float64
	for _, q := range ts.Serve {
		switch q.Class {
		case "hit":
			handlerHit = append(handlerHit, float64(q.HandlerNS)/1e6)
			transportHit = append(transportHit, float64(q.RTTNS-q.HandlerNS)/1e6)
		case "statsz":
			statszMS = append(statszMS, float64(q.RTTNS)/1e6)
		}
	}
	r.set("serve.handler.hit_ms", median(handlerHit), "ms")
	r.set("serve.transport.hit_ms", median(transportHit), "ms")
	r.set("serve.statsz_ms", median(statszMS), "ms")
	if st == nil {
		st = &serveStats{}
	}
	r.set("serve.hit_p50_ms", percentile(st.hit, 0.5), "ms")
	r.set("serve.hit_p99_ms", percentile(st.hit, 0.99), "ms")
	r.set("serve.miss_p50_ms", percentile(st.miss, 0.5), "ms")
	r.set("serve.miss_p99_ms", percentile(st.miss, 0.99), "ms")
	r.set("serve.hit_samples", float64(len(st.hit)), "count")
	r.set("serve.miss_samples", float64(len(st.miss)), "count")
	r.set("serve.coalesced", st.coalesced, "count")
	r.set("serve.rejected", st.rejected, "count")
	r.set("serve.rss_growth_mb", st.rssGrowthMB, "MB")
	r.set("loadgen.late_p99_ms", st.lateP99MS, "ms")
}

// writeSerial writes the traced serve run's request file: the pre-warm
// keys, then serialRequests stream requests with a /statsz poll every
// statszEvery. It returns the requests in file order.
func (r *run) writeSerial(st *serveStats) ([]request, error) {
	var reqs []request
	for i, k := range repeatKeys() {
		reqs = append(reqs, request{Class: "prewarm", Key: i, Body: k})
	}
	for i, q := range genStream(r.seed+1, serialRequests, st.dl) {
		if i%statszEvery == 0 {
			reqs = append(reqs, request{Class: "statsz"})
		}
		reqs = append(reqs, q)
	}
	f, err := os.Create(r.dir("requests.jsonl"))
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, q := range reqs {
		if err := enc.Encode(q); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return reqs, f.Close()
}

// serial sends reqs one at a time to a real dvs-serve at one worker and
// returns the wall time; the server's manifest goes to man.
func (r *run) serial(reqs []request, want []string, man string) (time.Duration, error) {
	srv, err := r.startServer(1, "-manifest", man)
	if err != nil {
		return 0, err
	}
	c := newClient()
	start := time.Now()
	for _, q := range reqs {
		if q.Class == "statsz" {
			statsz(srv.base)
			continue
		}
		status, body, err := post(c, srv.base, q.Body)
		if err != nil {
			stop(srv.cmd)
			return 0, err
		}
		r.op(checkResponse(q, status, body, want))
	}
	wall := time.Since(start)
	c.CloseIdleConnections()
	return wall, stop(srv.cmd)
}
