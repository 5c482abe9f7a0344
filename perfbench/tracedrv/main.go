//go:build benchtrace

// Command benchtrace-drv is the benchmark's traced driver. The benchmark
// copies it into an instrumented copy of the ctdvs sources, where every
// layer's entry points record spans, and runs it at one worker:
//
//	benchtrace-drv -mode bench -scale 0.2 -exp table1,fig14 -cache-dir DIR -out tables.txt
//	benchtrace-drv -mode serve -scale 0.2 -requests reqs.jsonl
//
// Bench mode runs the named dvs-bench experiments in dvs-bench's order and
// prints the same tables. Serve mode starts an in-process dvs-serve on a
// loopback port and sends the request file one request at a time. Both write
// the span summary as JSON (-summary) and the spans as a Chrome trace
// (-trace).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"ctdvs/internal/benchtrace"
	"ctdvs/internal/exp"
	"ctdvs/internal/milp"
	"ctdvs/internal/pipeline"
	"ctdvs/internal/serve"
)

type result struct {
	WallNS  int64              `json:"wall_ns"`
	Summary benchtrace.Summary `json:"summary"`
	Serve   []reqResult        `json:"serve,omitempty"`
}

type reqResult struct {
	Class     string `json:"class"`
	Status    int    `json:"status"`
	RTTNS     int64  `json:"rtt_ns"`
	HandlerNS int64  `json:"handler_ns"`
	Body      string `json:"body,omitempty"`
}

func main() {
	mode := flag.String("mode", "bench", "bench or serve")
	scale := flag.Float64("scale", 1, "workload scale factor")
	expList := flag.String("exp", "", "comma-separated experiments (bench mode)")
	grid := flag.Int("grid", 16, "surface grid resolution")
	cacheDir := flag.String("cache-dir", "", "artifact store (empty = in memory)")
	outPath := flag.String("out", "", "tables output (bench mode)")
	reqPath := flag.String("requests", "", "request file, one JSON object per line (serve mode)")
	summaryPath := flag.String("summary", "summary.json", "summary output")
	tracePath := flag.String("trace", "trace.json", "Chrome trace output")
	flag.Parse()

	cfg := exp.NewConfig(*scale)
	if *mode == "bench" {
		// dvs-bench -workers 1: the same experiment fan-out and the same
		// solver options, hence the same artifact keys.
		cfg.Workers = 1
		cfg.MILP = &milp.Options{TimeLimit: 2 * time.Minute}
	}
	var store *pipeline.Store
	if *cacheDir != "" {
		s, err := pipeline.Open(*cacheDir)
		check(err)
		// Read through the plain copying path wherever the store offers a
		// choice; asserted through an interface so the driver still builds
		// once that choice is gone.
		if m, ok := any(s).(interface{ SetMappedReads(bool) }); ok {
			m.SetMappedReads(false)
		}
		store = s
	}
	cfg.Pipeline = pipeline.NewRunner(store)

	var res result
	start := time.Now()
	switch *mode {
	case "bench":
		var out bytes.Buffer
		check(runBench(cfg, strings.Split(*expList, ","), *grid, &out))
		res.WallNS = int64(time.Since(start))
		check(os.WriteFile(*outPath, out.Bytes(), 0o644))
	case "serve":
		var err error
		res.Serve, err = runServe(cfg, *reqPath)
		check(err)
		res.WallNS = int64(time.Since(start))
	default:
		check(fmt.Errorf("unknown mode %q", *mode))
	}
	if store != nil {
		if c, ok := any(store).(interface{ Close() error }); ok {
			check(c.Close())
		}
	}
	res.Summary = benchtrace.Snapshot()
	data, err := json.Marshal(res)
	check(err)
	check(os.WriteFile(*summaryPath, data, 0o644))
	f, err := os.Create(*tracePath)
	check(err)
	check(benchtrace.WriteTrace(f))
	check(f.Close())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtrace-drv:", err)
		os.Exit(1)
	}
}

// runBench mirrors cmd/dvs-bench: the same experiments, in the same order,
// rendered the same way. Each experiment is one exp.cell span.
func runBench(cfg *exp.Config, names []string, grid int, out io.Writer) error {
	selected := map[string]bool{}
	for _, n := range names {
		selected[strings.TrimSpace(n)] = true
	}
	want := func(n string) bool { return selected[n] }
	show := func(t *exp.Table) error {
		if err := t.Render(out); err != nil {
			return err
		}
		_, err := fmt.Fprintln(out)
		return err
	}
	type step struct {
		on  bool
		run func() error
	}
	ablation := func(title string, f func(*exp.Config) ([]exp.AblationRow, error)) func() error {
		return func() error {
			rows, err := f(cfg)
			if err != nil {
				return err
			}
			return show(exp.RenderAblation(title, rows))
		}
	}
	steps := []step{
		{want("fig2"), func() error { return show(exp.Figure2().Table()) }},
		{want("fig3"), func() error { return show(exp.Figure3().Table()) }},
		{want("fig4"), func() error { return show(exp.Figure4().Table()) }},
		{want("fig5"), func() error { return show(exp.Figure5(grid).Table()) }},
		{want("fig6"), func() error { return show(exp.Figure6(grid).Table()) }},
		{want("fig7"), func() error { return show(exp.Figure7(grid).Table()) }},
		{want("fig8"), func() error {
			c, err := exp.Figure8(60)
			if err != nil {
				return err
			}
			return show(c.Table())
		}},
		{want("fig9"), surface(show, exp.Figure9, grid)},
		{want("fig10"), surface(show, exp.Figure10, grid)},
		{want("fig11"), surface(show, exp.Figure11, grid)},
		{want("table1"), func() error {
			rows, err := exp.Table1(cfg)
			if err != nil {
				return err
			}
			return show(exp.RenderTable1(rows))
		}},
		{want("table4"), func() error {
			rows, err := exp.Table4(cfg)
			if err != nil {
				return err
			}
			return show(exp.RenderTable4(rows))
		}},
		{want("table7"), func() error {
			rows, err := exp.Table7(cfg)
			if err != nil {
				return err
			}
			return show(exp.RenderTable7(rows))
		}},
		{want("table3") || want("fig14"), func() error {
			rows, err := exp.Table3Figure14(cfg)
			if err != nil {
				return err
			}
			return show(exp.RenderTable3Figure14(rows))
		}},
		{want("fig15"), func() error {
			rows, err := exp.Figure15(cfg)
			if err != nil {
				return err
			}
			return show(exp.RenderFigure15(rows))
		}},
		{want("fig17") || want("fig18") || want("table5"), func() error {
			rows, err := exp.DeadlineSweep(cfg)
			if err != nil {
				return err
			}
			for _, r := range []struct {
				name string
				t    func([]exp.DeadlineSweepRow) *exp.Table
			}{{"fig17", exp.RenderFigure17}, {"fig18", exp.RenderFigure18}, {"table5", exp.RenderTable5}} {
				if want(r.name) {
					if err := show(r.t(rows)); err != nil {
						return err
					}
				}
			}
			return nil
		}},
		{want("table6"), func() error {
			rows, err := exp.Table6(cfg)
			if err != nil {
				return err
			}
			return show(exp.RenderTable6(rows))
		}},
		{want("fig19"), func() error {
			rows, err := exp.Figure19(cfg)
			if err != nil {
				return err
			}
			return show(exp.RenderFigure19(rows))
		}},
		{want("ablation-transition"), ablation("Ablation: transition-cost-aware vs Saputra-style blind MILP (c = 100 µF)", exp.AblationNoTransitionCost)},
		{want("ablation-block"), ablation("Ablation: edge-based vs block-based mode variables", exp.AblationBlockBased)},
		{want("ablation-heuristic"), ablation("Ablation: MILP vs memory-bound-region heuristic", exp.AblationHeuristic)},
		{want("runtime"), func() error {
			rows, err := exp.RuntimeVsCompileTime(cfg)
			if err != nil {
				return err
			}
			return show(exp.RenderRuntime(rows))
		}},
		{want("placement"), func() error {
			rows, err := exp.PlacementStats(cfg)
			if err != nil {
				return err
			}
			return show(exp.RenderPlacement(rows))
		}},
		{want("ablation-pathfilter"), func() error {
			rows, err := exp.AblationPathFilter(cfg, 0.98)
			if err != nil {
				return err
			}
			return show(exp.RenderPathFilter(rows))
		}},
		{want("ablation-leakage"), func() error {
			rows, err := exp.AblationLeakage(cfg, exp.DefaultLeakageSweep())
			if err != nil {
				return err
			}
			return show(exp.RenderLeakage(rows))
		}},
	}
	for _, s := range steps {
		if !s.on {
			continue
		}
		sp := benchtrace.Begin("exp.cell")
		err := s.run()
		sp.End()
		if err != nil {
			return err
		}
	}
	return nil
}

func surface(show func(*exp.Table) error, f func(int) (*exp.Surface, error), grid int) func() error {
	return func() error {
		s, err := f(grid)
		if err != nil {
			return err
		}
		return show(s.Table())
	}
}

// runServe serves the request file through an in-process server at one
// worker, one request at a time, timing each round trip and the handler
// span it produced.
func runServe(cfg *exp.Config, path string) ([]reqResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	srv := serve.New(cfg, serve.Options{Workers: 1, QueueDepth: 16, SolveLimit: 2 * time.Minute, SolveWorkers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	defer func() {
		srv.Drain()
		hs.Close()
		<-done
	}()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}

	var out []reqResult
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Class string          `json:"class"`
			Body  json.RawMessage `json:"body"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, err
		}
		span := "serve.handler"
		var req *http.Request
		if line.Class == "statsz" {
			span = "serve.statsz"
			req, err = http.NewRequest(http.MethodGet, base+"/statsz", nil)
		} else {
			req, err = http.NewRequest(http.MethodPost, base+"/optimize", bytes.NewReader(line.Body))
		}
		if err != nil {
			return nil, err
		}
		before := benchtrace.Get(span)
		t := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		rtt := time.Since(t)
		if err != nil {
			return nil, err
		}
		// The handler's span ends just after it writes the response, which
		// the client may see first; wait for it.
		for wait := time.Now(); benchtrace.Calls(span) == before.Calls; {
			if time.Since(wait) > 10*time.Second {
				return nil, fmt.Errorf("%s span never ended", span)
			}
			time.Sleep(20 * time.Microsecond)
		}
		r := reqResult{Class: line.Class, Status: resp.StatusCode, RTTNS: int64(rtt),
			HandlerNS: benchtrace.Get(span).TotalNS - before.TotalNS}
		if line.Class != "statsz" {
			r.Body = string(body)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
