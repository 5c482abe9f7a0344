// Command perfbench is the ctdvs end-to-end benchmark. It builds the real
// CLIs from the checkout it runs in, drives one workload, checks every
// output, and prints the metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
//
// Workloads: sweep-cold, surfaces, serve-mix (see BENCHMARK.json
// for why each exists). --trace 0 prints the end-to-end metrics of untraced
// runs; --trace 1 prints the per-layer metrics of a separate traced run made
// with an instrumented copy of the sources (see instrument.go).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Pinned concurrency: never a host default.
const (
	procs    = 2 // GOMAXPROCS of every process, -serve-workers and client connections
	gogc     = "100"
	buildDir = ".bench_build"
)

// Fixed workload sizes. Sweeps run at one scale and surfaces at one grid;
// every golden under perfbench/golden is for exactly these.
const (
	sweepScale = "0.2"
	serveScale = "0.2"
	surfGrid   = "4"
	warmGrid   = "2"
)

var sweepExps = strings.Join([]string{
	"table1", "table3", "table4", "table5", "table6", "table7",
	"fig14", "fig15", "fig17", "fig18", "fig19", "placement", "runtime",
	"ablation-transition", "ablation-block", "ablation-heuristic",
	"ablation-pathfilter", "ablation-leakage",
}, ",")

var surfExps = "fig2,fig3,fig4,fig5,fig6,fig7,fig8,fig9,fig10,fig11"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its result.
type run struct {
	seed    int64
	seconds float64
	work    string // scratch directory, removed at exit
	bin     string
	res     result
}

func (r *run) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one checked operation; a non-nil err marks it failed.
func (r *run) op(err error) {
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
}

func main() {
	workload := flag.String("workload", "", "sweep-cold, surfaces or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	regen := flag.Bool("regen-golden", false, "rewrite perfbench/golden from this checkout's CLIs and exit")
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	if *regen {
		*workload = "regen-golden"
	}
	if err := mainErr(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds int, traced bool) error {
	for _, p := range []string{"go.mod", "cmd/dvs-bench", "cmd/dvs-serve", "internal"} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("not a ctdvs checkout: %w", err)
		}
	}
	r := &run{seed: seed, seconds: float64(seconds), bin: filepath.Join(buildDir, "bin"),
		res: result{Metrics: map[string]metric{}}}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return err
	}
	r.work = work
	defer os.RemoveAll(work)

	var fn func() error
	switch workload {
	case "sweep-cold":
		fn = r.sweepCold
	case "surfaces":
		fn = r.surfaces
	case "serve-mix":
		fn = r.serveMix
	case "regen-golden":
		return r.regenGolden()
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	if traced {
		fn = func() error { return r.traced(workload) }
	}
	spin(warmup)
	if err := fn(); err != nil {
		return err
	}
	if r.res.Attempted == 0 {
		return errors.New("no operation attempted")
	}
	r.res.Correct = r.res.Failed == 0
	host, err := json.Marshal(hostFingerprint())
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", host)
	out, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// warmup is how long every run keeps all procs CPUs busy before it sets up:
// on a shared 2-vCPU virtual machine (Xeon, Go 1.24) the first second or two
// of work after an idle spell ran markedly slower than the rest.
const warmup = 2 * time.Second

// spin keeps procs goroutines busy for d.
func spin(d time.Duration) {
	var wg sync.WaitGroup
	end := time.Now().Add(d)
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := 1.0
			for time.Now().Before(end) {
				for k := 0; k < 1000; k++ {
					x = x*1.0000001 + 1e-9
				}
			}
			sink.Store(math.Float64bits(x))
		}()
	}
	wg.Wait()
}

var sink atomic.Uint64

// hostFingerprint identifies the machine a result was measured on.
func hostFingerprint() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":  cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"gogc":       gogc,
	}
}

// command returns a child process of one of the built binaries with the
// pinned runtime settings.
func (r *run) command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(r.bin, name), args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs), "GOGC="+gogc)
	cmd.Stderr = os.Stderr
	return cmd
}

// timed runs cmd to completion and returns its stdout, wall time, CPU time
// and peak RSS.
type usage struct {
	wall, cpu time.Duration
	rssMB     float64
}

func (r *run) timed(cmd *exec.Cmd) ([]byte, usage, error) {
	var out strings.Builder
	cmd.Stdout = &out
	start := time.Now()
	err := cmd.Run()
	u := usage{wall: time.Since(start)}
	if err != nil {
		return nil, u, fmt.Errorf("%s: %w", strings.Join(cmd.Args, " "), err)
	}
	u.cpu, u.rssMB = procUsage(cmd.ProcessState)
	return []byte(out.String()), u, nil
}
