package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procUsage reads CPU time and peak RSS from an exited child's rusage.
func procUsage(ps *os.ProcessState) (time.Duration, float64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return ps.UserTime() + ps.SystemTime(), 0
	}
	return ps.UserTime() + ps.SystemTime(), float64(ru.Maxrss) / 1024
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile: the smallest sample with at
// least p of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// beyond is how many samples lie above the p-percentile rank; a reported
// percentile needs at least ten.
func beyond(n int, p float64) int { return n - int(math.Ceil(p*float64(n))) }

var (
	durationTok = regexp.MustCompile(`^[0-9]+(\.[0-9]+)?(ns|µs|us|ms|s)$|^[0-9]+m[0-9]+(\.[0-9]+)?s$`)
	speedupTok  = regexp.MustCompile(`^[0-9]+(\.[0-9]+)?x$`)
	ruleTok     = regexp.MustCompile(`^-+$`)
)

// maskTimings blanks every measured time in dvs-bench's tables, so tables
// from different runs compare equal: duration tokens everywhere (fig14
// t(all)/t(subset), fig18 solve times, the path-filter ablation's solve
// times) and fig14's speedup ratio. Column padding depends on those widths,
// so tokens are re-joined with single spaces and rules collapsed.
func maskTimings(out []byte) string {
	var b strings.Builder
	inFig14 := false
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "Table 3 / Figure 14") {
			inFig14 = true
		} else if line == "" {
			inFig14 = false
		}
		toks := strings.Fields(line)
		for i, t := range toks {
			switch {
			case durationTok.MatchString(t):
				toks[i] = "<time>"
			case inFig14 && speedupTok.MatchString(t):
				toks[i] = "<ratio>"
			case ruleTok.MatchString(t):
				toks[i] = "-"
			}
		}
		b.WriteString(strings.Join(toks, " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// golden reads a committed expected output.
func golden(name string) (string, error) {
	data, err := os.ReadFile(filepath.Join("perfbench", "golden", name))
	return string(data), err
}

// firstDiff describes where got and want first differ.
func firstDiff(what, got, want string) error {
	if got == want {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Errorf("%s: line %d: got %q, want %q", what, i+1, g[i], w[i])
		}
	}
	return fmt.Errorf("%s: %d lines, want %d", what, len(g), len(w))
}

// stageStats is one stage's row of a dvs-* -manifest summary.
type stageStats struct {
	Misses   int64 `json:"misses"`
	DiskHits int64 `json:"disk_hits"`
	MemHits  int64 `json:"mem_hits"`
}

func readManifest(path string) (map[string]stageStats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m struct {
		Summary map[string]stageStats `json:"summary"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	return m.Summary, nil
}

// procStatus reads a /proc/<pid>/status field in kB, as MB.
func procStatus(pid int, field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == field {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// procCPU reads a live process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// Fields after the command: state is f[0], utime f[11], stime f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, 100 on every Linux ABI Go supports.
const clockTicks = 100

// stop asks a child to exit with SIGTERM and waits for it, killing it if it
// does not exit in time.
func stop(cmd *exec.Cmd) error {
	if cmd.Process == nil {
		return nil
	}
	_ = cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		_ = cmd.Process.Kill()
		<-done
		return fmt.Errorf("%s did not exit on SIGTERM", cmd.Path)
	}
}
