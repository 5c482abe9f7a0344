package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// minPasses is the least number of measured passes a run makes, however
// short --seconds is.
const minPasses = 3

// benchWorkers is dvs-bench's -workers. With two, a sweep's wall time
// depends on how its uneven cells happen to pack onto the two workers: on
// a 2-vCPU machine the cold sweep's run-to-run spread halved at one worker.
// Branch and bound still runs at GOMAXPROCS within each solve, and the
// traced driver runs the same cells at the same setting, so both see the
// same artifact keys.
const benchWorkers = "1"

// bench runs dvs-bench with the pinned worker count.
func (r *run) bench(args ...string) ([]byte, usage, error) {
	return r.timed(r.command("dvs-bench", append([]string{"-workers", benchWorkers}, args...)...))
}

func (r *run) dir(name string) string { return filepath.Join(r.work, name) }

// passes calls pass until --seconds have elapsed and at least minPasses
// ran. It records the mean wall and CPU time of a pass and the median peak
// RSS.
//
// Times are means, not medians. On a shared 2-vCPU KVM guest (Xeon, Go
// 1.24) the host ran a pass in one of two speed states about 1.5x apart and
// switched every few seconds, so a run's median jumped between the two
// modes as the share of slow passes crossed one half. The mean, the run's
// total over its pass count, moves only in proportion to that share. Over
// 15 s windows of back-to-back warm sweeps, the spread between windows was
// 0.08-0.17 of the middle value for the mean and 0.09-0.28 for the median.
func (r *run) passes(pass func(i int) (usage, error)) error {
	var wall, cpu, rss []float64
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start).Seconds() < r.seconds; i++ {
		u, err := pass(i)
		if err != nil {
			return err
		}
		wall = append(wall, u.wall.Seconds())
		cpu = append(cpu, u.cpu.Seconds())
		rss = append(rss, u.rssMB)
	}
	r.set("wall_s", mean(wall), "s")
	r.set("cpu_s", mean(cpu), "s")
	r.set("peak_rss_mb", median(rss), "MB")
	fmt.Fprintf(os.Stderr, "perfbench: %d passes, wall mean %.4fs, median %.4fs\n", len(wall), mean(wall), median(wall))
	return nil
}

// setup times fn setups times and records the median as setup_s.
func (r *run) setup(fn func(i int) error) error {
	var ts []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	r.set("setup_s", median(ts), "s")
	return nil
}

// checkCold compares a cold sweep's tables with the golden, timings masked,
// and its manifest with a cold run's shape: every cached stage computed,
// nothing read from disk.
func checkCold(out []byte, manifest string) error {
	want, err := golden("sweep.txt")
	if err != nil {
		return err
	}
	if err := firstDiff("sweep tables", maskTimings(out), want); err != nil {
		return err
	}
	m, err := readManifest(manifest)
	if err != nil {
		return err
	}
	for _, st := range []string{"record", "profile", "solve", "validate"} {
		if m[st].Misses == 0 || m[st].DiskHits != 0 {
			return fmt.Errorf("cold manifest: stage %s has %d misses, %d disk hits", st, m[st].Misses, m[st].DiskHits)
		}
	}
	return nil
}

// sweepCold: every pass regenerates the non-surface experiments against an
// empty cache. Set-up creates the empty cache and warms up with a few small
// uncached cells (table4, table7, fig15), so setup_s is never a bare mkdir.
// After the measured passes, one untimed warm pass reruns the sweep against
// the last pass's cache and must print the same bytes.
func (r *run) sweepCold() error {
	err := r.setup(func(i int) error {
		if err := os.MkdirAll(r.dir(fmt.Sprintf("cold-%d", i)), 0o755); err != nil {
			return err
		}
		_, _, err := r.bench("-scale", sweepScale, "-exp", "table4,table7,fig15", "-no-cache")
		return err
	})
	if err != nil {
		return err
	}
	var last []byte
	var lastCache string
	err = r.passes(func(i int) (usage, error) {
		if err := os.RemoveAll(lastCache); err != nil {
			return usage{}, err
		}
		cache, man := r.dir(fmt.Sprintf("cold-%d", i)), r.dir(fmt.Sprintf("cold-%d.json", i))
		if err := os.MkdirAll(cache, 0o755); err != nil {
			return usage{}, err
		}
		out, u, err := r.bench("-scale", sweepScale, "-exp", sweepExps, "-cache-dir", cache, "-manifest", man)
		if err != nil {
			return u, err
		}
		r.op(checkCold(out, man))
		last, lastCache = out, cache
		return u, nil
	})
	if err != nil {
		return err
	}
	man := r.dir("warm.json")
	out, _, err := r.bench("-scale", sweepScale, "-exp", sweepExps, "-cache-dir", lastCache, "-manifest", man)
	if err != nil {
		return err
	}
	r.op(checkWarm(out, last, man))
	return nil
}

// checkWarm compares a warm pass's tables with those of the cold pass that
// filled its cache. A cached stage that missed is reported, not failed: the
// store's rule is that a missing artifact costs only a recompute, and the
// seed's write batching can drop the last batch a cold fill writes (see
// ROADMAP). A recomputed solve still fails the table check, through its
// solve time.
func checkWarm(out, fill []byte, manifest string) error {
	if err := firstDiff("warm vs cold tables", string(out), string(fill)); err != nil {
		return err
	}
	m, err := readManifest(manifest)
	if err != nil {
		return err
	}
	for st, s := range m {
		if s.Misses != 0 && st != "filter" && st != "formulate" {
			fmt.Fprintf(os.Stderr, "perfbench: warm pass recomputed %d %s artifacts missing from its cache\n", s.Misses, st)
		}
	}
	return nil
}

// surfaces: the analytic figures 2-11 at a fixed grid; no pipeline, store or
// simulator. Set-up is one warm-up pass at a coarser grid.
func (r *run) surfaces() error {
	want, err := golden("surfaces.txt")
	if err != nil {
		return err
	}
	err = r.setup(func(int) error {
		_, _, err := r.bench("-exp", surfExps, "-grid", warmGrid, "-no-cache")
		return err
	})
	if err != nil {
		return err
	}
	return r.passes(func(int) (usage, error) {
		out, u, err := r.bench("-exp", surfExps, "-grid", surfGrid, "-no-cache")
		if err != nil {
			return u, err
		}
		r.op(firstDiff("surface tables", string(out), want))
		return u, nil
	})
}

// regenGolden rewrites the goldens from this checkout's CLIs. Run it only
// when a change to the program's output is intended, and review the diff.
func (r *run) regenGolden() error {
	out, _, err := r.bench("-scale", sweepScale, "-exp", sweepExps, "-no-cache")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join("perfbench", "golden", "sweep.txt"), []byte(maskTimings(out)), 0o644); err != nil {
		return err
	}
	if out, _, err = r.bench("-exp", surfExps, "-grid", surfGrid, "-no-cache"); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "golden", "surfaces.txt"), out, 0o644)
}
