package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
)

// defaultFiguresDigest is the RunFigure1 row digest of the default seed
// at paper scale; a run at the default seed must reproduce it.
const defaultFiguresDigest = "14956c9de1d3cf14"

// runFigures is the figures workload: paper-scale BuildLinks as set-up,
// then the figure suite repeated for the measured time.
func runFigures(seed int64, dur time.Duration) (*sheet, result, error) {
	rep := newSheet()
	cfg := experiments.LinksConfig{Seed: seed}
	var ls *experiments.LinkSet
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		ls = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if ls, err = experiments.BuildLinks(cfg); err != nil {
			return nil, result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rows := float64(suiteRows(ls))

	var walls, cpus, allocs []float64
	var first []experiments.FigureRun
	digests := map[string]bool{}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < dur; pass++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := selfCPU()
		t0 := time.Now()
		runs, err := suite(ls)
		wall := time.Since(t0)
		cpus = append(cpus, ms(selfCPU()-c0))
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, result{}, err
		}
		walls = append(walls, wall.Seconds())
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		digests[figuresDigest(runs)] = true
		if first == nil {
			first = runs
		}
	}

	// Reference: every RunFigure1 cell alone through engine.RunLink.
	compared, wrong := 0, 0
	for _, r := range first {
		s := ls.West
		if r.Link == "east" {
			s = ls.East
		}
		ref := engine.RunLink(engine.Link{ID: r.Label(), Series: s, Config: r.Scheme.Factory()})
		if ref.Err != nil {
			return nil, result{}, ref.Err
		}
		for t := range r.Results {
			compared++
			if t >= len(ref.Results) || !sameResult(r.Results[t], ref.Results[t]) {
				wrong++
			}
		}
	}
	digest := figuresDigest(first)
	correct := wrong == 0 && compared > 0 && len(digests) == 1
	if seed == defaultSeed && digest != defaultFiguresDigest {
		rep.note("row digest %s differs from the recorded default-seed digest %s", digest, defaultFiguresDigest)
		correct = false
	}
	rss, err := peakRSS("self")
	if err != nil {
		return nil, result{}, err
	}

	// The suite's work is fixed, so its fastest pass is the one least
	// disturbed from outside the benchmark.
	wallMin := quantile(walls, 0)
	rep.note("%d suite passes (RunFigure1 latent heat on, Fig1a, Fig1b, Fig1c, BaselineComparison) over %.0f flow-interval rows each", len(walls), rows)
	rep.note("RunFigure1 row digest %s (%d distinct across passes)", digest, len(digests))
	rep.set("setup_s", "s", median(setups))
	rep.set("capacity_rps", "records/s", rows/wallMin)
	rep.set("cpu_ms_per_krec", "ms", quantile(cpus, 0)/(rows/1000))
	rep.set("rss_mb", "MiB", rss)
	rep.set("wall_s", "s", wallMin)
	rep.set("alloc_mb", "MiB", median(allocs))
	rep.set("wrong_frac", "ratio", float64(wrong)/math.Max(1, float64(compared)))
	// The daemon's metrics have no counterpart in-process.
	for _, n := range []string{"publish_p50_ms", "publish_p99_ms", "query_p50_ms", "query_p99_ms", "scrape_p50_ms", "scrape_p90_ms"} {
		rep.set(n, "ms", math.NaN())
	}
	rep.set("loss_frac", "ratio", math.NaN())
	rep.note("wrong_frac: %d of %d RunFigure1 intervals differ from the cell run alone", wrong, compared)

	res := result{
		Correct:   correct,
		Attempted: int64(len(walls)) + int64(compared),
		Failed:    int64(wrong),
	}
	m, err := pick(rep, endToEnd)
	if err != nil {
		return nil, result{}, err
	}
	res.Metrics = m
	return rep, res, nil
}

// suite runs the figure suite once and returns the Figure 1 runs.
func suite(ls *experiments.LinkSet) ([]experiments.FigureRun, error) {
	runs, err := experiments.RunFigure1(ls, true)
	if err != nil {
		return nil, err
	}
	_ = experiments.Fig1a(runs)
	_ = experiments.Fig1b(runs)
	if _, err := experiments.Fig1c(runs, experiments.Fig1cConfig{}); err != nil {
		return nil, err
	}
	if _, err := experiments.BaselineComparison(ls); err != nil {
		return nil, err
	}
	return runs, nil
}

// suiteRows counts the flow-interval rows one suite pass classifies:
// four Figure 1 cells (two schemes on each link) and six baseline
// strategies on the west link.
func suiteRows(ls *experiments.LinkSet) int {
	west, east := seriesRows(ls.West), seriesRows(ls.East)
	return 2*west + 2*east + 6*west
}

func seriesRows(s *agg.Series) int {
	n := 0
	for t := 0; t < s.Intervals; t++ {
		n += s.ActiveFlows(t)
	}
	return n
}

// sameResult compares two interval results bit for bit.
func sameResult(a, b core.Result) bool {
	if a.Interval != b.Interval || a.RawThreshold != b.RawThreshold || a.Threshold != b.Threshold ||
		a.ElephantLoad != b.ElephantLoad || a.TotalLoad != b.TotalLoad || a.ActiveFlows != b.ActiveFlows {
		return false
	}
	fa, fb := a.Elephants.Flows(), b.Elephants.Flows()
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if fa[i] != fb[i] {
			return false
		}
	}
	return true
}

// figuresDigest hashes every RunFigure1 row: thresholds, loads and the
// elephant set of each interval of each cell.
func figuresDigest(runs []experiments.FigureRun) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, r := range runs {
		fmt.Fprintf(h, "%s\n", r.Label())
		for _, res := range r.Results {
			put(res.RawThreshold)
			put(res.Threshold)
			put(res.ElephantLoad)
			put(res.TotalLoad)
			put(float64(res.ActiveFlows))
			for _, p := range res.Elephants.Flows() {
				h.Write([]byte(p.String()))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
