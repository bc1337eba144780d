// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload and prints every metric by name with its unit,
// then one JSON result line:
//
//	perfbench -workload hot-link -seed 1 -seconds 35 -trace 0
//
// hot-link and many-links drive the unmodified elephantd binary over
// loopback with pre-encoded NetFlow v5 datagrams and time its HTTP API
// from outside; figures runs the paper's figure suite in-process. With
// -trace 1 the run instead composes every layer in-process through its
// public calls, times each, writes the spans as JSONL and prints the
// per-layer table. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the recorded seed a run uses unless -seed is given.
const defaultSeed = 1

// workload describes one live workload's generated load. The rates are
// records per second offered by the open-loop sender.
type workload struct {
	name    string
	links   int     // exporter links, one NetFlow v5 engine ID each
	flows   int     // prefix flows per link
	routes  int     // BGP table size
	meanBps float64 // mean load per link
	cycle   int     // event intervals generated per link before the stream repeats

	nominalRPS  float64 // nominal phase: a quarter to a third of the seed commit's drain rate on the reference host
	overloadRPS float64 // overload phase: at least 1.5x that drain rate

	queryHz  float64       // GET /links/{id}/elephants on random links
	scrapeHz float64       // GET /metrics
	probes   int           // links polled continuously for arrival→publish
	poll     time.Duration // one probe request per poll period, round-robin over the probes
}

var workloads = []*workload{
	{
		name: "hot-link", links: 1, flows: 6500, routes: 60000, meanBps: 300e6, cycle: 64,
		nominalRPS: 120e3, overloadRPS: 600e3,
		queryHz: 100, scrapeHz: 20, probes: 1, poll: 5 * time.Millisecond,
	},
	{
		// 256 links of 100 flows: the aggregate record rate matches
		// hot-link, so decode and attribution do equal work.
		name: "many-links", links: 256, flows: 100, routes: 60000, meanBps: 300e6 / 65, cycle: 64,
		nominalRPS: 120e3, overloadRPS: 800e3,
		queryHz: 100, scrapeHz: 5, probes: 8, poll: time.Millisecond,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's outcome: the JSON line printed last, plus the host
// fingerprint and context kept in the result file.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the result file a run leaves in the output directory.
type record struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     int         `json:"seconds"`
	Trace       int         `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	Result      result      `json:"result"`
	// All holds every metric the run printed, gated or not.
	All map[string]metric `json:"all"`
}

// sheet collects a run's metrics in print order.
type sheet struct {
	order   []string
	metrics map[string]metric
	notes   []string
}

func newSheet() *sheet { return &sheet{metrics: map[string]metric{}} }

func (r *sheet) set(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *sheet) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: hot-link, many-links or figures")
		seed    = flag.Int64("seed", defaultSeed, "input seed")
		seconds = flag.Int("seconds", 35, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		bin     = flag.String("elephantd", ".bench_build/elephantd", "elephantd binary")
		out     = flag.String("out", ".bench_build/perfbench", "directory for tables, logs, spans and result files")
		compare = flag.String("compare", "", "compare two result files, A,B; refused when their host fingerprints differ")
	)
	flag.Parse()
	if *compare != "" {
		if err := compareResults(*compare); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *traced, *bin, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, traced int, bin, out string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds %d, want >= 1", seconds)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("-trace %d, want 0 or 1", traced)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	fp := hostFingerprint()
	var (
		rep *sheet
		res result
		err error
	)
	dur := time.Duration(seconds) * time.Second
	switch {
	case name == "figures" && traced == 0:
		rep, res, err = runFigures(seed, dur)
	case name == "figures":
		rep, res, err = runTraced(nil, seed, dur, out)
	case findWorkload(name) == nil:
		return fmt.Errorf("unknown workload %q (hot-link, many-links, figures)", name)
	case traced == 0:
		rep, res, fp, err = runLive(findWorkload(name), seed, dur, bin, out, fp)
	default:
		rep, res, err = runTraced(findWorkload(name), seed, dur, out)
	}
	if err != nil {
		return err
	}
	fmt.Printf("host: %s\n", fp)
	fmt.Printf("workload %s, seed %d, %ds measured, trace %d\n", name, seed, seconds, traced)
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
	width := 0
	for _, n := range rep.order {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, n := range rep.order {
		m := rep.metrics[n]
		v := "n/a"
		if !math.IsNaN(m.Value) {
			v = fmt.Sprintf("%.6g", m.Value)
		}
		fmt.Printf("  %-*s %14s %s\n", width, n, v, m.Unit)
	}
	if traced == 1 {
		reportOverhead(name, seed, seconds, out, rep)
	}
	file := filepath.Join(out, fmt.Sprintf("result-%s-seed%d-trace%d.json", name, seed, traced))
	rec := record{Workload: name, Seed: seed, Seconds: seconds, Trace: traced, Fingerprint: fp, Result: res, All: map[string]metric{}}
	for n, m := range rep.metrics {
		if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
			rec.All[n] = m
		}
	}
	if b, err := json.MarshalIndent(rec, "", "  "); err == nil {
		if err := os.WriteFile(file, b, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// pick builds the JSON metric map from the named report entries; a
// metric with no measurement (NaN) fails the run rather than printing
// a number that was never measured.
func pick(rep *sheet, names []string) (map[string]metric, error) {
	out := make(map[string]metric, len(names))
	var missing []string
	for _, n := range names {
		m, ok := rep.metrics[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, n)
			continue
		}
		out[n] = m
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("no measurement for %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// endToEnd lists the metrics BENCHMARK.json gates, in its order. The
// latency percentiles, wall_s, loss_frac and wrong_frac are printed
// alongside but not gated; README.md says why.
var endToEnd = []string{"setup_s", "capacity_rps", "cpu_ms_per_krec", "rss_mb", "alloc_mb"}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when empty). +Inf entries — failed requests —
// sort above every latency.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if s[hi] == s[lo] || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
