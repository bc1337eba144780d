package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
)

// fingerprint identifies the host and daemon configuration a result was
// measured under. Results are only comparable when fingerprints match.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	// The daemon's effective ingest settings, read back from its API
	// (zero on the in-process workloads, which run no daemon).
	Readers int `json:"elephantd_readers"`
	Shards  int `json:"elephantd_shards"`
	Buffer  int `json:"elephantd_buffer"`
}

func (f fingerprint) String() string {
	s := fmt.Sprintf("nproc=%d cpu=%q go=%s GOMAXPROCS=%d kernel=%s", f.NProc, f.CPUModel, f.GoVersion, f.GOMAXPROCS, f.Kernel)
	if f.Readers > 0 {
		s += fmt.Sprintf(" elephantd -readers=%d -shards=%d -buffer=%d", f.Readers, f.Shards, f.Buffer)
	}
	return s
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Kernel:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	return fp
}

// daemonBuffer is the per-link queue capacity elephantd runs with under
// its default -buffer 0.
const daemonBuffer = engine.DefaultLiveBuffer

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on every mainstream Linux configuration).
const clockTick = 10 * time.Millisecond

// procCPU returns the process's utime+stime from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS returns VmHWM of the process in MiB ("self" for this one).
func peakRSS(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// compareResults prints the metric ratios of two result files, refusing
// when they were measured under different fingerprints.
func compareResults(arg string) error {
	a, b, ok := strings.Cut(arg, ",")
	if !ok {
		return fmt.Errorf("-compare wants two result files, A,B")
	}
	var ra, rb record
	for _, x := range []struct {
		path string
		dst  *record
	}{{a, &ra}, {b, &rb}} {
		data, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, x.dst); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	if ra.Fingerprint != rb.Fingerprint {
		return fmt.Errorf("refusing to compare: host fingerprints differ\n  %s: %s\n  %s: %s", a, ra.Fingerprint, b, rb.Fingerprint)
	}
	if ra.Workload != rb.Workload || ra.Trace != rb.Trace || ra.Seconds != rb.Seconds {
		return fmt.Errorf("refusing to compare: %s/trace%d/%ds vs %s/trace%d/%ds",
			ra.Workload, ra.Trace, ra.Seconds, rb.Workload, rb.Trace, rb.Seconds)
	}
	fmt.Printf("host: %s\n", ra.Fingerprint)
	for _, n := range sortedKeys(ra.All) {
		ma := ra.All[n]
		mb, ok := rb.All[n]
		if !ok {
			continue
		}
		fmt.Printf("  %-34s %14.6g %14.6g %s  (B/A %.3f)\n", n, ma.Value, mb.Value, ma.Unit, mb.Value/ma.Value)
	}
	return nil
}

func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
