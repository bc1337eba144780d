package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/scheme"
	"repro/internal/serve"
)

// setupRepeats is how many times a live run starts the daemon and waits
// for its first publish; setup_s is the median, and the last daemon
// carries on into the measured phases.
const setupRepeats = 3

// nominalShare is the share of the measured time spent in the nominal
// phase; the rest is the overload phase.
const nominalShare = 0.6

// capacitySkip is the leading share of the overload phase left out of
// capacity_rps while the daemon's backlog builds up; the rest is cut
// into capacityWindows windows and capacity_rps is their median rate.
const (
	capacitySkip    = 0.25
	capacityWindows = 24
)

// latencyWindows is how many equal windows the nominal phase is cut
// into. On a shared virtual machine the hypervisor takes CPU time away
// in episodes lasting seconds (steal time in /proc/stat), and those
// episodes move latency several-fold while saying nothing about the
// program. So each window's steal is recorded, and a latency percentile
// is taken over the samples of the quarter of the windows with the
// least steal.
const latencyWindows = 40

// daemonScheme is elephantd's default -scheme; the reference uses the
// same spec.
const daemonScheme = "load+latent"

// daemonProc is one elephantd process on loopback ports.
type daemonProc struct {
	cmd     *exec.Cmd
	udpAddr string
	api     *apiClient // the prober connection; the API load uses its own
	done    chan error
}

// freePorts reserves a UDP and a TCP loopback port by binding :0 and
// releasing them for the daemon to take.
func freePorts() (udp, tcp string, err error) {
	uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return "", "", err
	}
	udp = uc.LocalAddr().String()
	uc.Close()
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	tcp = tl.Addr().String()
	tl.Close()
	return udp, tcp, nil
}

// startDaemon execs elephantd with its default flags apart from the
// listen addresses and the generated BGP table, and waits until its
// API answers.
func startDaemon(bin, table, logPath string) (*daemonProc, error) {
	udp, tcp, err := freePorts()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-table", table, "-udp", udp, "-http", tcp)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemonProc{cmd: cmd, udpAddr: udp, api: newAPIClient("http://" + tcp), done: make(chan error, 1)}
	go func() {
		d.done <- cmd.Wait()
		logf.Close()
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, code, err := d.api.get("/healthz"); err == nil && code == http.StatusOK {
			return d, nil
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("elephantd exited during start-up (%v); see %s", err, logPath)
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("elephantd API not answering after 60s; see %s", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM (the daemon drains and shuts down gracefully) and
// waits for the process, killing it if it does not exit in time.
func (d *daemonProc) stop() error {
	d.api.close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("elephantd did not exit within 30s of SIGTERM; killed")
	}
}

// apiClient is one keep-alive HTTP connection to the daemon's API. Each
// client is used by one goroutine at a time, so it never opens a second
// connection.
type apiClient struct {
	base string
	c    *http.Client
	tr   *http.Transport
}

func newAPIClient(base string) *apiClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &apiClient{base: base, tr: tr, c: &http.Client{Transport: tr, Timeout: 20 * time.Second}}
}

func (a *apiClient) close() { a.tr.CloseIdleConnections() }

func (a *apiClient) get(path string) ([]byte, int, error) {
	resp, err := a.c.Get(a.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

func (a *apiClient) getJSON(path string, v any) error {
	body, code, err := a.get(path)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, code)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// sender is the open-loop load generator: one UDP socket sending the
// stream from position next on a fixed record-rate schedule, whatever
// the daemon does.
type sender struct {
	conn *net.UDPConn
	st   *stream
	next int
	buf  []byte
	pos  atomic.Int64 // next, published for other goroutines

	sched schedule // of the current run call

	late []float64 // ms each datagram left after its due time, when recording
}

func newSender(addr string, st *stream) (*sender, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	c, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	return &sender{conn: c, st: st}, nil
}

// schedule is an open-loop sending plan: stream position p is due at
// t0 + (recordsBefore(p)-baseRecs)/rps.
type schedule struct {
	st       *stream
	t0       time.Time
	baseRecs int64
	rps      float64
}

func (s schedule) due(p int) time.Time {
	return s.t0.Add(time.Duration(float64(s.st.recordsBefore(p)-s.baseRecs) / s.rps * 1e9))
}

// run sends from s.next on the schedule starting at t0 with rps
// records/s until the deadline (unix nanoseconds, re-read every
// datagram so another goroutine can move it) passes.
func (s *sender) run(t0 time.Time, rps float64, deadline *atomic.Int64, recordLate bool) error {
	s.sched = schedule{st: s.st, t0: t0, baseRecs: s.st.recordsBefore(s.next), rps: rps}
	for {
		due := s.sched.due(s.next)
		now := time.Now()
		if wait := due.Sub(now); wait > 0 {
			time.Sleep(wait)
			now = time.Now()
		}
		if now.UnixNano() >= deadline.Load() {
			return nil
		}
		s.buf = s.st.datagram(s.next, s.buf)
		if _, err := s.conn.Write(s.buf); err != nil {
			return fmt.Errorf("sending datagram %d: %w", s.next, err)
		}
		if recordLate {
			s.late = append(s.late, ms(now.Sub(due)))
		}
		s.next++
		s.pos.Store(int64(s.next))
	}
}

// pollAnswer is one elephants answer on a probe link.
type pollAnswer struct {
	at       time.Time
	interval int
}

var intervalKey = []byte(`"interval":`)

// parseInterval pulls the interval field out of an elephants answer
// without decoding the (possibly large) flow list.
func parseInterval(body []byte) (int, error) {
	i := bytes.Index(body, intervalKey)
	if i < 0 {
		return 0, fmt.Errorf("no interval in elephants answer")
	}
	rest := bytes.TrimLeft(body[i+len(intervalKey):], " ")
	j := 0
	for j < len(rest) && (rest[j] == '-' || rest[j] >= '0' && rest[j] <= '9') {
		j++
	}
	return strconv.Atoi(string(rest[:j]))
}

func linkID(engineID int) string { return "127.0.0.1@" + strconv.Itoa(engineID) }

// probeLinks spreads the probes over the link range.
func probeLinks(w *workload) []int {
	out := make([]int, w.probes)
	for k := range out {
		out[k] = k * w.links / w.probes
	}
	return out
}

// waitPublished polls /links until every one of the workload's links
// has published an interval, returning when it saw that.
func waitPublished(a *apiClient, links int, limit time.Duration) (time.Time, error) {
	deadline := time.Now().Add(limit)
	for {
		var page serve.LinksPage
		if err := a.getJSON("/links", &page); err != nil {
			return time.Time{}, err
		}
		published := 0
		for _, l := range page.Links {
			if l.Last != nil {
				published++
			}
		}
		now := time.Now()
		if published == links && len(page.Links) == links {
			return now, nil
		}
		if now.After(deadline) {
			return time.Time{}, fmt.Errorf("%d of %d links published within %v", published, links, limit)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitDrained polls /healthz until the daemon has read every datagram
// sent, or its count stops moving for 300ms (the rest were dropped by
// the kernel), and returns the last answer.
func waitDrained(a *apiClient, sent int64) (serve.Health, error) {
	var h serve.Health
	last, still := uint64(math.MaxUint64), time.Now()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := a.getJSON("/healthz", &h); err != nil {
			return h, err
		}
		if int64(h.Datagrams) >= sent {
			// Give the pipelines a moment to take the last records.
			time.Sleep(50 * time.Millisecond)
			return h, a.getJSON("/healthz", &h)
		}
		now := time.Now()
		if h.Datagrams != last {
			last, still = h.Datagrams, now
		} else if now.Sub(still) > 300*time.Millisecond {
			return h, nil
		}
		if now.After(deadline) {
			return h, fmt.Errorf("daemon still reading datagrams after 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// lawCheck verifies the daemon's conservation laws on one quiescent
// /healthz + /links snapshot and returns the kernel-drop remainder.
func lawCheck(h serve.Health, page serve.LinksPage, sentDgrams int64, links int) (int64, []string) {
	var errs []string
	var dgrams, recs uint64
	for _, l := range page.Links {
		dgrams += l.Ingest.Datagrams
		recs += l.Ingest.Records
		if in := l.Ingest; in.Records != in.Routed+in.Unrouted+in.Dropped {
			errs = append(errs, fmt.Sprintf("link %s: records %d != routed %d + unrouted %d + dropped %d",
				l.ID, in.Records, in.Routed, in.Unrouted, in.Dropped))
		}
		if l.Error != "" {
			errs = append(errs, fmt.Sprintf("link %s failed: %s", l.ID, l.Error))
		}
	}
	if h.Datagrams != dgrams+h.DecodeErrors {
		errs = append(errs, fmt.Sprintf("datagrams %d != decoded %d + decode errors %d", h.Datagrams, dgrams, h.DecodeErrors))
	}
	if h.Records != recs {
		errs = append(errs, fmt.Sprintf("records %d != sum of per-link records %d", h.Records, recs))
	}
	if len(page.Links) != links {
		errs = append(errs, fmt.Sprintf("%d links, want %d", len(page.Links), links))
	}
	drops := sentDgrams - int64(h.Datagrams)
	if drops < 0 {
		errs = append(errs, fmt.Sprintf("daemon read %d datagrams, only %d sent", h.Datagrams, sentDgrams))
	}
	return drops, errs
}

// apiSample is one open-loop API request's latency (ms from when it was
// due; +Inf when it failed).
type apiSample struct {
	scrape bool
	due    time.Time
	ms     float64
}

// apiLoad issues the workload's queries and scrapes on one connection
// on a fixed schedule from start until end.
func apiLoad(a *apiClient, w *workload, rng *rand.Rand, start, end time.Time) []apiSample {
	var out []apiSample
	qp := time.Duration(float64(time.Second) / w.queryHz)
	sp := time.Duration(float64(time.Second) / w.scrapeHz)
	nextQ, nextS := start, start.Add(sp/2)
	for {
		due, scrape := nextQ, false
		if nextS.Before(nextQ) {
			due, scrape = nextS, true
		}
		if !due.Before(end) {
			return out
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		var path string
		if scrape {
			path = "/metrics"
			nextS = nextS.Add(sp)
		} else {
			path = "/links/" + linkID(rng.Intn(w.links)) + "/elephants"
			nextQ = nextQ.Add(qp)
		}
		_, code, err := a.get(path)
		lat := ms(time.Since(due))
		if err != nil || code != http.StatusOK {
			lat = math.Inf(1)
		}
		out = append(out, apiSample{scrape: scrape, due: due, ms: lat})
	}
}

// probe polls the probe links round-robin, one request per period, from
// start until end.
func probe(a *apiClient, w *workload, probes []int, start, end time.Time) ([][]pollAnswer, int) {
	out := make([][]pollAnswer, len(probes))
	failed := 0
	next := start
	for k := 0; ; k = (k + 1) % len(probes) {
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		if !time.Now().Before(end) {
			return out, failed
		}
		next = next.Add(w.poll)
		body, code, err := a.get("/links/" + linkID(probes[k]) + "/elephants")
		at := time.Now()
		if err != nil || code != http.StatusOK {
			failed++
			continue
		}
		iv, err := parseInterval(body)
		if err != nil {
			failed++
			continue
		}
		out[k] = append(out[k], pollAnswer{at: at, interval: iv})
	}
}

// liveRun holds what the measured daemon run observed.
type liveRun struct {
	setups       []float64
	nominalStart time.Time
	nominalEnd   time.Time
	startPos     int // first stream position sent in the nominal phase
	endPos       int // first position not sent in the nominal phase
	sentRecs     int64
	cpu          time.Duration
	page         serve.LinksPage
	history      []serve.HistoryPage
	answers      [][]pollAnswer
	probeFailed  int
	api          []apiSample
	late         []float64
	capacity     float64
	kernelDrops  int64
	finalDrops   int64
	laws         []string
	rss          float64
	fp           fingerprint
	sched        schedule        // of the set-up and nominal phase
	steal        []time.Duration // per nominal-phase window
}

func runLive(w *workload, seed int64, dur time.Duration, bin, out string, fp fingerprint) (*sheet, result, fingerprint, error) {
	if _, err := os.Stat(bin); err != nil {
		return nil, result{}, fp, fmt.Errorf("elephantd binary: %w", err)
	}
	prepStart := time.Now()
	in, err := genLive(w, seed, filepath.Join(out, fmt.Sprintf("%s-seed%d.table", w.name, seed)))
	if err != nil {
		return nil, result{}, fp, err
	}
	prepare := time.Since(prepStart)
	runtime.GC()

	lr, err := driveDaemon(w, in, seed, dur, bin, out)
	if err != nil {
		return nil, result{}, fp, err
	}
	fp.Readers, fp.Shards, fp.Buffer = lr.fp.Readers, lr.fp.Shards, daemonBuffer

	rep := newSheet()
	res := result{Correct: true}
	nominalSecs := lr.nominalEnd.Sub(lr.nominalStart).Seconds()
	nomRecs := in.stream.recordsBefore(lr.endPos) - in.stream.recordsBefore(lr.startPos)
	rep.note("offered: nominal %.0f records/s for %.1fs (%d records, %d datagrams), overload %.0f records/s for %.1fs",
		w.nominalRPS, nominalSecs, nomRecs, lr.endPos-lr.startPos, w.overloadRPS, dur.Seconds()*(1-nominalShare))
	rep.note("generated inputs in %v: %d routes, %d links x %d flows, %d-interval cycle of %d datagrams",
		prepare.Round(time.Millisecond), w.routes, w.links, w.flows, w.cycle, len(in.stream.wires))

	// Reference: the batch engine over the very records the daemon was
	// sent, and the seal trigger of every interval.
	ref, err := liveReference(w, in, lr)
	if err != nil {
		return nil, result{}, fp, err
	}

	// Correctness: every published interval against the batch run.
	compared, wrong := 0, 0
	for l, hp := range lr.history {
		for _, e := range hp.Entries {
			compared++
			if e.Interval >= len(ref.results[l]) || !sameSet(e.Flows, ref.results[l][e.Interval].Elephants) ||
				e.Elephants != ref.results[l][e.Interval].ElephantCount() {
				wrong++
			}
		}
	}
	wrongFrac := math.NaN()
	if compared > 0 {
		wrongFrac = float64(wrong) / float64(compared)
	}
	if compared == 0 || wrong > 0 {
		res.Correct = false
	}

	// Loss: records sent up to the end of the nominal phase that the
	// daemon did not account as routed or unrouted in-window records.
	var accounted int64
	for _, l := range lr.page.Links {
		accounted += int64(l.Ingest.Routed+l.Ingest.Unrouted) - int64(l.Stream.Late+l.Stream.FarFuture)
	}
	lost := lr.sentRecs - accounted
	loss := float64(lost) / float64(lr.sentRecs)
	if lost != 0 {
		rep.note("nominal phase: %d of %d records sent were not accounted in window", lost, lr.sentRecs)
		res.Correct = false
	}
	if lr.kernelDrops != 0 {
		rep.note("nominal phase: %d datagrams dropped before the daemon read them", lr.kernelDrops)
	}
	for _, msg := range lr.laws {
		rep.note("LAW BROKEN: %s", msg)
		res.Correct = false
	}

	// Arrival→publish on the probe links.
	var publish []timed
	pollEnd := lr.nominalEnd.Add(-200 * time.Millisecond)
	for k, l := range probeLinks(w) {
		ans := lr.answers[k]
		for t, p := range ref.triggers[l] {
			if p < lr.startPos || p >= lr.endPos {
				continue
			}
			due := lr.sched.due(p)
			if due.After(pollEnd) {
				continue
			}
			i := sort.Search(len(ans), func(i int) bool { return ans[i].interval >= t })
			if i == len(ans) {
				publish = append(publish, timed{due, math.Inf(1)})
				continue
			}
			publish = append(publish, timed{due, ms(ans[i].at.Sub(due))})
		}
	}
	var queries, scrapes []timed
	apiFailed := 0
	for _, s := range lr.api {
		if math.IsInf(s.ms, 1) {
			apiFailed++
		}
		if s.scrape {
			scrapes = append(scrapes, timed{s.due, s.ms})
		} else {
			queries = append(queries, timed{s.due, s.ms})
		}
	}
	dumpSamples(filepath.Join(out, fmt.Sprintf("samples-%s-seed%d.json", w.name, seed)), lr, publish, queries, scrapes)
	win := func(xs []timed, q float64) float64 {
		return windowedQuantile(xs, q, lr.nominalStart, lr.nominalEnd, lr.steal)
	}
	rep.note("arrival→publish: %d intervals on %d probe link(s), each polled every %v; %d probe requests failed",
		len(publish), w.probes, time.Duration(w.probes)*w.poll, lr.probeFailed)
	rep.note("API: %d elephants queries at %.0f/s and %d /metrics scrapes at %.0f/s on one connection, open loop, %d failed",
		len(queries), w.queryHz, len(scrapes), w.scrapeHz, apiFailed)
	var stolen time.Duration
	for _, st := range lr.steal {
		stolen += st
	}
	rep.note("CPU steal during the nominal phase: %.1f%% of the machine's CPU time; latencies pool the %d of %d windows with least steal",
		100*stolen.Seconds()/(nominalSecs*float64(runtime.NumCPU())), (latencyWindows+3)/4, latencyWindows)
	rep.note("conservation laws: %d broken; final kernel-drop remainder after overload %d datagrams", len(lr.laws), lr.finalDrops)

	rep.set("setup_s", "s", median(lr.setups))
	rep.set("capacity_rps", "records/s", lr.capacity)
	rep.set("publish_p50_ms", "ms", win(publish, 0.5))
	rep.set("publish_p99_ms", "ms", win(publish, 0.99))
	rep.set("loss_frac", "ratio", loss)
	rep.set("cpu_ms_per_krec", "ms", ms(lr.cpu)/(float64(nomRecs)/1000))
	rep.set("rss_mb", "MiB", lr.rss)
	rep.set("query_p50_ms", "ms", win(queries, 0.5))
	rep.set("query_p99_ms", "ms", win(queries, 0.99))
	rep.set("scrape_p50_ms", "ms", win(scrapes, 0.5))
	rep.set("scrape_p90_ms", "ms", win(scrapes, 0.9))
	rep.set("wall_s", "s", ref.wall)
	rep.set("alloc_mb", "MiB", ref.allocMB)
	rep.set("wrong_frac", "ratio", wrongFrac)
	rep.set("gen.prepare_s", "s", prepare.Seconds())
	rep.set("gen.late_ms_p99", "ms", quantile(lr.late, 0.99))
	rep.note("wrong_frac: %d of %d published intervals differ from the batch reference", wrong, compared)
	rep.note("batch reference over the records sent: %d runs of engine.Run on one worker, wall %v s", referenceRepeats, roundAll(ref.walls, 4))

	res.Attempted = lr.sentRecs + int64(len(lr.api)) + int64(compared)
	res.Failed = max(lost, 0) + int64(apiFailed) + int64(wrong)
	m, err := pick(rep, endToEnd)
	if err != nil {
		return nil, result{}, fp, err
	}
	res.Metrics = m
	return rep, res, fp, nil
}

// dumpSamples writes the nominal phase's raw latency samples (due time
// as seconds into the phase) and each window's steal, for analysis
// beyond the printed percentiles.
func dumpSamples(path string, lr *liveRun, publish, queries, scrapes []timed) {
	rel := func(xs []timed) [][2]float64 {
		out := make([][2]float64, len(xs))
		for i, x := range xs {
			ms := x.ms
			if math.IsInf(ms, 1) {
				ms = -1
			}
			out[i] = [2]float64{x.due.Sub(lr.nominalStart).Seconds(), ms}
		}
		return out
	}
	steal := make([]float64, len(lr.steal))
	for i, st := range lr.steal {
		steal[i] = st.Seconds()
	}
	b, err := json.Marshal(map[string]any{
		"phase_s": lr.nominalEnd.Sub(lr.nominalStart).Seconds(),
		"steal_s": steal,
		"publish": rel(publish),
		"query":   rel(queries),
		"scrape":  rel(scrapes),
		"late_ms": lr.late,
	})
	if err == nil {
		_ = os.WriteFile(path, b, 0o644)
	}
}

// roundAll rounds xs to the given significant digits for printing.
func roundAll(xs []float64, digits int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatFloat(x, 'g', digits, 64)
	}
	return out
}

// timed is one latency sample and when its request was due.
type timed struct {
	due time.Time
	ms  float64
}

// windowedQuantile cuts [start, end) into len(steal) equal windows by
// due time, pools the samples of the quarter of the windows with the
// least steal and returns their q-quantile.
func windowedQuantile(xs []timed, q float64, start, end time.Time, steal []time.Duration) float64 {
	n := len(steal)
	keep := make([]bool, n)
	for _, k := range leastStolenWindows(steal) {
		keep[k] = true
	}
	span := end.Sub(start)
	var pooled []float64
	for _, x := range xs {
		k := int(float64(n) * float64(x.due.Sub(start)) / float64(span))
		if k >= 0 && k < n && keep[k] {
			pooled = append(pooled, x.ms)
		}
	}
	return quantile(pooled, q)
}

// leastStolenWindows returns the indexes of the quarter of the windows
// with the least steal.
func leastStolenWindows(steal []time.Duration) []int {
	idx := make([]int, len(steal))
	for k := range idx {
		idx[k] = k
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	return idx[:(len(idx)+3)/4]
}

// leastStolen returns the median of xs over the quarter of the windows
// with the least steal.
func leastStolen(xs []float64, steal []time.Duration) float64 {
	var keep []float64
	for _, k := range leastStolenWindows(steal) {
		keep = append(keep, xs[k])
	}
	return median(keep)
}

// stealTime returns the machine's cumulative CPU steal from /proc/stat.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(v) * clockTick
}

// stealWindows samples the steal counter at n+1 equal steps from start
// to end and returns each window's steal.
func stealWindows(start, end time.Time, n int) []time.Duration {
	out := make([]time.Duration, n)
	step := end.Sub(start) / time.Duration(n)
	prev := stealTime()
	for k := 0; k < n; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k+1) * step)))
		cur := stealTime()
		out[k] = cur - prev
		prev = cur
	}
	return out
}

// sameSet reports whether the published prefixes equal the set's.
func sameSet(flows []string, set core.ElephantSet) bool {
	want := set.Flows()
	if len(flows) != len(want) {
		return false
	}
	for i, p := range want {
		if flows[i] != p.String() {
			return false
		}
	}
	return true
}

// driveDaemon runs the daemon through its set-ups, the nominal phase and
// the overload phase.
func driveDaemon(w *workload, in *liveInput, seed int64, dur time.Duration, bin, out string) (*liveRun, error) {
	lr := &liveRun{}
	nominal := time.Duration(float64(dur) * nominalShare)
	overload := dur - nominal
	logPath := filepath.Join(out, fmt.Sprintf("%s-seed%d-elephantd.log", w.name, seed))

	var d *daemonProc
	var snd *sender
	for rep := 0; rep < setupRepeats; rep++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			snd.conn.Close()
		}
		exec0 := time.Now()
		var err error
		d, err = startDaemon(bin, in.tablePath, logPath)
		if err != nil {
			return nil, err
		}
		snd, err = newSender(d.udpAddr, in.stream)
		if err != nil {
			d.stop()
			return nil, err
		}
		last := rep == setupRepeats-1
		var deadline atomic.Int64
		deadline.Store(math.MaxInt64)
		errc := make(chan error, 1)
		go func() { errc <- snd.run(time.Now(), w.nominalRPS, &deadline, last) }()
		published, err := waitPublished(d.api, w.links, 60*time.Second)
		if err != nil {
			deadline.Store(0)
			<-errc
			d.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		lr.setups = append(lr.setups, published.Sub(exec0).Seconds())
		if !last {
			deadline.Store(0)
			if err := <-errc; err != nil {
				d.stop()
				return nil, err
			}
			continue
		}

		// Nominal phase: the schedule carries on from the set-up.
		lr.nominalStart = time.Now()
		lr.nominalEnd = lr.nominalStart.Add(nominal)
		deadline.Store(lr.nominalEnd.UnixNano())
		lr.startPos = int(snd.pos.Load())
		cpu0, err := procCPU(d.cmd.Process.Pid)
		lr.cpu = -cpu0
		if err != nil {
			deadline.Store(0)
			<-errc
			d.stop()
			return nil, err
		}
		apiConn := newAPIClient(d.api.base)
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			lr.steal = stealWindows(lr.nominalStart, lr.nominalEnd, latencyWindows)
		}()
		go func() {
			defer wg.Done()
			lr.api = apiLoad(apiConn, w, rand.New(rand.NewSource(seed)), lr.nominalStart, lr.nominalEnd)
		}()
		go func() {
			defer wg.Done()
			lr.answers, lr.probeFailed = probe(d.api, w, probeLinks(w), lr.nominalStart, lr.nominalEnd)
		}()
		err = <-errc
		wg.Wait()
		apiConn.close()
		if err != nil {
			d.stop()
			return nil, err
		}
		lr.endPos = snd.next
		lr.late = snd.late
		lr.sched = snd.sched
		lr.sentRecs = in.stream.recordsBefore(lr.endPos)
	}
	defer snd.conn.Close()
	fail := func(err error) (*liveRun, error) {
		d.stop()
		return nil, err
	}

	// Quiesce, then snapshot counters, sets and the laws.
	h, err := waitDrained(d.api, int64(lr.endPos))
	if err != nil {
		return fail(err)
	}
	cpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return fail(err)
	}
	lr.cpu += cpu1
	if err := d.api.getJSON("/links", &lr.page); err != nil {
		return fail(err)
	}
	if lr.rss, err = peakRSS(strconv.Itoa(d.cmd.Process.Pid)); err != nil {
		return fail(err)
	}
	drops, laws := lawCheck(h, lr.page, int64(lr.endPos), w.links)
	lr.kernelDrops, lr.laws = drops, laws
	lr.fp.Readers = h.Readers
	if len(lr.page.Pipelines) > 0 {
		lr.fp.Shards = lr.page.Pipelines[0].Shards
	}
	lr.history = make([]serve.HistoryPage, w.links)
	for l := range lr.history {
		if err := d.api.getJSON("/links/"+linkID(l)+"/history?flows=1", &lr.history[l]); err != nil {
			return fail(err)
		}
	}

	// Overload phase: offer well past the drain rate; the daemon's
	// record counter over the phase (after its backlog has built up) is
	// its capacity.
	var deadline atomic.Int64
	t0 := time.Now()
	deadline.Store(t0.Add(overload).UnixNano())
	errc := make(chan error, 1)
	go func() { errc <- snd.run(t0, w.overloadRPS, &deadline, false) }()
	skip := time.Duration(float64(overload) * capacitySkip)
	step := (overload - skip) / capacityWindows
	var rates []float64
	var steal []time.Duration
	var prev serve.Health
	var prevAt time.Time
	var prevSteal time.Duration
	var herr error
	for k := 0; k <= capacityWindows && herr == nil; k++ {
		time.Sleep(time.Until(t0.Add(skip + time.Duration(k)*step)))
		var h serve.Health
		herr = d.api.getJSON("/healthz", &h)
		at, st := time.Now(), stealTime()
		if k > 0 {
			// Records per second of machine time the hypervisor left us.
			avail := at.Sub(prevAt) - (st-prevSteal)/time.Duration(runtime.NumCPU())
			rates = append(rates, float64(h.Records-prev.Records)/avail.Seconds())
			steal = append(steal, st-prevSteal)
		}
		prev, prevAt, prevSteal = h, at, st
	}
	if err := errors.Join(<-errc, herr); err != nil {
		return fail(err)
	}
	lr.capacity = leastStolen(rates, steal)

	// Final quiescent snapshot: the laws must still hold, with whatever
	// the kernel dropped under overload as the remainder.
	hf, err := waitDrained(d.api, int64(snd.next))
	if err != nil {
		return fail(err)
	}
	var pf serve.LinksPage
	if err := d.api.getJSON("/links", &pf); err != nil {
		return fail(err)
	}
	drops, laws = lawCheck(hf, pf, int64(snd.next), w.links)
	lr.finalDrops = drops
	lr.laws = append(lr.laws, laws...)
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping elephantd: %w", err)
	}
	return lr, nil
}

// liveReference is the batch side of a live run.
type liveReferenceResult struct {
	results  [][]core.Result // per link, per interval
	triggers [][]int         // per link, per interval: stream position that made it sealable
	wall     float64         // s, fastest of referenceRepeats runs
	walls    []float64
	allocMB  float64
}

// referenceRepeats is how many times the batch reference is run, on
// one worker so that the timing does not depend on how the two CPUs
// are scheduled; wall_s is the fastest run (the one least disturbed
// from outside) and alloc_mb the median.
const referenceRepeats = 3

// liveReference classifies the records sent up to the end of the
// nominal phase with the batch engine, one link per series anchored at
// the link's first record (as the daemon anchors it), and finds each
// interval's seal trigger.
func liveReference(w *workload, in *liveInput, lr *liveRun) (*liveReferenceResult, error) {
	sp, err := scheme.ParseValidated(daemonScheme)
	if err != nil {
		return nil, err
	}
	window := engine.StreamWindow(sp, 0)
	perLink, _, err := attributeStream(in.stream, lr.endPos, w.links, in.table)
	if err != nil {
		return nil, err
	}
	out := &liveReferenceResult{triggers: make([][]int, w.links)}
	links := make([]engine.Link, w.links)
	for l, recs := range perLink {
		if len(recs.recs) == 0 {
			return nil, fmt.Errorf("link %d received no records", l)
		}
		if out.triggers[l], err = sealTriggers(recs, window); err != nil {
			return nil, err
		}
		start := recs.recs[0].Time
		last := start
		for _, r := range recs.recs {
			if e := r.End(); e.After(last) {
				last = e
			}
		}
		s := agg.NewSeries(start, interval, int(last.Sub(start)/interval)+1)
		for _, r := range recs.recs {
			s.AddRecord(r)
		}
		links[l] = engine.Link{ID: linkID(l), Series: s, Config: sp.Factory()}
	}
	var lrs []engine.LinkResult
	var walls, allocs []float64
	for i := 0; i < referenceRepeats; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		r, err := (&engine.MultiLinkEngine{Workers: 1}).Run(links)
		walls = append(walls, time.Since(t0).Seconds())
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		if lrs == nil {
			lrs = r
		}
	}
	out.wall, out.allocMB, out.walls = quantile(walls, 0), median(allocs), walls
	byID := make(map[string][]core.Result, len(lrs))
	for _, r := range lrs {
		if r.Err != nil {
			return nil, fmt.Errorf("reference link %s: %w", r.ID, r.Err)
		}
		byID[r.ID] = r.Results
	}
	out.results = make([][]core.Result, w.links)
	for l := range out.results {
		out.results[l] = byID[linkID(l)]
	}
	return out, nil
}
