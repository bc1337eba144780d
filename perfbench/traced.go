package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/netflow"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/scheme"
	"repro/internal/serve"
)

// The traced run's phases, as shares of the measured time: an open-loop
// replay at the workload's nominal rate, then a replay as fast as the
// composition takes records. The rest of the time goes to the
// standalone accumulator replays and the figure calls.
const (
	tracedNominalShare  = 0.5
	tracedCapacityShare = 0.2
)

// spanSample keeps the spans of every spanSample-th datagram; intervals
// and calls are all kept.
const spanSample = 64

// decodeAllocSample is how many datagrams the allocation count of
// DecodeInto is averaged over.
const decodeAllocSample = 10000

// span is one timed call at a layer boundary. Spans of one datagram,
// one interval or one standalone call share a trace ID.
type span struct {
	Trace  string `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

var spanIDs atomic.Int64

// spanLog is one goroutine's span buffer; the buffers are merged when
// the run ends.
type spanLog struct{ spans []span }

func (l *spanLog) add(trace string, parent int64, name string, start, end time.Time) int64 {
	id := spanIDs.Add(1)
	l.spans = append(l.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// timedObserver is the link's obs.LinkMetrics as the pipeline's stage
// observer, with each ObserveStep call timed.
type timedObserver struct {
	om    *obs.LinkMetrics
	nanos int64
	calls int64
}

func (t *timedObserver) ObserveStep(o core.StepObservation) {
	t0 := time.Now()
	t.om.ObserveStep(o)
	t.nanos += time.Since(t0).Nanoseconds()
	t.calls++
}

// tracedLink is one link of the in-process composition: the daemon's
// per-link objects, wired the way elephantd wires them, plus what the
// link's classify goroutine measured.
type tracedLink struct {
	id    string
	state *serve.LinkState
	lp    *engine.LivePipeline
	om    *obs.LinkMetrics
	fr    *obs.FlightRecorder
	tobs  *timedObserver

	// Written by the producer before the SendBatch carrying interval
	// t's trigger; read by the classify goroutine in OnResult (the
	// record's trip through the pipeline orders the two).
	sendAt []int64 // unix ns of the trigger's SendBatch call, per interval
	dueAt  []int64 // unix ns the trigger datagram was due, 0 outside the open-loop phase

	// Classify-goroutine state, read after Close.
	steps        []core.StepObservation
	sealToResult []float64 // µs, intervals with a trigger
	overheadNs   int64     // seal_to_result minus StepNanos, summed
	overheadFlow int64
	publish      []float64 // ms from the trigger's due time, open-loop phase
	recordNs     int64
	flightNs     int64
	overlapNs    int64
	busyNs       int64 // classify-stage busy time: Step plus OnResult
	spans        spanLog
}

// tracedInput is what the traced run replays: the datagram stream, its
// table, the LinkSet the figure calls run on and the workload's rates.
type tracedInput struct {
	st      *stream
	table   *bgp.Table
	links   int
	ls      *experiments.LinkSet
	rps     float64
	scrapeH float64
}

func runTraced(w *workload, seed int64, dur time.Duration, out string) (*sheet, result, error) {
	name := "figures"
	if w != nil {
		name = w.name
	}
	prep0 := time.Now()
	in, err := tracedInputs(w, seed, out)
	if err != nil {
		return nil, result{}, err
	}
	prepare := time.Since(prep0)

	sp, err := scheme.ParseValidated(daemonScheme)
	if err != nil {
		return nil, result{}, err
	}
	window := engine.StreamWindow(sp, 0)
	shards := serve.DefaultShards()
	durA := time.Duration(float64(dur) * tracedNominalShare)
	durB := time.Duration(float64(dur) * tracedCapacityShare)

	// The open-loop phase's records, attributed once up front: they give
	// each interval's seal trigger and feed the standalone accumulator
	// replays.
	nA := 0
	for float64(in.st.recordsBefore(nA)) < in.rps*durA.Seconds() {
		nA++
	}
	perLink, _, err := attributeStream(in.st, nA, in.links, in.table)
	if err != nil {
		return nil, result{}, err
	}
	type linkInterval struct{ link, t int }
	triggerAt := map[int][]linkInterval{}
	triggers := make([][]int, in.links)
	for l := range perLink {
		if triggers[l], err = sealTriggers(perLink[l], window); err != nil {
			return nil, result{}, err
		}
		for t, p := range triggers[l] {
			if p >= 0 {
				triggerAt[p] = append(triggerAt[p], linkInterval{l, t})
			}
		}
	}
	rep := newSheet()
	var prodSpans, callSpans spanLog

	// netflow: allocations per decode, measured alone.
	var dg netflow.Datagram
	var buf []byte
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < decodeAllocSample; i++ {
		buf = in.st.datagram(i, buf)
		if err := netflow.DecodeInto(buf, &dg); err != nil {
			return nil, result{}, err
		}
	}
	runtime.ReadMemStats(&m1)
	rep.set("netflow.decode_allocs_per_dgram", "count", float64(m1.Mallocs-m0.Mallocs)/decodeAllocSample)

	// obs: per-link registration, measured alone.
	reg := obs.NewRegistry()
	store := serve.NewStore()
	links := make([]*tracedLink, in.links)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	reg0 := time.Now()
	for l := range links {
		id := linkID(l)
		links[l] = &tracedLink{id: id, om: obs.NewLinkMetrics(reg, id, shards, obs.DefaultStageBounds())}
	}
	regTime := time.Since(reg0)
	runtime.ReadMemStats(&m1)
	callSpans.add("setup", 0, "obs.NewLinkMetrics x"+fmt.Sprint(in.links), reg0, reg0.Add(regTime))
	rep.set("obs.register_us_per_link", "us", float64(regTime.Microseconds())/float64(in.links))
	rep.set("obs.register_allocs_per_link", "count", float64(m1.Mallocs-m0.Mallocs)/float64(in.links))

	// The per-link pipelines, wired as elephantd wires them.
	var phaseA atomic.Bool
	for l, tl := range links {
		tl := tl
		n := len(triggers[l])
		tl.state = store.GetOrCreate(tl.id, serve.DefaultHistory)
		tl.fr = obs.NewFlightRecorder(obs.DefaultFlightRecorder)
		tl.tobs = &timedObserver{om: tl.om}
		tl.sendAt = make([]int64, n)
		tl.dueAt = make([]int64, n)
		factory := sp.Factory()
		tl.lp, err = engine.NewLivePipeline(engine.LiveLink{
			ID:       tl.id,
			Interval: interval,
			Window:   window,
			Shards:   shards,
			Config: func() (core.Config, error) {
				cc, err := factory()
				cc.Observer = tl.tobs
				return cc, err
			},
			OnResult: func(t int, at time.Time, res core.Result, stats agg.StreamStats) error {
				now := time.Now()
				o := tl.om.Last()
				tl.state.RecordResult(t, at, res, stats)
				t1 := time.Now()
				tl.fr.Record(obs.IntervalTrace{
					Interval:          t,
					SealedUnixNanos:   t1.UnixNano(),
					DetectNanos:       o.DetectNanos,
					ClassifyNanos:     o.ClassifyNanos,
					FinalizeNanos:     o.FinalizeNanos,
					StepNanos:         o.StepNanos,
					RawThreshold:      o.RawThreshold,
					Threshold:         o.Threshold,
					TotalLoad:         o.TotalLoad,
					ElephantLoad:      o.ElephantLoad,
					ActiveFlows:       o.ActiveFlows,
					Elephants:         o.Elephants,
					Promoted:          o.Promoted,
					Demoted:           o.Demoted,
					WatermarkLagNanos: int64(tl.lp.LastSealLag()),
					StageOverlapNanos: int64(tl.lp.LastOverlap()),
				})
				tl.om.StageOverlap.Observe(tl.lp.LastOverlap().Seconds())
				t2 := time.Now()
				tl.recordNs += t1.Sub(now).Nanoseconds()
				tl.flightNs += t2.Sub(t1).Nanoseconds()
				tl.overlapNs += int64(tl.lp.LastOverlap())
				tl.steps = append(tl.steps, o)

				trace := fmt.Sprintf("i%d.%d", l, t)
				stepStart := now.Add(-time.Duration(o.StepNanos))
				var root int64
				if t < len(tl.sendAt) && tl.sendAt[t] != 0 {
					sent := time.Unix(0, tl.sendAt[t])
					s2r := now.Sub(sent)
					tl.sealToResult = append(tl.sealToResult, float64(s2r)/1e3)
					tl.overheadNs += s2r.Nanoseconds() - o.StepNanos
					tl.overheadFlow += int64(o.ActiveFlows)
					if due := tl.dueAt[t]; due != 0 {
						tl.publish = append(tl.publish, ms(t1.Sub(time.Unix(0, due))))
					}
					root = tl.spans.add(trace, 0, "engine.seal_to_result", sent, now)
				}
				step := tl.spans.add(trace, root, "core.Pipeline.Step", stepStart, now)
				d := stepStart.Add(time.Duration(o.DetectNanos))
				c := d.Add(time.Duration(o.ClassifyNanos))
				tl.spans.add(trace, step, "core.detect", stepStart, d)
				tl.spans.add(trace, step, "core.classify", d, c)
				tl.spans.add(trace, step, "core.finalize", c, c.Add(time.Duration(o.FinalizeNanos)))
				tl.spans.add(trace, root, "serve.LinkState.RecordResult", now, t1)
				tl.spans.add(trace, root, "obs.FlightRecorder.Record", t1, t2)
				tl.busyNs += o.StepNanos + time.Since(now).Nanoseconds()
				return nil
			},
		})
		if err != nil {
			return nil, result{}, err
		}
	}
	closeAll := func() error {
		var first error
		for _, tl := range links {
			if err := tl.lp.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}

	// Scrapes at the workload's rate while records flow.
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	var renders, summaries, renderBytes []float64
	var scrapeSpans spanLog
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		tick := time.NewTicker(time.Duration(float64(time.Second) / in.scrapeH))
		defer tick.Stop()
		var page bytes.Buffer
		for k := 0; ; k++ {
			select {
			case <-stopScrape:
				return
			case <-tick.C:
			}
			page.Reset()
			t0 := time.Now()
			reg.Render(report.NewMetricsWriter(&page))
			t1 := time.Now()
			_ = store.Summaries()
			t2 := time.Now()
			renders = append(renders, float64(t1.Sub(t0).Nanoseconds()))
			renderBytes = append(renderBytes, float64(page.Len()))
			summaries = append(summaries, float64(t2.Sub(t1).Nanoseconds()))
			trace := fmt.Sprintf("s%d", k)
			scrapeSpans.add(trace, 0, "obs.Registry.Render", t0, t1)
			scrapeSpans.add(trace, 0, "serve.Store.Summaries", t1, t2)
		}
	}()

	// The ingest replay: decode, attribute, send, on one goroutine as one
	// elephantd reader does it.
	var (
		dgrams, recsIn, routed, unrouted, decodeErrs, dropped int64
		decodeNs, attrNs, sendNs                              int64
		late                                                  []float64
		recs                                                  []agg.Record
	)
	replay := func(p int, now time.Time) error {
		buf = in.st.datagram(p, buf)
		t1 := time.Now()
		err := netflow.DecodeInto(buf, &dg)
		t2 := time.Now()
		dgrams++
		decodeNs += t2.Sub(t1).Nanoseconds()
		if err != nil {
			decodeErrs++
			return nil
		}
		tl := links[int(dg.Header.EngineID)%len(links)]
		recs = recs[:0]
		un := 0
		for i := range dg.Records {
			rec, ok := netflow.Attribute(in.table, dg.Header, dg.Records[i])
			if !ok {
				un++
				continue
			}
			recs = append(recs, rec)
		}
		t3 := time.Now()
		for _, li := range triggerAt[p] {
			lt := links[li.link]
			lt.sendAt[li.t] = t3.UnixNano()
			if phaseA.Load() {
				lt.dueAt[li.t] = now.UnixNano()
			}
		}
		sent, err := tl.lp.SendBatch(recs)
		t4 := time.Now()
		tl.state.ObserveDatagram(len(dg.Records), sent, un, len(recs)-sent)
		attrNs += t3.Sub(t2).Nanoseconds()
		sendNs += t4.Sub(t3).Nanoseconds()
		recsIn += int64(len(dg.Records))
		routed += int64(sent)
		unrouted += int64(un)
		dropped += int64(len(recs) - sent)
		if p%spanSample == 0 {
			trace := fmt.Sprintf("d%d", p)
			root := prodSpans.add(trace, 0, "datagram", t1, t4)
			prodSpans.add(trace, root, "netflow.DecodeInto", t1, t2)
			prodSpans.add(trace, root, "netflow.Attribute", t2, t3)
			prodSpans.add(trace, root, "engine.LivePipeline.SendBatch", t3, t4)
		}
		if err != nil {
			return err
		}
		return nil
	}

	// Phase A: open loop at the nominal rate.
	phaseA.Store(true)
	sched := schedule{st: in.st, t0: time.Now(), rps: in.rps}
	endA := sched.t0.Add(durA)
	p := 0
	for ; p < nA; p++ {
		due := sched.due(p)
		now := time.Now()
		if wait := due.Sub(now); wait > 0 {
			time.Sleep(wait)
			now = time.Now()
		}
		if !now.Before(endA) {
			break
		}
		late = append(late, ms(now.Sub(due)))
		if err := replay(p, due); err != nil {
			closeAll()
			return nil, result{}, err
		}
	}
	phaseA.Store(false)

	// Phase B: as fast as the composition takes records.
	startB := time.Now()
	recsB0 := recsIn
	for endB := startB.Add(durB); time.Now().Before(endB); p++ {
		if err := replay(p, time.Time{}); err != nil {
			closeAll()
			return nil, result{}, err
		}
	}
	capacity := float64(recsIn-recsB0) / time.Since(startB).Seconds()
	close(stopScrape)
	scrapeWG.Wait()
	if err := closeAll(); err != nil {
		return nil, result{}, err
	}

	// Standalone accumulate: the open-loop phase's records at the
	// daemon's shard count and serially.
	addNs, err := replayAdd(perLink, shards, &callSpans)
	if err != nil {
		return nil, result{}, err
	}
	addSerialNs, err := replayAdd(perLink, 1, &callSpans)
	if err != nil {
		return nil, result{}, err
	}

	// Batch layers: seal and emission of a series built from the first
	// link's records, then the figure calls.
	sealMs, snapNs, err := seriesCosts(perLink[0], &callSpans)
	if err != nil {
		return nil, result{}, err
	}
	fig1, fig1c, base, err := figureCalls(in.ls, &callSpans)
	if err != nil {
		return nil, result{}, err
	}

	// Fold the per-link measurements.
	var (
		steps                                      []core.StepObservation
		s2r, publish                               []float64
		overNs, overFlows, recNs, flNs, ovl, obsNs int64
		busy                                       int64
		obsCalls, stalls                           int64
		stats                                      agg.StreamStats
		imbalance                                  []float64
		laws                                       []string
	)
	allSpans := append(prodSpans.spans, callSpans.spans...)
	allSpans = append(allSpans, scrapeSpans.spans...)
	for _, tl := range links {
		steps = append(steps, tl.steps...)
		s2r = append(s2r, tl.sealToResult...)
		publish = append(publish, tl.publish...)
		overNs += tl.overheadNs
		overFlows += tl.overheadFlow
		recNs += tl.recordNs
		flNs += tl.flightNs
		ovl += tl.overlapNs
		busy += tl.busyNs
		obsNs += tl.tobs.nanos
		obsCalls += tl.tobs.calls
		stalls += int64(tl.lp.Stalls())
		st := tl.lp.Stats()
		stats.Records += st.Records
		stats.Late += st.Late
		stats.FarFuture += st.FarFuture
		if sr := tl.lp.ShardRecords(nil); len(sr) > 1 {
			var sum, max uint64
			for _, v := range sr {
				sum += v
				if v > max {
					max = v
				}
			}
			if sum > 0 {
				imbalance = append(imbalance, float64(max)/(float64(sum)/float64(len(sr))))
			}
		}
		sum := tl.state.Summary()
		if in := sum.Ingest; in.Records != in.Routed+in.Unrouted+in.Dropped {
			laws = append(laws, fmt.Sprintf("link %s: records %d != routed %d + unrouted %d + dropped %d", tl.id, in.Records, in.Routed, in.Unrouted, in.Dropped))
		}
		if sum.Error != "" {
			laws = append(laws, fmt.Sprintf("link %s failed: %s", tl.id, sum.Error))
		}
		allSpans = append(allSpans, tl.spans.spans...)
	}
	if dgrams != decodeErrs+int64(countDecoded(links)) {
		laws = append(laws, fmt.Sprintf("datagrams %d != decoded + decode errors %d", dgrams, decodeErrs))
	}
	if routed != int64(stats.Records) {
		laws = append(laws, fmt.Sprintf("routed records %d != accumulator records %d", routed, stats.Records))
	}
	var det, cls, fin, stp, flows, churn float64
	for _, o := range steps {
		det += float64(o.DetectNanos)
		cls += float64(o.ClassifyNanos)
		fin += float64(o.FinalizeNanos)
		stp += float64(o.StepNanos)
		flows += float64(o.ActiveFlows)
		churn += float64(o.Promoted + o.Demoted)
	}

	spanPath := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := writeSpans(spanPath, allSpans); err != nil {
		return nil, result{}, err
	}

	rep.note("composition: %d link(s) x LivePipeline (shards %d, window %d) <- DecodeInto/Attribute/SendBatch on one goroutine; OnResult -> LinkState.RecordResult + FlightRecorder.Record; LinkMetrics as Config.Observer",
		in.links, shards, window)
	rep.note("open loop %.0f records/s for %v, then as fast as taken for %v; %d datagrams, %d intervals classified, %d scrapes",
		in.rps, durA, durB, dgrams, len(steps), len(renders))
	rep.note("spans: %d written to %s (every %dth datagram, every interval and call)", len(allSpans), spanPath, spanSample)
	for _, msg := range laws {
		rep.note("LAW BROKEN: %s", msg)
	}
	krec := float64(routed) / 1000
	nan := math.NaN()
	div := func(a, b float64) float64 {
		if b == 0 {
			return nan
		}
		return a / b
	}
	rep.set("netflow.decode_ns_per_dgram", "ns", div(float64(decodeNs), float64(dgrams)))
	rep.set("netflow.attribute_ns_per_rec", "ns", div(float64(attrNs), float64(recsIn)))
	rep.set("netflow.routed_frac", "ratio", div(float64(routed), float64(routed+unrouted)))
	rep.set("netflow.decode_errors", "count", float64(decodeErrs))
	rep.set("engine.send_ns_per_rec", "ns", div(float64(sendNs), float64(routed)))
	rep.set("engine.stalls_per_krec", "count", div(float64(stalls), krec))
	rep.set("agg.add_ns_per_rec", "ns", addNs)
	rep.set("agg.add_serial_ns_per_rec", "ns", addSerialNs)
	rep.set("agg.shard_imbalance", "ratio", median(imbalance))
	rep.set("agg.late_frac", "ratio", div(float64(stats.Late+stats.FarFuture), float64(stats.Records)))
	rep.set("engine.seal_to_result_p50_us", "us", quantile(s2r, 0.5))
	rep.set("engine.seal_to_result_p99_us", "us", quantile(s2r, 0.99))
	rep.set("engine.seal_overhead_ns_per_flow", "ns", div(float64(overNs), float64(overFlows)))
	rep.set("engine.overlap_frac", "ratio", div(float64(ovl), float64(busy)))
	rep.set("core.detect_ns_per_flow", "ns", div(det, flows))
	rep.set("core.classify_ns_per_flow", "ns", div(cls, flows))
	rep.set("core.finalize_ns_per_flow", "ns", div(fin, flows))
	rep.set("core.idfill_ns_per_flow", "ns", div(stp-det-cls-fin, flows))
	rep.set("core.flows_per_interval", "count", div(flows, float64(len(steps))))
	rep.set("core.churn_per_interval", "count", div(churn, float64(len(steps))))
	rep.set("obs.render_ns_per_link", "ns", median(renders)/float64(in.links))
	rep.set("obs.render_bytes_per_link", "bytes", median(renderBytes)/float64(in.links))
	rep.set("serve.summaries_us_per_link", "us", median(summaries)/1e3/float64(in.links))
	rep.set("obs.observe_step_ns", "ns", div(float64(obsNs), float64(obsCalls)))
	rep.set("obs.flight_record_ns", "ns", div(float64(flNs), float64(len(steps))))
	rep.set("serve.record_result_ns", "ns", div(float64(recNs), float64(len(steps))))
	rep.set("agg.series_seal_ms", "ms", sealMs)
	rep.set("agg.snapshot_ns_per_flow", "ns", snapNs)
	rep.set("experiments.fig1_ms", "ms", ms(fig1))
	rep.set("experiments.fig1c_ms", "ms", ms(fig1c))
	rep.set("experiments.baseline_ms", "ms", ms(base))
	rep.set("gen.prepare_s", "s", prepare.Seconds())
	rep.set("gen.late_ms_p99", "ms", quantile(late, 0.99))
	rep.set("traced.publish_p50_ms", "ms", quantile(publish, 0.5))
	rep.set("traced.capacity_rps", "records/s", capacity)
	rep.note("agg.Add at %d shards %.1f ns/record vs serial %.1f ns/record: %.2fx", shards, addNs, addSerialNs, addSerialNs/addNs)

	res := result{
		Correct:   len(laws) == 0 && decodeErrs == 0 && dropped == 0,
		Attempted: dgrams,
		Failed:    decodeErrs + dropped,
	}
	m, err := pick(rep, perLayer)
	if err != nil {
		return nil, result{}, err
	}
	res.Metrics = m
	return rep, res, nil
}

// perLayer lists the metrics BENCHMARK.json names for the traced run.
var perLayer = []string{
	"netflow.decode_ns_per_dgram", "netflow.decode_allocs_per_dgram", "netflow.attribute_ns_per_rec",
	"netflow.routed_frac", "netflow.decode_errors",
	"engine.send_ns_per_rec", "engine.stalls_per_krec", "agg.add_ns_per_rec", "agg.add_serial_ns_per_rec",
	"agg.shard_imbalance", "agg.late_frac",
	"engine.seal_to_result_p50_us", "engine.seal_to_result_p99_us", "engine.seal_overhead_ns_per_flow", "engine.overlap_frac",
	"core.detect_ns_per_flow", "core.classify_ns_per_flow", "core.finalize_ns_per_flow", "core.idfill_ns_per_flow",
	"core.flows_per_interval", "core.churn_per_interval",
	"obs.render_ns_per_link", "obs.render_bytes_per_link", "serve.summaries_us_per_link",
	"obs.register_us_per_link", "obs.register_allocs_per_link",
	"obs.observe_step_ns", "obs.flight_record_ns", "serve.record_result_ns",
	"agg.series_seal_ms", "agg.snapshot_ns_per_flow",
	"experiments.fig1_ms", "experiments.fig1c_ms", "experiments.baseline_ms",
	"gen.prepare_s", "gen.late_ms_p99",
	"traced.publish_p50_ms", "traced.capacity_rps",
}

func countDecoded(links []*tracedLink) uint64 {
	var n uint64
	for _, tl := range links {
		n += tl.state.Summary().Ingest.Datagrams
	}
	return n
}

// tracedInputs generates what the traced run replays. The live
// workloads use their own stream and build a LinkSet from their first
// (and second) link's series for the figure calls; figures builds its
// paper-scale LinkSet and replays the west link at hot-link's rates.
func tracedInputs(w *workload, seed int64, out string) (*tracedInput, error) {
	if w == nil {
		ls, err := experiments.BuildLinks(experiments.LinksConfig{Seed: seed})
		if err != nil {
			return nil, err
		}
		st, err := encodeStream([]*agg.Series{ls.West}, seed)
		if err != nil {
			return nil, err
		}
		hot := findWorkload("hot-link")
		return &tracedInput{st: st, table: ls.Table, links: 1, ls: ls, rps: hot.nominalRPS, scrapeH: hot.scrapeHz}, nil
	}
	in, err := genLive(w, seed, filepath.Join(out, fmt.Sprintf("%s-seed%d.table", w.name, seed)))
	if err != nil {
		return nil, err
	}
	ls := &experiments.LinkSet{
		Table: in.table,
		West:  in.series[0],
		East:  in.series[1%len(in.series)],
		Cfg: experiments.LinksConfig{
			Routes: w.routes, Flows: w.flows, Intervals: w.cycle, Interval: interval,
			Seed: seed, MeanLoadBps: w.meanBps,
		},
	}
	return &tracedInput{st: in.stream, table: in.table, links: w.links, ls: ls, rps: w.nominalRPS, scrapeH: w.scrapeHz}, nil
}

// replayAdd feeds each link's records to a fresh StreamAccumulator at
// the given shard count and returns the mean time per record, flush and
// shard shutdown included.
func replayAdd(perLink []linkRecords, shards int, log *spanLog) (float64, error) {
	var n int64
	t0 := time.Now()
	for _, lr := range perLink {
		acc, err := agg.NewStreamAccumulator(agg.StreamConfig{Interval: interval, Window: agg.DefaultStreamWindow, Shards: shards})
		if err != nil {
			return 0, err
		}
		for _, rec := range lr.recs {
			if err := acc.Add(rec); err != nil {
				acc.Close()
				return 0, err
			}
		}
		err = acc.Flush()
		acc.Close()
		if err != nil {
			return 0, err
		}
		n += int64(len(lr.recs))
	}
	t1 := time.Now()
	log.add("agg", 0, fmt.Sprintf("agg.StreamAccumulator.Add shards=%d", shards), t0, t1)
	if n == 0 {
		return math.NaN(), nil
	}
	return float64(t1.Sub(t0).Nanoseconds()) / float64(n), nil
}

// seriesCosts builds a series from one link's records and times its
// seal (Seal plus the first emission, which builds the interval index)
// and the per-flow cost of the remaining emissions.
func seriesCosts(lr linkRecords, log *spanLog) (sealMs, snapNs float64, err error) {
	if len(lr.recs) == 0 {
		return math.NaN(), math.NaN(), nil
	}
	start, last := lr.recs[0].Time, lr.recs[0].Time
	for _, r := range lr.recs {
		if e := r.End(); e.After(last) {
			last = e
		}
	}
	s := agg.NewSeries(start, interval, int(last.Sub(start)/interval)+1)
	for _, r := range lr.recs {
		s.AddRecord(r)
	}
	snap := core.NewFlowSnapshot(0)
	t0 := time.Now()
	s.Seal()
	s.Snapshot(0, snap)
	t1 := time.Now()
	flows := 0
	for t := 1; t < s.Intervals; t++ {
		flows += s.Snapshot(t, snap).Len()
	}
	t2 := time.Now()
	log.add("series", 0, "agg.Series.Seal", t0, t1)
	log.add("series", 0, "agg.Series.Snapshot", t1, t2)
	if flows == 0 {
		return ms(t1.Sub(t0)), math.NaN(), nil
	}
	return ms(t1.Sub(t0)), float64(t2.Sub(t1).Nanoseconds()) / float64(flows), nil
}

// figureCalls times the figure suite's calls on ls.
func figureCalls(ls *experiments.LinkSet, log *spanLog) (fig1, fig1c, base time.Duration, err error) {
	t0 := time.Now()
	runs, err := experiments.RunFigure1(ls, true)
	if err != nil {
		return 0, 0, 0, err
	}
	t1 := time.Now()
	if _, err := experiments.Fig1c(runs, experiments.Fig1cConfig{}); err != nil {
		return 0, 0, 0, err
	}
	t2 := time.Now()
	if _, err := experiments.BaselineComparison(ls); err != nil {
		return 0, 0, 0, err
	}
	t3 := time.Now()
	root := log.add("exp", 0, "figure suite", t0, t3)
	log.add("exp", root, "experiments.RunFigure1", t0, t1)
	log.add("exp", root, "experiments.Fig1c", t1, t2)
	log.add("exp", root, "experiments.BaselineComparison", t2, t3)
	return t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reportOverhead prints the gap between the traced run and the
// untraced run of the same workload and seed, when one is on file.
func reportOverhead(name string, seed int64, seconds int, out string, rep *sheet) {
	var rec record
	path := filepath.Join(out, fmt.Sprintf("result-%s-seed%d-trace0.json", name, seed))
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &rec)
	}
	if err != nil || rec.Seconds != seconds {
		fmt.Printf("tracing overhead: no untraced %s run at seed %d and %ds on file; run with -trace 0 first to compare\n", name, seed, seconds)
		return
	}
	if name == "figures" {
		suite := rep.metrics["experiments.fig1_ms"].Value + rep.metrics["experiments.fig1c_ms"].Value + rep.metrics["experiments.baseline_ms"].Value
		untraced := rec.All["wall_s"].Value * 1000
		fmt.Printf("tracing overhead: traced figure calls %.1f ms vs untraced suite wall %.1f ms (%+.1f%%)\n",
			suite, untraced, 100*(suite/untraced-1))
		return
	}
	for _, pair := range [][2]string{{"traced.publish_p50_ms", "publish_p50_ms"}, {"traced.capacity_rps", "capacity_rps"}} {
		t, u := rep.metrics[pair[0]].Value, rec.All[pair[1]].Value
		fmt.Printf("tracing overhead + in-process composition: %s %.4g vs daemon %s %.4g (%+.1f%%)\n",
			pair[0], t, pair[1], u, 100*(t/u-1))
	}
}
