package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"sort"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/netflow"
	"repro/internal/packet"
	"repro/internal/trace"
)

// interval is the measurement interval Δ the daemon runs with by
// default; the generated event time advances in these steps, only far
// faster than wall time.
const interval = 5 * time.Minute

// eventStart anchors generated event time at the paper's trace start.
var eventStart = time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)

// maxPacketBytes caps one synthetic packet's size so no v5 octet
// counter (uint32) can wrap; a larger per-interval volume is split
// across several flow keys of the same destination prefix.
const maxPacketBytes = 1 << 30

// stream is one workload's NetFlow v5 load: one cycle of pre-encoded
// datagrams (every link interleaved in event-time order), replayed
// cyclically with each repetition's export clock advanced by one cycle
// of event time, so the records keep moving forward and never land
// behind the collector's closed intervals. Position i of the stream is
// datagram i%len(wires) of repetition i/len(wires).
type stream struct {
	wires     [][]byte
	cum       []int64 // records in the cycle before datagram j; len(wires)+1 entries
	shiftSecs uint32  // event-time advance per repetition
}

// cycleRecords is the record count of one repetition.
func (s *stream) cycleRecords() int64 { return s.cum[len(s.wires)] }

// recordsBefore returns how many records precede stream position i.
func (s *stream) recordsBefore(i int) int64 {
	n := len(s.wires)
	return int64(i/n)*s.cycleRecords() + s.cum[i%n]
}

// datagram writes the wire bytes of stream position i into buf, with
// the export clock advanced for its repetition.
func (s *stream) datagram(i int, buf []byte) []byte {
	w := s.wires[i%len(s.wires)]
	buf = append(buf[:0], w...)
	secs := binary.BigEndian.Uint32(w[8:12])
	binary.BigEndian.PutUint32(buf[8:12], secs+uint32(i/len(s.wires))*s.shiftSecs)
	return buf
}

// liveInput is everything a live workload generates from its seed: the
// BGP table (also written as a text file for the daemon), each link's
// bandwidth matrix over one cycle, and the datagram stream.
type liveInput struct {
	table     *bgp.Table
	tablePath string
	series    []*agg.Series
	stream    *stream
}

// genLive synthesises a live workload's inputs from seed.
func genLive(w *workload, seed int64, tablePath string) (*liveInput, error) {
	table, err := bgp.Generate(bgp.GenConfig{Routes: w.routes, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("generating BGP table: %w", err)
	}
	if err := writeTable(table, tablePath); err != nil {
		return nil, err
	}
	series := make([]*agg.Series, w.links)
	for l := range series {
		tl, err := trace.NewLink(trace.LinkConfig{
			Name:        fmt.Sprintf("link%d", l),
			Profile:     trace.FlatProfile(),
			MeanLoadBps: w.meanBps,
			Flows:       w.flows,
			Table:       table,
			Seed:        seed*7919 + int64(l),
		})
		if err != nil {
			return nil, fmt.Errorf("building link %d: %w", l, err)
		}
		series[l] = tl.GenerateSeries(eventStart, interval, w.cycle)
	}
	st, err := encodeStream(series, seed)
	if err != nil {
		return nil, err
	}
	return &liveInput{table: table, tablePath: tablePath, series: series, stream: st}, nil
}

func writeTable(table *bgp.Table, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := table.WriteText(bw); err != nil {
		f.Close()
		return fmt.Errorf("writing BGP table: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing BGP table: %w", err)
	}
	return f.Close()
}

// encodeStream turns each link's bandwidth matrix into router-model
// NetFlow v5 datagrams: every active (flow, interval) cell becomes one
// packet of the cell's byte volume at a random instant of the interval,
// fed in time order through a netflow.Exporter whose engine ID is the
// link's index, so link l arrives at the collector as its own link. The
// exporters' datagrams are merged across links by export time.
func encodeStream(series []*agg.Series, seed int64) (*stream, error) {
	type stamped struct {
		at   time.Time
		wire []byte
		recs int
	}
	var all []stamped
	cycle := 0
	for l, s := range series {
		if s.Intervals > cycle {
			cycle = s.Intervals
		}
		rng := rand.New(rand.NewSource(seed*104729 + int64(l)))
		flows := s.Flows()
		dst := make([]netip.Addr, len(flows))
		for i, p := range flows {
			dst[i] = bgp.RandomAddrInPrefix(rng, p)
		}
		// One packet per flow and interval means a flow is idle between
		// its packets anyway; a short inactive timeout exports each
		// packet's record promptly and keeps the exporter's cache (which
		// it scans on every packet) small.
		exp := netflow.NewExporter(netflow.ExporterConfig{
			EngineID:        uint8(l),
			BootTime:        s.Start,
			InactiveTimeout: time.Second,
		}, func(dg *netflow.Datagram) error {
			wire, err := dg.Encode(nil)
			if err != nil {
				return err
			}
			at := time.Unix(int64(dg.Header.UnixSecs), int64(dg.Header.UnixNsecs))
			all = append(all, stamped{at: at, wire: append([]byte(nil), wire...), recs: len(dg.Records)})
			return nil
		})
		type pkt struct {
			at   time.Time
			flow int
			part int
			size int
		}
		var pkts []pkt
		for t := 0; t < s.Intervals; t++ {
			pkts = pkts[:0]
			left := s.IntervalTime(t)
			for i, p := range flows {
				bw := s.Bandwidth(p, t)
				if bw <= 0 {
					continue
				}
				bytes := int(bw * s.Interval.Seconds() / 8)
				at := left.Add(time.Duration(rng.Int63n(int64(s.Interval))))
				for part := 0; bytes > 0; part++ {
					n := bytes
					if n > maxPacketBytes {
						n = maxPacketBytes
					}
					pkts = append(pkts, pkt{at: at, flow: i, part: part, size: n})
					bytes -= n
				}
			}
			sort.Slice(pkts, func(a, b int) bool { return pkts[a].at.Before(pkts[b].at) })
			for _, p := range pkts {
				err := exp.AddPacket(p.at, packet.Summary{
					SrcIP:       netip.AddrFrom4([4]byte{10, byte(p.flow >> 8), byte(p.flow), 1}),
					DstIP:       dst[p.flow],
					Protocol:    6,
					SrcPort:     uint16(40000 + p.part),
					DstPort:     443,
					WireLength:  p.size,
					TransportOK: true,
				})
				if err != nil {
					return nil, fmt.Errorf("exporting link %d: %w", l, err)
				}
			}
		}
		if err := exp.Flush(); err != nil {
			return nil, fmt.Errorf("exporting link %d: %w", l, err)
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("the exporters produced no datagrams")
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].at.Before(all[b].at) })
	st := &stream{
		wires:     make([][]byte, len(all)),
		cum:       make([]int64, len(all)+1),
		shiftSecs: uint32((time.Duration(cycle) * interval).Seconds()),
	}
	for j, d := range all {
		st.wires[j] = d.wire
		st.cum[j+1] = st.cum[j] + int64(d.recs)
	}
	return st, nil
}

// linkRecords is what one link's collector sees of a stream prefix:
// its attributed records in arrival order, each tagged with the stream
// position of the datagram that carried it.
type linkRecords struct {
	recs []agg.Record
	pos  []int
}

// attributeStream decodes stream positions [0, n) exactly as the daemon
// does (netflow.DecodeInto, then netflow.Attribute) and splits the
// routed records by link (engine ID). It returns the per-link records
// and the unrouted count.
func attributeStream(st *stream, n, links int, table *bgp.Table) ([]linkRecords, int, error) {
	out := make([]linkRecords, links)
	var dg netflow.Datagram
	var buf []byte
	unrouted := 0
	for i := 0; i < n; i++ {
		buf = st.datagram(i, buf)
		if err := netflow.DecodeInto(buf, &dg); err != nil {
			return nil, 0, fmt.Errorf("decoding stream position %d: %w", i, err)
		}
		l := int(dg.Header.EngineID)
		if l >= links {
			return nil, 0, fmt.Errorf("stream position %d: engine ID %d outside %d links", i, l, links)
		}
		for _, r := range dg.Records {
			rec, ok := netflow.Attribute(table, dg.Header, r)
			if !ok {
				unrouted++
				continue
			}
			out[l].recs = append(out[l].recs, rec)
			out[l].pos = append(out[l].pos, i)
		}
	}
	return out, unrouted, nil
}

// sealTriggers replays one link's records through a serial
// StreamAccumulator with the daemon's window and returns, per interval
// t, the stream position of the datagram whose record made t sealable
// (-1 for intervals that never sealed).
func sealTriggers(lr linkRecords, window int) ([]int, error) {
	var trig []int
	cur := 0
	acc, err := agg.NewStreamAccumulator(agg.StreamConfig{Interval: interval, Window: window})
	if err != nil {
		return nil, err
	}
	defer acc.Close()
	acc.Emit = func(t int, _ *core.FlowSnapshot) error {
		for len(trig) <= t {
			trig = append(trig, -1)
		}
		trig[t] = cur
		return nil
	}
	for k, rec := range lr.recs {
		cur = lr.pos[k]
		if err := acc.Add(rec); err != nil {
			return nil, err
		}
	}
	return trig, nil
}
