package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/netflow"
	"repro/internal/scheme"
)

// benchWire builds one full 30-record v5 datagram whose destinations
// all route in table, with every record landing in interval 0 (no
// interval ever closes, so the pipeline worker's steady state is pure
// same-flow accumulation).
func benchWire(tb testing.TB, table *bgp.Table, at time.Time) []byte {
	tb.Helper()
	routes := table.Routes()
	if len(routes) == 0 {
		tb.Fatal("empty table")
	}
	recs := make([]netflow.Record, netflow.MaxRecordsPerDatagram)
	for i := range recs {
		recs[i] = netflow.Record{
			SrcAddr: netip.AddrFrom4([4]byte{198, 18, byte(i >> 8), byte(i)}),
			DstAddr: routes[i%len(routes)].Prefix.Addr(),
			Packets: 10,
			Octets:  4000,
			First:   1000,
			Last:    1000,
			Proto:   6,
		}
	}
	dg := &netflow.Datagram{
		Header: netflow.Header{
			Count:     uint16(len(recs)),
			SysUptime: 1000, // record First/Last anchor exactly at UnixSecs
			UnixSecs:  uint32(at.Unix()),
		},
		Records: recs,
	}
	wire, err := dg.Encode(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return wire
}

// BenchmarkIngestDispatch times the daemon's per-datagram hot path —
// DecodeInto into the reader's scratch, link lookup on the
// copy-on-write map, per-record BGP attribution, SendBatch into the
// link pipeline — excluding only the socket read. The acceptance bar is
// 0 allocs/op in steady state: the sharded front-end must be able to
// run at socket speed without GC pressure.
func BenchmarkIngestDispatch(b *testing.B) {
	table, err := bgp.Generate(bgp.GenConfig{Routes: 600, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	start := time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)
	d, err := NewDaemon(Config{
		UDPAddr:  "127.0.0.1:0",
		HTTPAddr: "127.0.0.1:0",
		Table:    table,
		Scheme:   scheme.MustParse("load+latent"),
		Interval: 5 * time.Minute,
		Start:    start,
	})
	if err != nil {
		b.Fatal(err)
	}
	d.Start() // readers idle on their sockets; we drive dispatch directly
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()

	wire := benchWire(b, table, start)
	ap := netip.MustParseAddrPort("192.0.2.9:2055")
	r := newReader(0, nil, 0)

	// Warm up: create the link, grow the decode scratch and the
	// accumulator's flow columns to steady state. Few enough iterations
	// that the link queue (default 1024 records) still has room, so a
	// single-shot run (-benchtime 1x) times the unblocked dispatch path
	// rather than waiting for the link worker to drain the warmup.
	for i := 0; i < 8; i++ {
		if err := netflow.DecodeInto(wire, &r.dg); err != nil {
			b.Fatal(err)
		}
		d.dispatch(r, ap, &r.dg)
	}

	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := netflow.DecodeInto(wire, &r.dg); err != nil {
			b.Fatal(err)
		}
		d.dispatch(r, ap, &r.dg)
	}
	// The deferred Shutdown (and its ~100ms ingest drain) runs before
	// the framework stops the clock; keep it out of the figure.
	b.StopTimer()
}

// benchElephants returns n distinct /24 prefixes in 10.0.0.0/8.
func benchElephants(n int) []netip.Prefix {
	out := make([]netip.Prefix, n)
	for i := range out {
		out[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
	}
	return out
}

// discardResponse is a reusable http.ResponseWriter that drops the
// body, so a handler benchmark times the handler rather than a recorder.
type discardResponse struct {
	h http.Header
	n int
}

func (w *discardResponse) Header() http.Header         { return w.h }
func (w *discardResponse) WriteHeader(int)             {}
func (w *discardResponse) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// BenchmarkElephantsHandler times GET /links/{id}/elephants on a link
// holding a hot-link-sized answer: 500 elephants out of 6.5k flows.
// "miss" seals a new interval before every query, so each query
// renders; "hit" queries the same interval every time.
func BenchmarkElephantsHandler(b *testing.B) {
	const flows, elephants = 6500, 500
	res := core.Result{
		Elephants:   core.NewElephantSet(benchElephants(elephants)...),
		TotalLoad:   6.5e9,
		ActiveFlows: flows,
		Threshold:   2.5e6,
	}
	start := time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)
	for _, bc := range []struct {
		name string
		seal bool
	}{{"miss", true}, {"hit", false}} {
		b.Run(bc.name, func(b *testing.B) {
			d := newAPIDaemon()
			ls := d.store.GetOrCreate("bench@0", 0)
			ls.RecordResult(0, start, res, agg.StreamStats{})
			req := httptest.NewRequest(http.MethodGet, "/links/bench@0/elephants", nil)
			req.SetPathValue("id", "bench@0")
			w := &discardResponse{h: make(http.Header)}
			d.handleElephants(w, req)
			b.SetBytes(int64(w.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.seal {
					ls.RecordResult(i+1, start.Add(time.Duration(i+1)*time.Minute), res, agg.StreamStats{})
				}
				d.handleElephants(w, req)
			}
		})
	}
}
