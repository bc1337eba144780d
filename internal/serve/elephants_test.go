package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
)

// newAPIDaemon returns a daemon with only the state its HTTP handlers
// read — a store and a config — and no sockets, for driving the API
// directly through handler().
func newAPIDaemon() *Daemon {
	return &Daemon{
		cfg:   Config{History: DefaultHistory, Logf: func(string, ...any) {}},
		store: NewStore(),
	}
}

// referenceElephants is the /elephants body as the handler rendered it
// before answers were memoised: the Elephants value built from the
// link's current state, streamed through a json.Encoder indented by two
// spaces.
func referenceElephants(t *testing.T, id string, sum IntervalSummary, set core.ElephantSet, ok bool) []byte {
	t.Helper()
	resp := Elephants{Link: id, Interval: -1, Flows: []string{}}
	if ok {
		resp.Interval = sum.Interval
		resp.Start = sum.Start
		resp.ThresholdBps = sum.ThresholdBps
		resp.Count = set.Len()
		resp.Flows = make([]string, 0, set.Len())
		for _, p := range set.Flows() {
			resp.Flows = append(resp.Flows, p.String())
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// getElephants queries the link's /elephants through the daemon's mux.
func getElephants(t *testing.T, d *Daemon, id string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	d.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/links/"+id+"/elephants", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /links/%s/elephants = %d: %s", id, rec.Code, rec.Body)
	}
	return rec
}

// TestElephantsGolden pins the memoised body to the pre-memo rendering
// for a populated set, an empty set and the answer before the first
// seal, on both the miss (first query) and the hit (second query).
func TestElephantsGolden(t *testing.T) {
	start := time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		seal bool
		res  core.Result
	}{
		{"before first seal", false, core.Result{}},
		{"empty set", true, core.Result{TotalLoad: 1e6, ActiveFlows: 3, Threshold: 7.25e5}},
		{"populated", true, resultWith(pfx("10.0.0.0/24"), pfx("192.0.2.0/25"), pfx("2001:db8::/32"), pfx("10.1.0.0/16"))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newAPIDaemon()
			ls := d.store.GetOrCreate("x@0", 0)
			if tc.seal {
				ls.RecordResult(4, start, tc.res, agg.StreamStats{})
			}
			sum, set, ok := ls.Current()
			want := referenceElephants(t, "x@0", sum, set, ok)
			for _, pass := range []string{"miss", "hit"} {
				rec := getElephants(t, d, "x@0")
				if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
					t.Errorf("%s: body\n%s\nwant\n%s", pass, got, want)
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Errorf("%s: Content-Type %q", pass, ct)
				}
				if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) {
					t.Errorf("%s: Content-Length %q, want %d", pass, cl, len(want))
				}
			}
		})
	}
}

// TestElephantsUnencodable: a state JSON cannot encode (a non-finite
// threshold) is answered with a 500 and an error body, never memoised.
func TestElephantsUnencodable(t *testing.T) {
	d := newAPIDaemon()
	ls := d.store.GetOrCreate("x@0", 0)
	ls.RecordResult(0, time.Now(), core.Result{Threshold: math.Inf(1)}, agg.StreamStats{})
	rec := httptest.NewRecorder()
	d.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/links/x@0/elephants", nil))
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusInternalServerError || err != nil || e.Error == "" {
		t.Errorf("GET = %d %q, want 500 with an error body", rec.Code, rec.Body)
	}
	if m := ls.elephants.Load(); m != nil {
		t.Errorf("unencodable answer memoised: %q", m.body)
	}
}

// freshnessResult is interval t's result in the freshness test: the set
// and threshold vary with t so a body names its interval unambiguously.
func freshnessResult(t int) core.Result {
	ps := make([]netip.Prefix, t%7)
	for k := range ps {
		ps[k] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(t), byte(k), 0}), 24)
	}
	return core.Result{Elephants: core.NewElephantSet(ps...), TotalLoad: 1e6, ActiveFlows: 10, Threshold: float64(t) + 0.5}
}

// TestElephantsFreshUnderConcurrentSeals races one sealing goroutine
// against several HTTP readers: no answer may name an interval older
// than the last one whose RecordResult returned before the GET began,
// and every body must equal a fresh render of the interval it names.
func TestElephantsFreshUnderConcurrentSeals(t *testing.T) {
	const intervals, readers = 300, 4
	start := time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)
	at := func(t int) time.Time { return start.Add(time.Duration(t) * time.Minute) }
	d := newAPIDaemon()
	ls := d.store.GetOrCreate("x@0", 0)
	srv := httptest.NewServer(d.handler())
	defer srv.Close()

	// want[t+1] is interval t's reference body; want[0] the pre-seal one.
	want := make([][]byte, intervals+1)
	want[0] = referenceElephants(t, "x@0", IntervalSummary{}, core.ElephantSet{}, false)
	for i := 0; i < intervals; i++ {
		res := freshnessResult(i)
		want[i+1] = referenceElephants(t, "x@0", IntervalSummary{Interval: i, Start: at(i), ThresholdBps: res.Threshold}, res.Elephants, true)
	}

	var published atomic.Int64 // last interval whose RecordResult returned
	published.Store(-1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				floor := published.Load()
				resp, err := srv.Client().Get(srv.URL + "/links/x@0/elephants")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				var e Elephants
				if err := json.Unmarshal(body, &e); err != nil {
					t.Errorf("decoding %q: %v", body, err)
					return
				}
				if int64(e.Interval) < floor {
					t.Errorf("answer names interval %d, but %d was published before the query", e.Interval, floor)
					return
				}
				if e.Interval < -1 || e.Interval >= intervals || !bytes.Equal(body, want[e.Interval+1]) {
					t.Errorf("interval %d body differs from a fresh render:\n%s", e.Interval, body)
					return
				}
			}
		}()
	}
	for i := 0; i < intervals; i++ {
		ls.RecordResult(i, at(i), freshnessResult(i), agg.StreamStats{})
		published.Store(int64(i))
		time.Sleep(50 * time.Microsecond) // pace the seals so queries interleave with them
	}
	close(done)
	wg.Wait()
	if got := getElephants(t, d, "x@0").Body.Bytes(); !bytes.Equal(got, want[intervals]) {
		t.Errorf("final body\n%s\nwant\n%s", got, want[intervals])
	}
}

// TestElephantsMemoKeepsNewest pins the publish rule: a render for an
// older publish sequence never replaces a newer memo.
func TestElephantsMemoKeepsNewest(t *testing.T) {
	ls := newLinkState("x@0", 4)
	newer := &elephantsBody{seq: 2, body: []byte("two")}
	ls.publishElephants(newer)
	ls.publishElephants(&elephantsBody{seq: 1, body: []byte("one")})
	if got := ls.elephants.Load(); got != newer {
		t.Errorf("memo = seq %d %q after a late older publish, want seq 2", got.seq, got.body)
	}
	newest := &elephantsBody{seq: 3, body: []byte("three")}
	ls.publishElephants(newest)
	if got := ls.elephants.Load(); got != newest {
		t.Errorf("memo = seq %d %q, want seq 3", got.seq, got.body)
	}
}

// TestElephantsHitAllocsFlat pins the memo's point: once rendered, an
// answer costs the same allocations whatever the set size.
func TestElephantsHitAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		d := newAPIDaemon()
		ls := d.store.GetOrCreate("x@0", 0)
		ls.RecordResult(0, time.Now(), core.Result{Elephants: core.NewElephantSet(benchElephants(n)...)}, agg.StreamStats{})
		req := httptest.NewRequest(http.MethodGet, "/links/x@0/elephants", nil)
		req.SetPathValue("id", "x@0")
		w := &discardResponse{h: make(http.Header)}
		d.handleElephants(w, req)
		return testing.AllocsPerRun(100, func() { d.handleElephants(w, req) })
	}
	if small, large := allocs(1), allocs(1000); large != small {
		t.Errorf("memoised answer allocs/op = %v with 1000 elephants, %v with 1", large, small)
	}
}

// TestHistoryFlowsRaceRecordResult runs History(0, true) — which
// formats every retained set — concurrently with RecordResult, and
// checks every entry's flows belong to its own interval.
func TestHistoryFlowsRaceRecordResult(t *testing.T) {
	const intervals = 200
	ls := newLinkState("x@0", 16)
	start := time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, e := range ls.History(0, true) {
					want := []string{}
					for _, p := range freshnessResult(e.Interval).Elephants.Flows() {
						want = append(want, p.String())
					}
					if fmt.Sprint(e.Flows) != fmt.Sprint(want) {
						t.Errorf("interval %d: flows %v, want %v", e.Interval, e.Flows, want)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < intervals; i++ {
		ls.RecordResult(i, start.Add(time.Duration(i)*time.Minute), freshnessResult(i), agg.StreamStats{})
	}
	close(done)
	wg.Wait()
	if hist := ls.History(0, true); len(hist) != 16 || hist[15].Interval != intervals-1 {
		t.Errorf("final history = %+v, want 16 entries ending at interval %d", hist, intervals-1)
	}
}
