package serve

import (
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
)

// DefaultHistory is the default per-link history ring capacity: a day
// of five-minute intervals.
const DefaultHistory = 288

// numShards spreads links over independently locked shards so HTTP
// readers scanning one link never contend with the ingest path writing
// another. 16 shards is far past the contention point for a POP's worth
// of links while keeping the IDs() scan cheap.
const numShards = 16

// Store is the daemon's sharded in-memory state: one LinkState per
// monitored link, keyed by link ID. All methods are safe for concurrent
// use — the UDP ingest loop and the per-link pipeline workers write
// while HTTP handlers read.
type Store struct {
	shards [numShards]storeShard
}

type storeShard struct {
	mu    sync.RWMutex
	links map[string]*LinkState
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].links = make(map[string]*LinkState)
	}
	return s
}

func (s *Store) shardFor(id string) *storeShard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &s.shards[h.Sum32()%numShards]
}

// Get returns the link's state, or nil when the link is unknown.
func (s *Store) Get(id string) *LinkState {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.links[id]
}

// GetOrCreate returns the link's state, creating it (with the given
// history capacity) on first sight.
func (s *Store) GetOrCreate(id string, history int) *LinkState {
	sh := s.shardFor(id)
	sh.mu.RLock()
	ls := sh.links[id]
	sh.mu.RUnlock()
	if ls != nil {
		return ls
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ls = sh.links[id]; ls == nil {
		ls = newLinkState(id, history)
		sh.links[id] = ls
	}
	return ls
}

// IDs returns every known link ID, sorted.
func (s *Store) IDs() []string {
	var ids []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.links {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// Summaries returns every link's summary row, sorted by ID — the
// collection both /links and /metrics render.
func (s *Store) Summaries() []LinkSummary {
	ids := s.IDs()
	out := make([]LinkSummary, 0, len(ids))
	for _, id := range ids {
		if ls := s.Get(id); ls != nil {
			out = append(out, ls.Summary())
		}
	}
	return out
}

// Len reports the number of known links.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.links)
		sh.mu.RUnlock()
	}
	return n
}

// IngestCounters counts a link's datagram/record attribution outcomes
// in the UDP ingest path (decode errors happen before a link is known
// and are counted daemon-wide instead).
type IngestCounters struct {
	// Datagrams is the number of well-formed datagrams demultiplexed to
	// this link.
	Datagrams uint64 `json:"datagrams"`
	// Records is the number of flow records those datagrams carried.
	Records uint64 `json:"records"`
	// Routed counts records attributed to a BGP prefix and fed to the
	// pipeline; Unrouted counts records with no matching route.
	Routed   uint64 `json:"routed"`
	Unrouted uint64 `json:"unrouted"`
	// Dropped counts routed records discarded because the link's
	// pipeline had already failed.
	Dropped uint64 `json:"dropped"`
}

// IntervalSummary is one closed interval's classification digest — the
// unit of the history ring and of the /links/{id}/history response.
type IntervalSummary struct {
	// Interval is the 0-based interval index; Start its left-edge wall
	// time.
	Interval int       `json:"interval"`
	Start    time.Time `json:"start"`
	// TotalLoadBps, ActiveFlows, Elephants, ElephantLoadBps,
	// LoadFraction and ThresholdBps mirror core.Result.
	TotalLoadBps    float64 `json:"total_load_bps"`
	ActiveFlows     int     `json:"active_flows"`
	Elephants       int     `json:"elephants"`
	ElephantLoadBps float64 `json:"elephant_load_bps"`
	LoadFraction    float64 `json:"load_fraction"`
	ThresholdBps    float64 `json:"threshold_bps"`
	// Promoted and Demoted count membership churn against the previous
	// closed interval — the reroute events a TE controller would act on.
	Promoted int `json:"promoted"`
	Demoted  int `json:"demoted"`
	// Flows lists the interval's elephant prefixes; only populated when
	// the caller asked for sets (history?flows=1).
	Flows []string `json:"flows,omitempty"`
}

// LinkSummary is one link's row in the /links listing.
type LinkSummary struct {
	ID     string         `json:"id"`
	Ingest IngestCounters `json:"ingest"`
	// Stream carries the link accumulator's counters as of the last
	// interval close (late drops, far-future drops, closed intervals,
	// evicted flows).
	Stream agg.StreamStats `json:"stream"`
	// Last summarises the most recent closed interval; absent until the
	// first interval closes.
	Last *IntervalSummary `json:"last,omitempty"`
	// Error is the pipeline failure that froze this link, empty while
	// healthy.
	Error string `json:"error,omitempty"`
}

// historyEntry pairs a summary with the interval's owning elephant set
// (core.ElephantSet storage is immutable, so retaining it is safe).
type historyEntry struct {
	summary IntervalSummary
	set     core.ElephantSet
}

// LinkState is one link's live state: ingest counters, the current
// elephant set, and a fixed-capacity ring of recent interval summaries.
// Writers are the UDP ingest loop (counters) and the link's pipeline
// worker (results); readers are the HTTP handlers.
type LinkState struct {
	id string

	mu      sync.RWMutex
	ingest  IngestCounters
	stream  agg.StreamStats
	current core.ElephantSet
	last    IntervalSummary
	hasLast bool
	failed  string
	// seq is the publish sequence: RecordResult bumps it with every
	// closed interval, so it names the state /elephants renders.
	seq uint64

	// elephants memoises the rendered /elephants body for one seq.
	elephants atomic.Pointer[elephantsBody]

	// created and lastSeal are wall-clock instants — when the state was
	// built and when the most recent interval sealed — backing the
	// readiness staleness check (Staleness).
	created  time.Time
	lastSeal time.Time

	// ring is the history: capacity fixed at creation, oldest entries
	// overwritten in place.
	ring  []historyEntry
	next  int // ring slot the next entry lands in
	count int // entries held, <= cap(ring)
}

func newLinkState(id string, history int) *LinkState {
	if history <= 0 {
		history = DefaultHistory
	}
	return &LinkState{id: id, ring: make([]historyEntry, history), created: time.Now()}
}

// ID returns the link's identifier.
func (ls *LinkState) ID() string { return ls.id }

// ObserveDatagram accounts one demultiplexed datagram.
func (ls *LinkState) ObserveDatagram(records, routed, unrouted, dropped int) {
	ls.mu.Lock()
	ls.ingest.Datagrams++
	ls.ingest.Records += uint64(records)
	ls.ingest.Routed += uint64(routed)
	ls.ingest.Unrouted += uint64(unrouted)
	ls.ingest.Dropped += uint64(dropped)
	ls.mu.Unlock()
}

// RecordResult folds one closed interval into the state: churn against
// the previous set, the new current set, the history ring, and the
// accumulator counters as of the close.
func (ls *LinkState) RecordResult(t int, at time.Time, res core.Result, stats agg.StreamStats) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	promoted, demoted := core.Churn(ls.current, res.Elephants)
	sum := IntervalSummary{
		Interval:        t,
		Start:           at,
		TotalLoadBps:    res.TotalLoad,
		ActiveFlows:     res.ActiveFlows,
		Elephants:       res.ElephantCount(),
		ElephantLoadBps: res.ElephantLoad,
		LoadFraction:    res.LoadFraction(),
		ThresholdBps:    res.Threshold,
		Promoted:        promoted,
		Demoted:         demoted,
	}
	ls.seq++
	ls.current = res.Elephants
	ls.last = sum
	ls.hasLast = true
	ls.stream = stats
	ls.ring[ls.next] = historyEntry{summary: sum, set: res.Elephants}
	ls.next = (ls.next + 1) % len(ls.ring)
	if ls.count < len(ls.ring) {
		ls.count++
	}
	ls.lastSeal = time.Now()
}

// Staleness reports how long the link has gone without sealing an
// interval: now minus the last seal instant, or minus the state's
// creation when nothing has sealed yet. Never negative.
func (ls *LinkState) Staleness(now time.Time) time.Duration {
	ls.mu.RLock()
	ref := ls.lastSeal
	if ref.IsZero() {
		ref = ls.created
	}
	ls.mu.RUnlock()
	if d := now.Sub(ref); d > 0 {
		return d
	}
	return 0
}

// SetStreamStats records the accumulator's final counters (after the
// shutdown flush, when no more closes will deliver them).
func (ls *LinkState) SetStreamStats(stats agg.StreamStats) {
	ls.mu.Lock()
	ls.stream = stats
	ls.mu.Unlock()
}

// ReclassifyDropped moves n records from Routed to Dropped — the
// post-mortem correction for records a failed pipeline accepted into
// its queue but discarded unclassified (engine.LivePipeline.Dropped).
func (ls *LinkState) ReclassifyDropped(n uint64) {
	if n == 0 {
		return
	}
	ls.mu.Lock()
	if n > ls.ingest.Routed {
		n = ls.ingest.Routed
	}
	ls.ingest.Routed -= n
	ls.ingest.Dropped += n
	ls.mu.Unlock()
}

// Fail marks the link's pipeline as failed. The first failure wins.
func (ls *LinkState) Fail(err error) {
	if err == nil {
		return
	}
	ls.mu.Lock()
	if ls.failed == "" {
		ls.failed = err.Error()
	}
	ls.mu.Unlock()
}

// Failed reports whether the link's pipeline has failed.
func (ls *LinkState) Failed() bool {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	return ls.failed != ""
}

// Summary returns the link's /links row.
func (ls *LinkState) Summary() LinkSummary {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	out := LinkSummary{ID: ls.id, Ingest: ls.ingest, Stream: ls.stream, Error: ls.failed}
	if ls.hasLast {
		last := ls.last
		out.Last = &last
	}
	return out
}

// Current returns the most recent closed interval's summary and its
// elephant set; ok is false until the first interval closes.
func (ls *LinkState) Current() (IntervalSummary, core.ElephantSet, bool) {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	return ls.last, ls.current, ls.hasLast
}

// History returns up to n most recent interval summaries, oldest
// first (n <= 0 means all retained). includeFlows attaches each
// interval's elephant prefixes, formatted after the lock is released
// (set storage is immutable) so a large history read never holds up
// RecordResult.
func (ls *LinkState) History(n int, includeFlows bool) []IntervalSummary {
	ls.mu.RLock()
	if n <= 0 || n > ls.count {
		n = ls.count
	}
	out := make([]IntervalSummary, n)
	var sets []core.ElephantSet
	if includeFlows {
		sets = make([]core.ElephantSet, n)
	}
	for i := range out {
		// The newest entry sits just before next (mod capacity).
		e := &ls.ring[(ls.next-n+i+len(ls.ring))%len(ls.ring)]
		out[i] = e.summary
		if includeFlows {
			sets[i] = e.set
		}
	}
	ls.mu.RUnlock()
	for i, set := range sets {
		out[i].Flows = prefixStrings(set)
	}
	return out
}

// prefixStrings formats a set's members in set order, each exactly as
// Prefix.String does. The texts are laid end to end in one string and
// sliced out of it: two allocations for the whole set, not three per
// prefix.
func prefixStrings(set core.ElephantSet) []string {
	flows := set.Flows()
	out := make([]string, len(flows))
	ends := make([]int, len(flows))
	buf := make([]byte, 0, len("255.255.255.255/32")*len(flows))
	for i, p := range flows {
		if p.IsValid() {
			buf = p.AppendTo(buf)
		} else {
			buf = append(buf, p.String()...)
		}
		ends[i] = len(buf)
	}
	all, from := string(buf), 0
	for i, end := range ends {
		out[i], from = all[from:end], end
	}
	return out
}

// elephantsBody is one rendered /links/{id}/elephants answer: the JSON
// body for the link state at publish sequence seq. Immutable once
// published.
type elephantsBody struct {
	seq  uint64
	body []byte
}

// ElephantsJSON returns the /links/{id}/elephants body for the most
// recent closed interval. The body is rendered at most once per
// published interval: a query whose publish sequence matches the memo
// gets the memoised bytes, and a miss renders the state it read under
// the same lock as the sequence. Rendering is lazy — on the first query
// after a seal, never in RecordResult — so a link nobody queries never
// pays for it.
func (ls *LinkState) ElephantsJSON() ([]byte, error) {
	ls.mu.RLock()
	seq := ls.seq
	if m := ls.elephants.Load(); m != nil && m.seq == seq {
		ls.mu.RUnlock()
		return m.body, nil
	}
	sum, set, ok := ls.last, ls.current, ls.hasLast
	ls.mu.RUnlock()

	resp := Elephants{Link: ls.id, Interval: -1, Flows: []string{}}
	if ok {
		resp.Interval = sum.Interval
		resp.Start = sum.Start
		resp.ThresholdBps = sum.ThresholdBps
		resp.Count = set.Len()
		resp.Flows = prefixStrings(set)
	}
	body, err := renderJSON(resp)
	if err != nil {
		return nil, err
	}
	ls.publishElephants(&elephantsBody{seq: seq, body: body})
	return body, nil
}

// publishElephants installs m as the memo unless a body for the same or
// a newer sequence is already there: a slow render of an older interval
// never replaces a newer one.
func (ls *LinkState) publishElephants(m *elephantsBody) {
	for {
		old := ls.elephants.Load()
		if old != nil && old.seq >= m.seq {
			return
		}
		if ls.elephants.CompareAndSwap(old, m) {
			return
		}
	}
}
