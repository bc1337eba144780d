// Package bgp models the routing-table substrate of the reproduction: BGP
// network prefixes with attributes, longest-prefix match by binary search
// over a compiled table of disjoint address ranges, a text table format,
// and a synthetic table generator calibrated to the prefix-length mix of a
// 2001 Tier-1 table.
//
// The paper defines a "flow" as the traffic destined to one BGP routing
// table entry; every packet on the link is attributed to a prefix by
// longest-prefix match against this table.
package bgp

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Tier classifies the origin AS of a route for the paper's "elephants
// belong to other Tier-1 ISPs" analysis.
type Tier uint8

// Tier values.
const (
	TierUnknown Tier = iota
	Tier1            // another backbone provider
	Tier2            // regional provider
	Tier3            // stub / enterprise
)

// String returns a short name for the tier.
func (t Tier) String() string {
	switch t {
	case Tier1:
		return "tier1"
	case Tier2:
		return "tier2"
	case Tier3:
		return "tier3"
	}
	return "unknown"
}

// ParseTier converts a string produced by Tier.String back to a Tier.
func ParseTier(s string) (Tier, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "tier1":
		return Tier1, nil
	case "tier2":
		return Tier2, nil
	case "tier3":
		return Tier3, nil
	case "unknown", "":
		return TierUnknown, nil
	}
	return TierUnknown, fmt.Errorf("bgp: unknown tier %q", s)
}

// Route is one routing table entry.
type Route struct {
	Prefix   netip.Prefix
	OriginAS uint32
	Tier     Tier
}

// Table is an immutable-after-build BGP routing table with longest-prefix
// match. The zero value is an empty table; call Insert to populate it and
// do not mutate it concurrently with lookups. Concurrent lookups are safe.
type Table struct {
	routes []Route
	byPfx  map[netip.Prefix]int // index into routes

	// v4 is the compiled IPv4 lookup table, nil until the first Lookup
	// (or ReadText/Generate) after the last Insert; mu serialises the
	// compile so concurrent first lookups build it once.
	v4 atomic.Pointer[rangeTable]
	mu sync.Mutex
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{byPfx: make(map[netip.Prefix]int)}
}

// Len reports the number of routes.
func (t *Table) Len() int { return len(t.routes) }

// Routes returns the table's routes in insertion order. The slice is
// shared; callers must not modify it.
func (t *Table) Routes() []Route { return t.routes }

// Insert adds or replaces a route. Only IPv4 prefixes participate in
// longest-prefix match; IPv6 routes are stored but matched exactly (the
// paper's traces are IPv4).
func (t *Table) Insert(r Route) error {
	if !r.Prefix.IsValid() {
		return fmt.Errorf("bgp: invalid prefix %v", r.Prefix)
	}
	r.Prefix = r.Prefix.Masked()
	if t.byPfx == nil {
		t.byPfx = make(map[netip.Prefix]int)
	}
	if i, ok := t.byPfx[r.Prefix]; ok {
		t.routes[i] = r
	} else {
		t.byPfx[r.Prefix] = len(t.routes)
		t.routes = append(t.routes, r)
	}
	t.v4.Store(nil)
	return nil
}

// Lookup returns the longest-prefix-match route for addr, or ok=false when
// no route covers it.
func (t *Table) Lookup(addr netip.Addr) (Route, bool) {
	if addr.Is4() || addr.Is4In6() {
		if addr.Is4In6() {
			addr = addr.Unmap()
		}
		rt := t.v4.Load()
		if rt == nil {
			rt = t.compile()
		}
		idx := rt.lookup(v4bits(addr))
		if idx < 0 {
			return Route{}, false
		}
		return t.routes[idx], true
	}
	// Exact-match fallback for IPv6: walk candidate prefix lengths.
	for bits := 128; bits >= 0; bits-- {
		p, err := addr.Prefix(bits)
		if err != nil {
			continue
		}
		if i, ok := t.byPfx[p]; ok {
			return t.routes[i], true
		}
	}
	return Route{}, false
}

// compile returns the table's compiled IPv4 ranges, building and
// publishing them first if an Insert has dropped them.
func (t *Table) compile() *rangeTable {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rt := t.v4.Load(); rt != nil {
		return rt
	}
	rt := compileRanges(t.routes)
	t.v4.Store(rt)
	return rt
}

// PrefixLengthHistogram returns a 33-element histogram of IPv4 prefix
// lengths (index = prefix bits).
func (t *Table) PrefixLengthHistogram() [33]int {
	var h [33]int
	for _, r := range t.routes {
		if r.Prefix.Addr().Is4() {
			h[r.Prefix.Bits()]++
		}
	}
	return h
}

func v4bits(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// rangeTable is the compiled form of a table's IPv4 routes: the address
// space 0…2³²−1 cut into disjoint ranges, each carrying the index of its
// longest matching route (−1 where none covers it). starts holds the
// sorted first address of every range; starts[0] is always 0, so the
// range holding a is the last one whose start is ≤ a. first[h] is the
// range holding h<<16, the first address of /16 block h, and
// first[65536] is the last range, so the range holding any address in
// block h lies in first[h]…first[h+1] and a lookup binary-searches only
// the few ranges that cut that block. Its arrays hold no pointers: at 60k
// routes they are about 1.2 MB that the garbage collector never scans.
type rangeTable struct {
	starts []uint32
	route  []int32
	first  [1<<16 + 1]uint32
}

func (rt *rangeTable) lookup(a uint32) int32 {
	lo, hi := rt.first[a>>16], rt.first[a>>16+1]
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if rt.starts[mid] <= a {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return rt.route[lo]
}

// compileRanges builds the range table for the IPv4 routes in routes.
// Sorted by first address, then by length (last address descending),
// prefixes arrive nested inside the ones still open on the stack; each
// prefix opens a range where it starts, and when it closes the
// innermost prefix still open resumes after its last address.
func compileRanges(routes []Route) *rangeTable {
	type span struct {
		lo, hi uint32 // first and last address
		idx    int32
	}
	spans := make([]span, 0, len(routes))
	for i, r := range routes {
		if !r.Prefix.Addr().Is4() {
			continue
		}
		lo := v4bits(r.Prefix.Addr())
		spans = append(spans, span{lo, lo | uint32(uint64(1)<<(32-r.Prefix.Bits())-1), int32(i)})
	}
	slices.SortFunc(spans, func(a, b span) int {
		if c := cmp.Compare(a.lo, b.lo); c != 0 {
			return c
		}
		return cmp.Compare(b.hi, a.hi)
	})

	rt := &rangeTable{
		starts: make([]uint32, 0, 2*len(spans)+1),
		route:  make([]int32, 0, 2*len(spans)+1),
	}
	// emit starts a range at start routed to idx. A range starting where
	// the previous one did replaces it, and one routed like the previous
	// range extends that range instead.
	emit := func(start uint32, idx int32) {
		if n := len(rt.starts); n > 0 && rt.starts[n-1] == start {
			rt.starts, rt.route = rt.starts[:n-1], rt.route[:n-1]
		}
		if n := len(rt.route); n > 0 && rt.route[n-1] == idx {
			return
		}
		rt.starts = append(rt.starts, start)
		rt.route = append(rt.route, idx)
	}
	var open []span
	// closeTo pops every open prefix that ends before addr, resuming the
	// enclosing route after each one; closeTo(1<<32) pops them all.
	closeTo := func(addr uint64) {
		for n := len(open); n > 0 && uint64(open[n-1].hi) < addr; n = len(open) {
			end := open[n-1].hi
			open = open[:n-1]
			if end == ^uint32(0) {
				continue
			}
			outer := int32(-1)
			if len(open) > 0 {
				outer = open[len(open)-1].idx
			}
			emit(end+1, outer)
		}
	}
	emit(0, -1)
	for _, s := range spans {
		closeTo(uint64(s.lo))
		emit(s.lo, s.idx)
		open = append(open, s)
	}
	closeTo(1 << 32)

	r := 0
	for h := range rt.first[:1<<16] {
		for r+1 < len(rt.starts) && rt.starts[r+1] <= uint32(h)<<16 {
			r++
		}
		rt.first[h] = uint32(r)
	}
	rt.first[1<<16] = uint32(len(rt.starts) - 1)
	return rt
}

// WriteText serializes the table in the package's text format:
// one "prefix originAS tier" triple per line, '#' comments allowed.
func (t *Table) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %d routes\n", len(t.routes))
	for _, r := range t.routes {
		if _, err := fmt.Fprintf(bw, "%s %d %s\n", r.Prefix, r.OriginAS, r.Tier); err != nil {
			return fmt.Errorf("bgp: writing table: %w", err)
		}
	}
	return bw.Flush()
}

// ReadText parses a table in the text format written by WriteText.
func ReadText(r io.Reader) (*Table, error) {
	t := NewTable()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 1 {
			continue
		}
		p, err := netip.ParsePrefix(fields[0])
		if err != nil {
			return nil, fmt.Errorf("bgp: line %d: %w", line, err)
		}
		route := Route{Prefix: p}
		if len(fields) > 1 {
			as, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bgp: line %d: bad origin AS %q", line, fields[1])
			}
			route.OriginAS = uint32(as)
		}
		if len(fields) > 2 {
			tier, err := ParseTier(fields[2])
			if err != nil {
				return nil, fmt.Errorf("bgp: line %d: %w", line, err)
			}
			route.Tier = tier
		}
		if err := t.Insert(route); err != nil {
			return nil, fmt.Errorf("bgp: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bgp: reading table: %w", err)
	}
	t.compile()
	return t, nil
}

// SortedPrefixes returns the table's prefixes sorted by address then
// length; useful for deterministic iteration in tests and reports.
func (t *Table) SortedPrefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(t.routes))
	for _, r := range t.routes {
		out = append(out, r.Prefix)
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].Addr().Compare(out[j].Addr()); c != 0 {
			return c < 0
		}
		return out[i].Bits() < out[j].Bits()
	})
	return out
}
