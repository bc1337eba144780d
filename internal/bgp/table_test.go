package bgp

import (
	"bytes"
	"math/rand"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func mustInsert(t *testing.T, tab *Table, prefix string, as uint32, tier Tier) {
	t.Helper()
	if err := tab.Insert(Route{Prefix: netip.MustParsePrefix(prefix), OriginAS: as, Tier: tier}); err != nil {
		t.Fatalf("Insert(%s): %v", prefix, err)
	}
}

func TestLookupLongestPrefixMatch(t *testing.T) {
	tab := NewTable()
	mustInsert(t, tab, "10.0.0.0/8", 1, Tier1)
	mustInsert(t, tab, "10.1.0.0/16", 2, Tier2)
	mustInsert(t, tab, "10.1.2.0/24", 3, Tier3)
	mustInsert(t, tab, "10.1.2.128/25", 4, Tier3)

	cases := []struct {
		addr string
		as   uint32
	}{
		{"10.9.9.9", 1},   // only the /8 covers
		{"10.1.9.9", 2},   // /16 beats /8
		{"10.1.2.5", 3},   // /24 beats /16
		{"10.1.2.200", 4}, // /25 beats /24
		{"10.1.2.127", 3}, // below the /25
		{"10.255.255.255", 1},
	}
	for _, tc := range cases {
		r, ok := tab.Lookup(netip.MustParseAddr(tc.addr))
		if !ok {
			t.Errorf("Lookup(%s): no route", tc.addr)
			continue
		}
		if r.OriginAS != tc.as {
			t.Errorf("Lookup(%s) = AS%d, want AS%d", tc.addr, r.OriginAS, tc.as)
		}
	}
}

func TestLookupMiss(t *testing.T) {
	tab := NewTable()
	mustInsert(t, tab, "10.0.0.0/8", 1, Tier1)
	if _, ok := tab.Lookup(netip.MustParseAddr("11.0.0.1")); ok {
		t.Error("lookup outside all routes succeeded")
	}
	if _, ok := NewTable().Lookup(netip.MustParseAddr("10.0.0.1")); ok {
		t.Error("lookup in empty table succeeded")
	}
}

func TestLookupDefaultRoute(t *testing.T) {
	tab := NewTable()
	mustInsert(t, tab, "0.0.0.0/0", 99, Tier1)
	r, ok := tab.Lookup(netip.MustParseAddr("203.0.113.9"))
	if !ok || r.OriginAS != 99 {
		t.Errorf("default route: %+v, ok=%v", r, ok)
	}
}

func TestLookup4In6(t *testing.T) {
	tab := NewTable()
	mustInsert(t, tab, "192.0.2.0/24", 7, Tier2)
	r, ok := tab.Lookup(netip.MustParseAddr("::ffff:192.0.2.5"))
	if !ok || r.OriginAS != 7 {
		t.Errorf("4-in-6 lookup: %+v ok=%v", r, ok)
	}
}

func TestLookupIPv6ExactFallback(t *testing.T) {
	tab := NewTable()
	mustInsert(t, tab, "2001:db8::/32", 8, Tier1)
	r, ok := tab.Lookup(netip.MustParseAddr("2001:db8::1234"))
	if !ok || r.OriginAS != 8 {
		t.Errorf("IPv6 lookup: %+v ok=%v", r, ok)
	}
	if _, ok := tab.Lookup(netip.MustParseAddr("2001:db9::1")); ok {
		t.Error("IPv6 miss matched")
	}
}

func TestInsertReplaces(t *testing.T) {
	tab := NewTable()
	mustInsert(t, tab, "10.0.0.0/8", 1, Tier1)
	mustInsert(t, tab, "10.0.0.0/8", 2, Tier2)
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after replacement", tab.Len())
	}
	r, _ := tab.Lookup(netip.MustParseAddr("10.0.0.1"))
	if r.OriginAS != 2 {
		t.Errorf("AS = %d, want 2 (replaced)", r.OriginAS)
	}
}

func TestInsertMasksHostBits(t *testing.T) {
	tab := NewTable()
	mustInsert(t, tab, "10.1.2.3/16", 5, Tier1) // host bits set
	r, ok := tab.Lookup(netip.MustParseAddr("10.1.99.99"))
	if !ok || r.Prefix != netip.MustParsePrefix("10.1.0.0/16") {
		t.Errorf("masked insert: %+v ok=%v", r, ok)
	}
}

func TestInsertInvalidPrefix(t *testing.T) {
	if err := NewTable().Insert(Route{}); err == nil {
		t.Error("zero prefix accepted")
	}
}

// linearLookup is the reference longest-prefix match: a scan over every
// route, keeping the longest one that contains addr.
func linearLookup(routes []Route, addr netip.Addr) (Route, bool) {
	best := -1
	for i, r := range routes {
		if r.Prefix.Contains(addr) && (best < 0 || r.Prefix.Bits() > routes[best].Prefix.Bits()) {
			best = i
		}
	}
	if best < 0 {
		return Route{}, false
	}
	return routes[best], true
}

// checkLookup fails t unless tab.Lookup(addr) equals the linear scan.
func checkLookup(t *testing.T, tab *Table, addr netip.Addr) {
	t.Helper()
	got, gotOK := tab.Lookup(addr)
	want, wantOK := linearLookup(tab.Routes(), addr)
	if gotOK != wantOK || got != want {
		t.Fatalf("Lookup(%v) = %+v ok=%v, linear scan = %+v ok=%v", addr, got, gotOK, want, wantOK)
	}
}

// u32Addr converts a 32-bit value to its IPv4 address.
func u32Addr(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// checkCompiled verifies the layout invariants of tab's compiled ranges:
// starts begin at 0 and strictly increase, neighbouring ranges carry
// different routes, and first[h] is the range holding h<<16.
func checkCompiled(t *testing.T, tab *Table) {
	t.Helper()
	tab.Lookup(u32Addr(0))
	rt := tab.v4.Load()
	if len(rt.starts) == 0 || rt.starts[0] != 0 || len(rt.route) != len(rt.starts) {
		t.Fatalf("compiled table: %d starts, %d routes, or first start is not 0", len(rt.starts), len(rt.route))
	}
	for i := 1; i < len(rt.starts); i++ {
		if rt.starts[i] <= rt.starts[i-1] || rt.route[i] == rt.route[i-1] {
			t.Fatalf("ranges %d,%d: starts %d,%d routes %d,%d", i-1, i,
				rt.starts[i-1], rt.starts[i], rt.route[i-1], rt.route[i])
		}
	}
	for h := 0; h < 1<<16; h++ {
		r, a := rt.first[h], uint32(h)<<16
		if rt.starts[r] > a || (int(r)+1 < len(rt.starts) && rt.starts[r+1] <= a) {
			t.Fatalf("first[%d] = %d does not hold %v", h, r, u32Addr(a))
		}
	}
	if int(rt.first[1<<16]) != len(rt.starts)-1 {
		t.Fatalf("first[65536] = %d, want %d", rt.first[1<<16], len(rt.starts)-1)
	}
}

// checkRouteEdges checks the compiled layout, then probes, for every
// IPv4 route, its first and last address and the addresses just outside
// it, plus both ends of the address space, against the linear scan.
func checkRouteEdges(t *testing.T, tab *Table) {
	t.Helper()
	checkCompiled(t, tab)
	checkLookup(t, tab, u32Addr(0))
	checkLookup(t, tab, u32Addr(^uint32(0)))
	for _, r := range tab.Routes() {
		if !r.Prefix.Addr().Is4() {
			continue
		}
		first := v4bits(r.Prefix.Addr())
		last := first | uint32(uint64(1)<<(32-r.Prefix.Bits())-1)
		for _, a := range []uint32{first, last, first - 1, last + 1} {
			checkLookup(t, tab, u32Addr(a))
		}
	}
}

// TestLookupAgainstLinearScan cross-checks Lookup against a brute-force
// longest-prefix match over a generated table, at random probes and at
// the edges of every route.
func TestLookupAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	tab, err := Generate(GenConfig{Routes: 2000, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	routes := tab.Routes()
	for i := 0; i < 3000; i++ {
		var addr netip.Addr
		if i%2 == 0 {
			// Probe inside a random route for guaranteed hits.
			addr = RandomAddrInPrefix(rng, routes[rng.Intn(len(routes))].Prefix)
		} else {
			var b [4]byte
			rng.Read(b[:])
			addr = netip.AddrFrom4(b)
		}
		checkLookup(t, tab, addr)
	}
	checkRouteEdges(t, tab)
}

// TestLookupRangeEdges pins the compiled table on hand-built shapes:
// default and host routes, nested chains, adjacent siblings and routes
// touching either end of the address space.
func TestLookupRangeEdges(t *testing.T) {
	cases := map[string][]string{
		"empty":          nil,
		"default only":   {"0.0.0.0/0"},
		"host routes":    {"0.0.0.0/32", "255.255.255.255/32", "10.0.0.1/32"},
		"nested chain":   {"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.3/32"},
		"chain at start": {"0.0.0.0/0", "0.0.0.0/8", "0.0.0.0/16", "0.0.0.0/24", "0.0.0.0/32"},
		"chain at end":   {"255.0.0.0/8", "255.255.0.0/16", "255.255.255.0/24", "255.255.255.255/32"},
		"siblings":       {"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/23", "10.0.4.0/22"},
		"nested siblings": {
			"0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/9", "10.128.0.0/9",
			"10.128.0.0/10", "10.192.0.0/10", "10.255.255.254/31",
		},
		"straddles /16": {"10.0.0.0/15", "10.0.255.0/24", "10.1.0.0/24"},
	}
	for name, prefixes := range cases {
		t.Run(name, func(t *testing.T) {
			tab := NewTable()
			for i, p := range prefixes {
				mustInsert(t, tab, p, uint32(i+1), Tier1)
			}
			checkRouteEdges(t, tab)
		})
	}
}

// TestInsertAfterLookup: an Insert on a table that has already compiled
// its lookup structure must be visible to the next Lookup, whether it
// replaces a route or adds a more specific one.
func TestInsertAfterLookup(t *testing.T) {
	tab := NewTable()
	mustInsert(t, tab, "10.0.0.0/8", 1, Tier1)
	checkRouteEdges(t, tab)
	mustInsert(t, tab, "10.0.0.0/8", 2, Tier2)
	checkRouteEdges(t, tab)
	if r, _ := tab.Lookup(netip.MustParseAddr("10.9.9.9")); r.OriginAS != 2 {
		t.Errorf("replaced route: AS%d, want AS2", r.OriginAS)
	}
	mustInsert(t, tab, "10.9.0.0/16", 3, Tier3)
	checkRouteEdges(t, tab)
	if r, _ := tab.Lookup(netip.MustParseAddr("10.9.9.9")); r.OriginAS != 3 {
		t.Errorf("more specific route: AS%d, want AS3", r.OriginAS)
	}

	// The same holds for tables built by ReadText and Generate, which
	// compile before they return.
	gen, err := Generate(GenConfig{Routes: 300, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	r0 := gen.Routes()[0]
	mustInsert(t, gen, r0.Prefix.String(), 7, Tier1)
	if bits := r0.Prefix.Bits(); bits < 32 {
		sub, _ := r0.Prefix.Addr().Prefix(bits + 1)
		mustInsert(t, gen, sub.String(), 8, Tier2)
	}
	checkRouteEdges(t, gen)
}

// TestZeroValueTable: the documented zero value is an empty table that
// accepts Insert.
func TestZeroValueTable(t *testing.T) {
	var tab Table
	if _, ok := tab.Lookup(netip.MustParseAddr("10.0.0.1")); ok {
		t.Error("lookup in zero-value table succeeded")
	}
	mustInsert(t, &tab, "10.0.0.0/8", 1, Tier1)
	mustInsert(t, &tab, "2001:db8::/32", 2, Tier1)
	if r, ok := tab.Lookup(netip.MustParseAddr("10.0.0.1")); !ok || r.OriginAS != 1 {
		t.Errorf("IPv4 lookup after Insert: %+v ok=%v", r, ok)
	}
	if r, ok := tab.Lookup(netip.MustParseAddr("2001:db8::1")); !ok || r.OriginAS != 2 {
		t.Errorf("IPv6 lookup after Insert: %+v ok=%v", r, ok)
	}
}

// TestConcurrentFirstLookup: the first lookups on a freshly populated
// table race to compile it; all must agree with the linear scan (run
// under -race).
func TestConcurrentFirstLookup(t *testing.T) {
	src, err := Generate(GenConfig{Routes: 500, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable()
	for _, r := range src.Routes() {
		if err := tab.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 4
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			<-start
			for i := 0; i < 200; i++ {
				addr := RandomAddrInPrefix(rng, tab.Routes()[rng.Intn(tab.Len())].Prefix)
				got, gotOK := tab.Lookup(addr)
				want, wantOK := linearLookup(tab.Routes(), addr)
				if gotOK != wantOK || got != want {
					t.Errorf("Lookup(%v) = %+v ok=%v, linear scan = %+v ok=%v", addr, got, gotOK, want, wantOK)
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
}

// TestLookupAllocs pins the hot-path contract: a lookup on a built table
// allocates nothing, for hits, misses and 4-in-6 addresses.
func TestLookupAllocs(t *testing.T) {
	tab, err := Generate(GenConfig{Routes: 1000, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	addrs := []netip.Addr{
		RandomAddrInPrefix(rand.New(rand.NewSource(1)), tab.Routes()[0].Prefix),
		netip.MustParseAddr("10.0.0.1"), // reserved: never generated
		netip.MustParseAddr("::ffff:10.0.0.1"),
	}
	for _, a := range addrs {
		if n := testing.AllocsPerRun(100, func() { tab.Lookup(a) }); n != 0 {
			t.Errorf("Lookup(%v) allocates %v per call, want 0", a, n)
		}
	}
}

func TestTextRoundtrip(t *testing.T) {
	tab, err := Generate(GenConfig{Routes: 500, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tab.Len() {
		t.Fatalf("roundtrip Len = %d, want %d", back.Len(), tab.Len())
	}
	for _, r := range tab.Routes() {
		got, ok := back.Lookup(RandomAddrInPrefix(rand.New(rand.NewSource(1)), r.Prefix))
		if !ok {
			t.Fatalf("route %v lost in roundtrip", r.Prefix)
		}
		_ = got
	}
	// Spot-check exact attribute preservation.
	a, b := tab.Routes()[0], back.Routes()[0]
	if a.Prefix != b.Prefix || a.OriginAS != b.OriginAS || a.Tier != b.Tier {
		t.Errorf("first route changed: %+v vs %+v", a, b)
	}
}

func TestReadTextFormats(t *testing.T) {
	in := `
# comment line

10.0.0.0/8 100 tier1
192.0.2.0/24
198.51.100.0/24 65000
`
	tab, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tab.Len())
	}
	r, _ := tab.Lookup(netip.MustParseAddr("10.1.1.1"))
	if r.OriginAS != 100 || r.Tier != Tier1 {
		t.Errorf("full line: %+v", r)
	}
	r, _ = tab.Lookup(netip.MustParseAddr("192.0.2.1"))
	if r.OriginAS != 0 || r.Tier != TierUnknown {
		t.Errorf("prefix-only line: %+v", r)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"bad prefix": "not-a-prefix 1 tier1",
		"bad AS":     "10.0.0.0/8 xyz tier1",
		"AS suffix":  "10.0.0.0/8 12abc tier1",
		"AS hex":     "10.0.0.0/8 0x10 tier1",
		"AS range":   "10.0.0.0/8 4294967296 tier1",
		"bad tier":   "10.0.0.0/8 1 tier9",
	}
	for name, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestTierRoundtrip(t *testing.T) {
	for _, tier := range []Tier{TierUnknown, Tier1, Tier2, Tier3} {
		got, err := ParseTier(tier.String())
		if err != nil {
			t.Errorf("ParseTier(%q): %v", tier.String(), err)
		}
		if got != tier {
			t.Errorf("roundtrip %v -> %v", tier, got)
		}
	}
	if _, err := ParseTier("gibberish"); err == nil {
		t.Error("ParseTier accepted gibberish")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(GenConfig{Routes: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(GenConfig{Routes: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Routes() {
		if a.Routes()[i] != b.Routes()[i] {
			t.Fatalf("route %d differs: %+v vs %+v", i, a.Routes()[i], b.Routes()[i])
		}
	}
	c, err := Generate(GenConfig{Routes: 300, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Routes() {
		if a.Routes()[i] != c.Routes()[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical tables")
	}
}

func TestGenerateLengthMix(t *testing.T) {
	tab, err := Generate(GenConfig{Routes: 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h := tab.PrefixLengthHistogram()
	// /24 must dominate (≈44% of the 2001 mix).
	frac24 := float64(h[24]) / float64(tab.Len())
	if frac24 < 0.35 || frac24 > 0.55 {
		t.Errorf("/24 fraction = %.3f, want ≈ 0.44", frac24)
	}
	// /16 is the secondary mode.
	if h[16] < h[15] || h[16] < h[17] {
		t.Errorf("/16 not a local mode: /15=%d /16=%d /17=%d", h[15], h[16], h[17])
	}
	// A thin but non-empty population of /8s.
	if h[8] == 0 {
		t.Error("no /8 routes generated")
	}
	if h[8] > tab.Len()/100 {
		t.Errorf("/8 routes = %d, expected a thin population", h[8])
	}
	// No prefixes outside 8..32.
	for l := 0; l < 8; l++ {
		if h[l] != 0 {
			t.Errorf("unexpected /%d routes: %d", l, h[l])
		}
	}
}

func TestGenerateTierASRanges(t *testing.T) {
	tab, err := Generate(GenConfig{Routes: 5000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var n1, n2, n3 int
	for _, r := range tab.Routes() {
		switch r.Tier {
		case Tier1:
			n1++
			if r.OriginAS < 100 || r.OriginAS > 199 {
				t.Fatalf("tier1 route with AS %d", r.OriginAS)
			}
		case Tier2:
			n2++
			if r.OriginAS < 1000 || r.OriginAS > 4999 {
				t.Fatalf("tier2 route with AS %d", r.OriginAS)
			}
		case Tier3:
			n3++
			if r.OriginAS < 10000 {
				t.Fatalf("tier3 route with AS %d", r.OriginAS)
			}
		default:
			t.Fatalf("generated route with unknown tier: %+v", r)
		}
	}
	// Roughly 15/35/50.
	tot := float64(n1 + n2 + n3)
	if f := float64(n1) / tot; f < 0.10 || f > 0.20 {
		t.Errorf("tier1 share = %.3f, want ≈ 0.15", f)
	}
	if f := float64(n3) / tot; f < 0.42 || f > 0.58 {
		t.Errorf("tier3 share = %.3f, want ≈ 0.50", f)
	}
}

func TestGenerateAvoidsReservedSpace(t *testing.T) {
	tab, err := Generate(GenConfig{Routes: 5000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Routes() {
		b := r.Prefix.Addr().As4()
		if b[0] == 0 || b[0] == 10 || b[0] == 127 || b[0] >= 224 {
			t.Fatalf("route in reserved space: %v", r.Prefix)
		}
		if b[0] == 192 && b[1] == 168 {
			t.Fatalf("route in 192.168/16: %v", r.Prefix)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(GenConfig{Routes: 0}); err == nil {
		t.Error("Routes=0 accepted")
	}
	if _, err := Generate(GenConfig{Routes: 10, LengthWeights: map[int]float64{40: 1}}); err == nil {
		t.Error("invalid length weight accepted")
	}
	if _, err := Generate(GenConfig{Routes: 10, LengthWeights: map[int]float64{24: 0}}); err == nil {
		t.Error("zero-sum weights accepted")
	}
}

func TestRandomAddrInPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		plen := 8 + r.Intn(25)
		var b [4]byte
		rng.Read(b[:])
		p, err := netip.AddrFrom4(b).Prefix(plen)
		if err != nil {
			return true
		}
		for i := 0; i < 16; i++ {
			if !p.Contains(RandomAddrInPrefix(rng, p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSortedPrefixes(t *testing.T) {
	tab, err := Generate(GenConfig{Routes: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ps := tab.SortedPrefixes()
	if len(ps) != tab.Len() {
		t.Fatalf("len = %d, want %d", len(ps), tab.Len())
	}
	for i := 1; i < len(ps); i++ {
		c := ps[i-1].Addr().Compare(ps[i].Addr())
		if c > 0 || (c == 0 && ps[i-1].Bits() > ps[i].Bits()) {
			t.Fatalf("not sorted at %d: %v then %v", i, ps[i-1], ps[i])
		}
	}
}
