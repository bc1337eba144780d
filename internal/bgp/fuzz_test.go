package bgp

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
)

// FuzzReadText drives the table parser with arbitrary text: no panics,
// and accepted tables must survive a write/read roundtrip.
func FuzzReadText(f *testing.F) {
	f.Add("10.0.0.0/8 100 tier1\n192.0.2.0/24 65000 tier3\n")
	f.Add("# comment\n\n198.51.100.0/24\n")
	f.Add("garbage\n")
	f.Add("10.0.0.0/8 -1 tier1\n")
	f.Add("10.0.0.0/8 12abc tier1\n")
	f.Add("10.0.0.0/8 0x10 tier1\n")

	f.Fuzz(func(t *testing.T, text string) {
		tab, err := ReadText(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tab.WriteText(&buf); err != nil {
			t.Fatalf("write of accepted table failed: %v", err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-read of written table failed: %v", err)
		}
		if back.Len() != tab.Len() {
			t.Fatalf("roundtrip length %d != %d", back.Len(), tab.Len())
		}
	})
}

// FuzzLookup checks longest-prefix match on arbitrary small IPv4 prefix
// sets against the linear scan. routes packs up to 16 prefixes, five
// bytes each (four address bytes, then the length modulo 33); addr is
// the probe, which is also checked at every route's edges.
func FuzzLookup(f *testing.F) {
	f.Add([]byte{10, 0, 0, 0, 8, 10, 1, 0, 0, 16, 10, 1, 2, 0, 24, 10, 1, 2, 3, 32}, uint32(0x0a010203))
	f.Add([]byte{0, 0, 0, 0, 0, 255, 255, 255, 255, 32}, uint32(0xffffffff))
	f.Add([]byte{10, 0, 0, 0, 24, 10, 0, 1, 0, 24}, uint32(0x0a0000ff))
	f.Add([]byte{}, uint32(0))

	f.Fuzz(func(t *testing.T, routes []byte, addr uint32) {
		tab := NewTable()
		for i := 0; i+5 <= len(routes) && i < 16*5; i += 5 {
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte(routes[i:i+4])), int(routes[i+4])%33)
			if err := tab.Insert(Route{Prefix: p, OriginAS: uint32(i)}); err != nil {
				t.Fatalf("Insert(%v): %v", p, err)
			}
		}
		checkLookup(t, tab, u32Addr(addr))
		checkRouteEdges(t, tab)
	})
}
