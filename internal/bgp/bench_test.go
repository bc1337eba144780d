package bgp

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
)

func benchTable(b *testing.B, routes int) *Table {
	b.Helper()
	t, err := Generate(GenConfig{Routes: routes, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return t
}

func BenchmarkLookupHit120k(b *testing.B) {
	t := benchTable(b, 120000)
	rng := rand.New(rand.NewSource(2))
	routes := t.Routes()
	probes := make([]netip.Addr, 4096)
	for i := range probes {
		probes[i] = RandomAddrInPrefix(rng, routes[rng.Intn(len(routes))].Prefix)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Lookup(probes[i%len(probes)]); !ok {
			b.Fatal("miss on guaranteed hit")
		}
	}
}

func BenchmarkLookupRandom120k(b *testing.B) {
	t := benchTable(b, 120000)
	rng := rand.New(rand.NewSource(3))
	probes := make([]netip.Addr, 4096)
	for i := range probes {
		var a [4]byte
		rng.Read(a[:])
		probes[i] = netip.AddrFrom4(a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(probes[i%len(probes)])
	}
}

func BenchmarkInsert(b *testing.B) {
	routes := benchTable(b, 50000).Routes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := NewTable()
		for _, r := range routes {
			if err := t.Insert(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(routes)), "routes/op")
}

func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(GenConfig{Routes: 60000, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookup60kWorkingSet is shaped like elephantd's hot-link
// ingest: a 60k-route table and 6.5k active destinations, one random
// host address inside each of 6.5k distinct routes, looked up in a fixed
// shuffled order.
func BenchmarkLookup60kWorkingSet(b *testing.B) {
	t := benchTable(b, 60000)
	rng := rand.New(rand.NewSource(4))
	routes := t.Routes()
	probes := make([]netip.Addr, 6500)
	for i, j := range rng.Perm(len(routes))[:len(probes)] {
		probes[i] = RandomAddrInPrefix(rng, routes[j].Prefix)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Lookup(probes[i%len(probes)]); !ok {
			b.Fatal("miss on guaranteed hit")
		}
	}
}

// BenchmarkReadText60k times loading a 60k-route table file, as
// elephantd does at start-up: parse every line and build the lookup
// structure.
func BenchmarkReadText60k(b *testing.B) {
	var buf bytes.Buffer
	if err := benchTable(b, 60000).WriteText(&buf); err != nil {
		b.Fatal(err)
	}
	text := buf.Bytes()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadText(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
