package asgraph

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// requireParsedGraphSound is the contract of both parsers on any input
// they accept: every weight is a traffic volume — finite and not
// negative, -0 included — and the graph round-trips through Write and
// Read to the same topology, bit-identical weights and the same
// fingerprint.
func requireParsedGraphSound(t *testing.T, g *Graph) {
	t.Helper()
	for i := int32(0); i < int32(g.N()); i++ {
		if w := g.Weight(i); math.IsNaN(w) || math.IsInf(w, 0) || math.Signbit(w) {
			t.Fatalf("AS %d parsed with weight %v", g.ASN(i), w)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	g2, err := Read(&buf)
	if err != nil {
		t.Fatalf("re-reading the written graph: %v\n%s", err, text)
	}
	if !SameTopology(g, g2) {
		t.Fatalf("round trip changed the topology\n%s", text)
	}
	for i := int32(0); i < int32(g.N()); i++ {
		if math.Float64bits(g.Weight(i)) != math.Float64bits(g2.Weight(i)) {
			t.Fatalf("round trip changed AS %d's weight %v to %v", g.ASN(i), g.Weight(i), g2.Weight(i))
		}
	}
	if Fingerprint(g) != Fingerprint(g2) {
		t.Fatalf("round trip changed the fingerprint\n%s", text)
	}
}

// FuzzRead: the native parser rejects any input with an error or
// returns a sound graph; it never panics.
func FuzzRead(f *testing.F) {
	for _, seed := range []string{
		"# sbgp topology\nedge 1 2 p2c\nedge 1 3 p2c\nedge 2 3 p2p\ncp 4\nedge 4 1 p2p\nweight 4 821.5\nas 9\n",
		"edge 1 2 p2c\nedge 2 3 p2c\nedge 3 1 p2c", // cyclic p2c (GR1)
		"edge 5 5 p2p", // self-loop
		"edge 5 5 p2c", // self-loop
		"edge 1 2 p2c\nedge 1 2 p2c\nedge 2 3 p2p\nedge 3 2 p2p", // duplicates
		"edge 1 2 p2c\nedge 1 2 p2p",                             // contradictory
		"edge 1 2 p2c\nedge 2 1 p2c",                             // mutual customers
		"as 2147483647\nas -2147483648",                          // int32 extremes
		"as 2147483648",                                          // ASN overflow
		"edge 99999999999 1 p2c",                                 // ASN overflow
		"as 1\nweight 1 NaN",                                     // NaN weight
		"as 1\nweight 1 -3",                                      // negative weight
		"as 1\nweight 1 -0",                                      // negative zero
		"as 1\nweight 1 +Inf",                                    // infinite weight
		"as 1\nweight 1 1e400",                                   // overflowing weight
		"as 1\nweight 1 0x1p-2",                                  // hex float
		"edge 1 2",                                               // truncated line
		"edge 1 2 p2",                                            // truncated kind
		"weight 1",                                               // truncated weight
		"cp 3\nedge 3 4 p2c",                                     // CP with a customer
		"edge\t1 2 p2c\r\n",                                      // odd whitespace
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		g, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		requireParsedGraphSound(t, g)
	})
}

// FuzzParseCAIDA: the CAIDA serial-1 parser rejects any input with an
// error or returns a sound graph; it never panics.
func FuzzParseCAIDA(f *testing.F) {
	for _, seed := range []string{
		"# serial-1\n1|2|-1\n1|3|-1\n2|3|0\n2|4|-1\n",
		"1|2|-1\n2|3|-1\n3|1|-1",       // cyclic p2c (GR1)
		"7|7|0",                        // self-loop
		"7|7|-1",                       // self-loop
		"1|2|-1\n1|2|-1\n2|3|0\n3|2|0", // duplicates
		"1|2|-1\n1|2|0",                // contradictory
		"1|2|-1\n2|1|-1",               // mutual customers
		"2147483648|1|-1",              // ASN overflow
		"-2147483648|2147483647|0",     // int32 extremes
		"1|2|-1|bgp",                   // serial-2 style source column
		"1|2",                          // truncated line
		"1|2|",                         // truncated relationship
		"1|2|1",                        // unknown relationship
		" 1|2|-1 ",                     // padding
		"1 |2|-1",                      // inner space
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ParseCAIDA(strings.NewReader(in))
		if err != nil {
			return
		}
		requireParsedGraphSound(t, g)
	})
}
