package asgraph

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// The native text format is line oriented:
//
//	# comments and blank lines are ignored
//	as <asn>                       (declares an AS; needed only for
//	                                ASes that appear on no edge)
//	edge <providerASN> <customerASN> p2c
//	edge <asnA> <asnB> p2p
//	cp <asn>
//	weight <asn> <float>
//
// It round-trips exactly through Write/Read. For interoperability,
// ParseCAIDA reads the CAIDA AS-relationship format
// (`<a>|<b>|-1` provider-customer, `<a>|<b>|0` peering).

// Write serializes g in the native text format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# sbgp topology: %d ASes\n", g.N())
	for i := int32(0); i < int32(g.N()); i++ {
		if g.Degree(i) == 0 {
			fmt.Fprintf(bw, "as %d\n", g.ASN(i))
		}
	}
	for i := int32(0); i < int32(g.N()); i++ {
		for _, c := range g.Customers(i) {
			fmt.Fprintf(bw, "edge %d %d p2c\n", g.ASN(i), g.ASN(c))
		}
		for _, p := range g.Peers(i) {
			if i < p { // emit each peering once
				fmt.Fprintf(bw, "edge %d %d p2p\n", g.ASN(i), g.ASN(p))
			}
		}
	}
	for _, cp := range g.Nodes(ContentProvider) {
		fmt.Fprintf(bw, "cp %d\n", g.ASN(cp))
	}
	for i := int32(0); i < int32(g.N()); i++ {
		if w := g.Weight(i); w != 1 {
			fmt.Fprintf(bw, "weight %d %g\n", g.ASN(i), w)
		}
	}
	return bw.Flush()
}

// Fingerprint returns a SHA-256 digest (hex) of g's canonical text
// serialization — structure, classes, weights and ASN labels. Because
// Build assigns node indices in ascending ASN order, two graphs with
// equal fingerprints are identical down to node indices, so results of
// index-dependent computations (routing, simulation) transfer between
// them. It is the graph half of content-addressed cache keys.
func Fingerprint(g *Graph) string {
	h := sha256.New()
	// Write only fails when the underlying writer fails; hashes don't.
	if err := Write(h, g); err != nil {
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// WriteFile serializes g to the named file.
func WriteFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := Write(f, g); err != nil {
		return err
	}
	return f.Sync()
}

// Read parses the native text format and builds the graph.
func Read(r io.Reader) (*Graph, error) {
	b := NewBuilder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "as":
			if len(f) != 2 {
				return nil, fmt.Errorf("line %d: as wants 1 arg", lineno)
			}
			a, err := parseASN(f[1])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad ASN", lineno)
			}
			b.AddAS(a)
		case "edge":
			if len(f) != 4 {
				return nil, fmt.Errorf("line %d: edge wants 3 args", lineno)
			}
			a, err1 := parseASN(f[1])
			c, err2 := parseASN(f[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("line %d: bad ASN", lineno)
			}
			switch f[3] {
			case "p2c":
				b.AddCustomer(a, c)
			case "p2p":
				b.AddPeer(a, c)
			default:
				return nil, fmt.Errorf("line %d: unknown edge kind %q", lineno, f[3])
			}
		case "cp":
			if len(f) != 2 {
				return nil, fmt.Errorf("line %d: cp wants 1 arg", lineno)
			}
			a, err := parseASN(f[1])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad ASN", lineno)
			}
			b.MarkCP(a)
		case "weight":
			if len(f) != 3 {
				return nil, fmt.Errorf("line %d: weight wants 2 args", lineno)
			}
			a, err := parseASN(f[1])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad ASN", lineno)
			}
			w, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad weight: %v", lineno, err)
			}
			// A weight is a traffic volume. NaN, ±Inf and negatives
			// (-0 included: the engine's sidecar replay relies on no
			// accumulator ever holding -0.0) are rejected here rather
			// than poisoning every utility downstream.
			if math.IsNaN(w) || math.IsInf(w, 0) || math.Signbit(w) {
				return nil, fmt.Errorf("line %d: weight %s is not a finite non-negative number", lineno, f[2])
			}
			b.SetWeight(a, w)
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineno, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build()
}

// ReadFile parses the named file in the native text format.
func ReadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// ParseCAIDA reads the CAIDA serial-1 AS-relationship format:
// lines `<a>|<b>|-1` (a is provider of b) and `<a>|<b>|0` (peering);
// `#` comments are skipped. Classes are derived (no-customer ASes become
// stubs); mark CPs afterwards via a Builder if needed.
func ParseCAIDA(r io.Reader) (*Graph, error) {
	b := NewBuilder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "|")
		if len(parts) < 3 {
			return nil, fmt.Errorf("line %d: want a|b|rel", lineno)
		}
		a, err1 := parseASN(parts[0])
		c, err2 := parseASN(parts[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("line %d: bad ASN", lineno)
		}
		switch parts[2] {
		case "-1":
			b.AddCustomer(a, c)
		case "0":
			b.AddPeer(a, c)
		default:
			return nil, fmt.Errorf("line %d: unknown relationship %q", lineno, parts[2])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build()
}

func parseASN(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		return 0, err
	}
	return int32(v), nil
}
