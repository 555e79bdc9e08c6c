package packet

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestClosedFormSizesMatchEncoding checks every closed-form size function
// against the length of a real header's encoding, over random shapes.
func TestClosedFormSizesMatchEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	enc := func(b []byte, err error) int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return len(b)
	}
	for i := 0; i < 500; i++ {
		k, nfwd, hops := rng.Intn(256), rng.Intn(256), rng.Intn(256)
		cases := []struct {
			name      string
			got, want int
		}{
			{"MOREDataSize", MOREDataSize(k, nfwd), enc((&MOREHeader{
				Type: TypeData, CodeVector: make([]byte, k), Forwarders: make([]Forwarder, nfwd),
			}).Encode(nil))},
			{"MOREACKSize", MOREACKSize, enc((&MOREHeader{Type: TypeACK}).Encode(nil)) +
				len((&ACK{FlowID: uint32(k), BatchID: uint32(nfwd)}).Encode(nil))},
			{"ExORDataSize", ExORDataSize(k, nfwd), enc((&ExORHeader{
				BatchMap: make([]uint8, k), Forwarders: make([]uint8, nfwd),
			}).Encode(nil))},
			{"SrcrSize", SrcrSize(hops), enc((&SrcrHeader{Route: make([]graph.NodeID, hops)}).Encode(nil))},
		}
		for _, c := range cases {
			if c.got != c.want {
				t.Fatalf("%s (k=%d nfwd=%d hops=%d) = %d, encoding is %d bytes",
					c.name, k, nfwd, hops, c.got, c.want)
			}
		}
	}
}
