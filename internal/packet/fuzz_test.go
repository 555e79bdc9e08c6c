package packet

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// Every decoder is fuzzed for two properties: arbitrary input never
// panics, and whatever decodes survives the wire — encoding the decoded
// value yields exactly EncodedSize bytes, which decode back to an equal
// value, consuming all of them. The seed corpus is the encodings the
// round-trip tests build.

// fuzzRoundTrip runs the shared property over one decoder/encoder pair.
func fuzzRoundTrip[T any](f *testing.F, seeds [][]byte,
	decode func([]byte) (T, int, error), encode func(T) ([]byte, error), size func(T) int) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v, n, err := decode(b)
		if err != nil {
			return
		}
		if n < 0 || n > len(b) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(b))
		}
		enc, err := encode(v)
		if err != nil {
			t.Fatalf("re-encoding a decoded value failed: %v (%+v)", err, v)
		}
		if len(enc) != size(v) {
			t.Fatalf("encoded %d bytes, EncodedSize says %d", len(enc), size(v))
		}
		w, m, err := decode(enc)
		if err != nil || m != len(enc) {
			t.Fatalf("re-decode: consumed %d of %d, err %v", m, len(enc), err)
		}
		if !reflect.DeepEqual(v, w) {
			t.Fatalf("round trip changed the value:\n%+v\n%+v", v, w)
		}
	})
}

// mustEncode unwraps an encoder for seed construction.
func mustEncode(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

func FuzzDecodeMOREHeader(f *testing.F) {
	seeds := [][]byte{
		mustEncode((&MOREHeader{
			Type: TypeData, FlowID: 42, SrcHash: NodeHash(0), DstHash: NodeHash(19), BatchID: 7,
			CodeVector: []byte{1, 2, 3, 0, 255},
			Forwarders: []Forwarder{{Node: 3, Credit: CreditToWire(1.5)}, {Node: 9, Credit: CreditToWire(0.25)}},
		}).Encode(nil)),
		mustEncode((&MOREHeader{Type: TypeData, CodeVector: make([]byte, 32), Forwarders: make([]Forwarder, MaxForwarders)}).Encode(nil)),
		mustEncode((&MOREHeader{Type: TypeACK}).Encode(nil)),
	}
	fuzzRoundTrip(f, seeds, DecodeMOREHeader,
		func(h *MOREHeader) ([]byte, error) { return h.Encode(nil) },
		func(h *MOREHeader) int { return h.EncodedSize() })
}

func FuzzDecodeACK(f *testing.F) {
	seeds := [][]byte{(&ACK{FlowID: 5, BatchID: 17, Final: true}).Encode(nil), (&ACK{}).Encode(nil)}
	fuzzRoundTrip(f, seeds, DecodeACK,
		func(a *ACK) ([]byte, error) { return a.Encode(nil), nil },
		func(a *ACK) int { return a.EncodedSize() })
}

func FuzzDecodeExORHeader(f *testing.F) {
	h := &ExORHeader{
		FlowID: 9, BatchID: 3, PktIdx: 12, BatchSize: 32, FragRemaining: 4, SenderPrio: 2,
		BatchMap:   bytes.Repeat([]byte{BatchMapUnknown}, 32),
		Forwarders: []uint8{NodeHash(1), NodeHash(2)},
	}
	h.BatchMap[3] = 1
	seeds := [][]byte{mustEncode(h.Encode(nil)), mustEncode((&ExORHeader{}).Encode(nil))}
	fuzzRoundTrip(f, seeds, DecodeExORHeader,
		func(h *ExORHeader) ([]byte, error) { return h.Encode(nil) },
		func(h *ExORHeader) int { return h.EncodedSize() })
}

func FuzzDecodeSrcrHeader(f *testing.F) {
	seeds := [][]byte{
		mustEncode((&SrcrHeader{FlowID: 1, Seq: 999, Hop: 1, Route: []graph.NodeID{4, 7, 2}}).Encode(nil)),
		mustEncode((&SrcrHeader{}).Encode(nil)),
	}
	fuzzRoundTrip(f, seeds, DecodeSrcrHeader,
		func(h *SrcrHeader) ([]byte, error) { return h.Encode(nil) },
		func(h *SrcrHeader) int { return h.EncodedSize() })
}

func FuzzDecodeProbe(f *testing.F) {
	seeds := [][]byte{(&Probe{Origin: 13, Seq: 77, Window: 100}).Encode(nil)}
	fuzzRoundTrip(f, seeds, DecodeProbe,
		func(p *Probe) ([]byte, error) { return p.Encode(nil), nil },
		func(p *Probe) int { return p.EncodedSize() })
}

func FuzzDecodeLSA(f *testing.F) {
	var seeds [][]byte
	for _, l := range []*LSA{
		{Origin: 7, Seq: 42, Neighbors: []graph.NodeID{1, 3, 9}, Probs: []uint8{QuantizeProb(0.9), QuantizeProb(0.5), QuantizeProb(0.1)}},
		{Origin: 7, Seq: 42, Neighbors: []graph.NodeID{1, 3}, Probs: []uint8{200, 25}, TTL: 2},
		{Origin: 7, Seq: 42, Neighbors: []graph.NodeID{1, 3}, Probs: []uint8{200, 25}, Load: 90, TTL: 255},
		{Origin: 3, Seq: 1},
	} {
		seeds = append(seeds, mustEncode(l.Encode(nil)))
	}
	fuzzRoundTrip(f, seeds, DecodeLSA,
		func(l *LSA) ([]byte, error) { return l.Encode(nil) },
		func(l *LSA) int { return l.EncodedSize() })
}
