package packet

// Closed-form frame sizes. The simulator charges every frame its on-air
// size; these functions give that size from the header's shape alone, so
// the per-frame hot path never builds a throwaway header just to measure
// it. size_test.go pins each one to len(Encode(nil)) of a real header.

// ackBodySize is the encoded size of an ACK body.
const ackBodySize = 9

// MOREDataSize is the encoded size of a MORE data header carrying a
// k-coefficient code vector and nfwd forwarder entries.
func MOREDataSize(k, nfwd int) int { return dataHeaderFixed + k + 3*nfwd }

// MOREACKSize is the encoded size of a MORE batch ACK: a data-less MORE
// header (Type ACK, empty vector and forwarder list) plus the ACK body.
const MOREACKSize = dataHeaderFixed + ackBodySize

// ExORDataSize is the encoded size of an ExOR header with a k-entry batch
// map and nfwd forwarder hashes.
func ExORDataSize(k, nfwd int) int { return 4 + 4 + 1 + 1 + 1 + 1 + 1 + k + 1 + nfwd }

// SrcrSize is the encoded size of a Srcr source-route header recording
// hops route entries.
func SrcrSize(hops int) int { return 4 + 4 + 1 + 1 + 2*hops }
