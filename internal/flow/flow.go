// Package flow holds the pieces shared by all three protocols under test:
// deterministic file workloads, transfer results, and the link-state oracle
// that stands in for the ETX measurement + dissemination machinery the paper
// runs before each experiment (§4.1.2).
package flow

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
)

// ID identifies a flow end to end.
type ID uint32

// File is a deterministic pseudorandom workload split into packets. Its
// contents are never stored: packet i is a pure function of (Seed, i), so
// a source generates each packet when it sends it and a sink verifies a
// delivery by regenerating the expected bytes, and neither holds the file.
type File struct {
	Seed    int64
	Bytes   int
	PktSize int
}

// NewFile describes a file of the given size carried in pktSize-byte
// packets (the paper transfers 5 MB files in 1500 B packets).
func NewFile(bytes, pktSize int, seed int64) File {
	return File{Seed: seed, Bytes: bytes, PktSize: pktSize}
}

// NumPackets returns the number of packets the file splits into.
func (f File) NumPackets() int {
	return (f.Bytes + f.PktSize - 1) / f.PktSize
}

// TailSize returns the size of the final packet's payload: PktSize for an
// aligned file, the remainder otherwise.
func (f File) TailSize() int {
	if rem := f.Bytes % f.PktSize; rem != 0 {
		return rem
	}
	return f.PktSize
}

// PacketLen returns the payload size of packet i: PktSize, except that the
// final packet carries exactly TailSize bytes — never padding, so
// byte-based delivery accounting and content verification see the real
// file. (Protocols that need fixed-size symbols — MORE's network coding —
// pad internally on the wire and strip the padding at delivery.) It is 0
// for an index outside the file.
func (f File) PacketLen(i int) int {
	n := f.NumPackets()
	switch {
	case i < 0 || i >= n:
		return 0
	case i == n-1:
		return f.TailSize()
	}
	return f.PktSize
}

// Packet returns a freshly allocated copy of packet i's payload. Every call
// returns identical contents.
func (f File) Packet(i int) []byte {
	return f.AppendPacket(make([]byte, 0, f.PacketLen(i)), i)
}

// AppendPacket appends packet i's payload to dst and returns the result;
// appending to a reused buffer's [:0] allocates nothing.
func (f File) AppendPacket(dst []byte, i int) []byte {
	n := f.PacketLen(i)
	s := f.stream(i)
	for ; n >= 8; n -= 8 {
		dst = binary.LittleEndian.AppendUint64(dst, s.next())
	}
	if n > 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], s.next())
		dst = append(dst, w[:n]...)
	}
	return dst
}

// Verify reports whether got is exactly packet i's payload: the right
// length and the right bytes. It regenerates the expected bytes word by
// word and allocates nothing. An index outside the file never verifies.
func (f File) Verify(i int, got []byte) bool {
	n := f.PacketLen(i)
	if n == 0 || len(got) != n {
		return false
	}
	s := f.stream(i)
	for ; len(got) >= 8; got = got[8:] {
		if binary.LittleEndian.Uint64(got) != s.next() {
			return false
		}
	}
	if len(got) > 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], s.next())
		return bytes.Equal(got, w[:len(got)])
	}
	return true
}

// Payloads materializes every packet payload, as a loop over Packet. The
// payloads carry exactly Bytes bytes in total (see PacketLen).
func (f File) Payloads() [][]byte {
	out := make([][]byte, f.NumPackets())
	for i := range out {
		out[i] = f.Packet(i)
	}
	return out
}

// splitmix64 is the keyed per-packet generator behind a File: a splitmix64
// stream (Steele, Lea & Flood, OOPSLA'14) whose starting state mixes the
// file seed with the packet index, so any packet is generated on its own
// in O(size) without replaying the ones before it.
type splitmix64 uint64

// stream returns packet i's generator.
func (f File) stream(i int) splitmix64 {
	return splitmix64(mix64(uint64(f.Seed) ^ mix64(uint64(i))))
}

// next advances the stream and returns its next 64-bit output.
func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	return mix64(uint64(*s))
}

// mix64 is splitmix64's output finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Result reports a transfer's outcome, common to MORE, ExOR, and Srcr runs.
type Result struct {
	Src, Dst graph.NodeID
	// PacketsDelivered counts native packets handed to the destination's
	// upper layer.
	PacketsDelivered int
	// PacketsTotal is the number of packets in the workload.
	PacketsTotal int
	// Completed reports whether the whole file arrived.
	Completed bool
	// Start and End bound the transfer (End is delivery of the last
	// packet, or the run deadline for incomplete transfers).
	Start, End sim.Time
	// Transmissions counts data-frame transmissions attributable to the
	// run (including MAC retries).
	Transmissions int64
	// Verified reports whether delivered payload bytes matched the file.
	Verified bool
}

// Duration returns the transfer's elapsed time.
func (r Result) Duration() sim.Time {
	if r.End <= r.Start {
		return 0
	}
	return r.End - r.Start
}

// Throughput returns delivered packets per second, the paper's throughput
// unit (Figures 4-2 … 4-7).
func (r Result) Throughput() float64 {
	d := r.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(r.PacketsDelivered) / d
}

// TxPerPacket returns data transmissions per delivered packet, the cost
// measure of Chapter 5.
func (r Result) TxPerPacket() float64 {
	if r.PacketsDelivered == 0 {
		return 0
	}
	return float64(r.Transmissions) / float64(r.PacketsDelivered)
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("flow %d->%d: %d/%d pkts in %v (%.1f pkt/s, %.2f tx/pkt, completed=%v)",
		r.Src, r.Dst, r.PacketsDelivered, r.PacketsTotal, r.Duration(),
		r.Throughput(), r.TxPerPacket(), r.Completed)
}

// RoutingState is the link-state view a protocol instance routes from: the
// loss-annotated topology it builds forwarder plans over, plus the cached
// shortest-path queries used for ACK routing and source routes. Two
// implementations exist. Oracle (below) is the global ground-truth table the
// paper's §4.1.2 pre-measurement step stands in for: one shared instance,
// perfect knowledge, Version forever 0. linkstate.View is the deployable
// alternative of §3.2.1(b): one instance per node, built solely from probes
// and LSA floods received over the air, re-converging as estimates drift —
// Version ticks on every recomputation so protocols know to refresh plans.
type RoutingState interface {
	// Graph returns the loss-annotated topology this view currently
	// believes in. Callers must treat it as read-only; implementations may
	// return a shared or cached instance.
	Graph() *graph.Topology
	// NextHop returns the best ETX next hop from cur toward dst, or -1
	// when dst is unreachable in this view (or cur == dst).
	NextHop(cur, dst graph.NodeID) graph.NodeID
	// Path returns the best ETX path from src to dst (inclusive), or nil.
	Path(src, dst graph.NodeID) []graph.NodeID
	// Version identifies the state generation. It increases whenever the
	// view's topology changes; a constant 0 marks a static view. Sources
	// compare it between batches to decide whether to rebuild their
	// forwarding plans.
	Version() uint64
}

// Oracle is the shared link-state view every node routes from. The paper
// measures pairwise delivery probabilities once and feeds the same values
// to Srcr, MORE, and ExOR; Oracle plays that role and caches the
// shortest-path tables protocols use for ACK routing and path selection.
// It implements RoutingState with perfect global knowledge and Version 0.
type Oracle struct {
	Topo *graph.Topology
	Opt  routing.ETXOptions

	tables  map[graph.NodeID]*routing.ETXTable
	version uint64
}

// NewOracle builds an oracle over the topology with the given ETX options.
func NewOracle(t *graph.Topology, opt routing.ETXOptions) *Oracle {
	return &Oracle{Topo: t, Opt: opt, tables: make(map[graph.NodeID]*routing.ETXTable)}
}

// Graph implements RoutingState: the ground-truth topology.
func (o *Oracle) Graph() *graph.Topology { return o.Topo }

// Version implements RoutingState. It stays 0 — the static perfect-oracle
// case — until Invalidate is called after a topology mutation.
func (o *Oracle) Version() uint64 { return o.version }

// Invalidate discards the cached shortest-path tables and bumps the state
// version, so protocols rebuild plans and routes at their next boundary.
// Scenario schedules call it after mutating the ground-truth topology
// mid-run (link degradation, node failure): the oracle abstraction is
// "everyone instantly knows the truth", so the truth changing must reach
// every consumer.
func (o *Oracle) Invalidate() {
	o.tables = make(map[graph.NodeID]*routing.ETXTable)
	o.version++
}

// Table returns (computing on first use) the ETX table toward dst.
func (o *Oracle) Table(dst graph.NodeID) *routing.ETXTable {
	tab, ok := o.tables[dst]
	if !ok {
		tab = routing.ETXToDestination(o.Topo, dst, o.Opt)
		o.tables[dst] = tab
	}
	return tab
}

// NextHop returns the best next hop from cur toward dst, or -1 if
// unreachable (or cur == dst).
func (o *Oracle) NextHop(cur, dst graph.NodeID) graph.NodeID {
	if cur == dst {
		return -1
	}
	return o.Table(dst).Next[cur]
}

// Path returns the best ETX path from src to dst.
func (o *Oracle) Path(src, dst graph.NodeID) []graph.NodeID {
	return o.Table(dst).Path(src)
}
