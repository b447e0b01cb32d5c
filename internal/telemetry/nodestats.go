// Cluster-wide telemetry aggregation (DESIGN.md §13): NodeStats is one
// node's compact wire snapshot of its registry — counters, per-stage
// histograms, and the transport's socket counters — and ClusterStats is
// the coordinator's merge of every node's deltas, keyed by node id.
//
// Nodes ship *deltas*, not absolutes: each fStats round a node encodes
// the difference between its current cumulative snapshot and the last
// one it shipped. Monotone fields (counters, bucket counts, sums, wire
// byte/frame counters) subtract cleanly and the coordinator adds them
// back, so the merge is commutative and order-independent — replaying
// the same deltas in any interleaving yields the same cluster snapshot
// (the merge-determinism test pins this). Watermark fields (histogram
// Max, queue high-water) are not differences of anything; they ship
// cumulative and merge by max, which is equally order-free.
package telemetry

import (
	"encoding/binary"
	"fmt"
)

// WireCounters is the transport's socket-level counter block as carried
// in a NodeStats snapshot. All fields but QueueHighWater are monotone;
// QueueHighWater is a watermark (the deepest outbound data queue ever
// observed at enqueue time) and merges by max.
type WireCounters struct {
	BytesSent, FramesSent int64
	BytesRecv, FramesRecv int64
	// Reconnects counts successful dials that replaced an earlier
	// connection to the same peer (initial connects are not reconnects).
	Reconnects int64
	// Drops counts envelopes abandoned at this layer: queue overflow
	// plus batches discarded on a write error. The engine's unacked
	// retry path re-sends every one of them.
	Drops int64
	// CRCDrops counts frames discarded for a checksum mismatch. The
	// stream stays frame-aligned through these, so only the damaged
	// frame is lost, not the connection.
	CRCDrops int64
	// DecodeErrors counts connections killed by stream desync: a
	// framing error or an envelope that failed to decode.
	DecodeErrors int64
	// QueueHighWater is the deepest outbound data queue observed at
	// enqueue time across all links — a watermark, not a counter. A
	// value near QueueDepth means workers spent time blocked on wire
	// backpressure.
	QueueHighWater int64
}

// numWireCounters is the wire field count of WireCounters; keep in sync
// with appendWire/decodeWire below.
const numWireCounters = 9

// StageSnapshot is one stage's cumulative histogram in a NodeStats
// record: bucket counts and sum are monotone, Max is a watermark.
type StageSnapshot struct {
	Sum     int64
	Max     int64
	Buckets [NumBuckets]int64
}

// Count returns the total observation count (the bucket sum).
func (s *StageSnapshot) Count() int64 {
	var n int64
	for _, b := range s.Buckets {
		n += b
	}
	return n
}

// Histogram converts the snapshot to the read-side Histogram type so
// the merged cluster view reuses Mean/Quantile.
func (s *StageSnapshot) Histogram() Histogram {
	h := Histogram{Sum: s.Sum, Max: s.Max, Buckets: s.Buckets}
	h.Count = s.Count()
	return h
}

// NodeStats is one node's telemetry snapshot (or snapshot delta) as
// shipped over the control lane's fStats round.
type NodeStats struct {
	Node     int
	Counters [NumCounters]int64
	Stages   [NumStages]StageSnapshot
	Wire     WireCounters
}

// nodeStatsVersion guards the fixed-layout codec: a peer built with a
// different counter or stage set fails loudly instead of misaligning.
const nodeStatsVersion = 1

// NodeStatsWireSize is the exact encoded size of one NodeStats record.
const NodeStatsWireSize = 1 + 4 +
	int(NumCounters)*8 +
	int(NumStages)*(2+NumBuckets)*8 +
	numWireCounters*8

// CollectNodeStats snapshots the registry's cumulative counters and
// stage histograms for node id. The wire block is the transport's to
// fill in; a registry knows nothing about sockets.
func (r *Registry) CollectNodeStats(node int) NodeStats {
	s := NodeStats{Node: node, Counters: r.CounterTotals()}
	if r.timing {
		for st := Stage(0); st < NumStages; st++ {
			h := r.StageHistogram(st)
			s.Stages[st] = StageSnapshot{Sum: h.Sum, Max: h.Max, Buckets: h.Buckets}
		}
	}
	return s
}

// DeltaFrom returns the delta to ship given the last shipped cumulative
// snapshot: monotone fields subtracted, watermark fields passed through
// cumulative (the receiver max-merges them).
func (s *NodeStats) DeltaFrom(last *NodeStats) NodeStats {
	d := NodeStats{Node: s.Node}
	for c := range s.Counters {
		d.Counters[c] = s.Counters[c] - last.Counters[c]
	}
	for st := range s.Stages {
		d.Stages[st].Sum = s.Stages[st].Sum - last.Stages[st].Sum
		d.Stages[st].Max = s.Stages[st].Max // watermark: cumulative
		for b := range s.Stages[st].Buckets {
			d.Stages[st].Buckets[b] = s.Stages[st].Buckets[b] - last.Stages[st].Buckets[b]
		}
	}
	d.Wire = WireCounters{
		BytesSent:      s.Wire.BytesSent - last.Wire.BytesSent,
		FramesSent:     s.Wire.FramesSent - last.Wire.FramesSent,
		BytesRecv:      s.Wire.BytesRecv - last.Wire.BytesRecv,
		FramesRecv:     s.Wire.FramesRecv - last.Wire.FramesRecv,
		Reconnects:     s.Wire.Reconnects - last.Wire.Reconnects,
		Drops:          s.Wire.Drops - last.Wire.Drops,
		CRCDrops:       s.Wire.CRCDrops - last.Wire.CRCDrops,
		DecodeErrors:   s.Wire.DecodeErrors - last.Wire.DecodeErrors,
		QueueHighWater: s.Wire.QueueHighWater, // watermark: cumulative
	}
	return d
}

// merge folds one delta into the accumulated per-node record.
func (s *NodeStats) merge(d *NodeStats) {
	for c := range s.Counters {
		s.Counters[c] += d.Counters[c]
	}
	for st := range s.Stages {
		s.Stages[st].Sum += d.Stages[st].Sum
		if d.Stages[st].Max > s.Stages[st].Max {
			s.Stages[st].Max = d.Stages[st].Max
		}
		for b := range s.Stages[st].Buckets {
			s.Stages[st].Buckets[b] += d.Stages[st].Buckets[b]
		}
	}
	s.Wire.BytesSent += d.Wire.BytesSent
	s.Wire.FramesSent += d.Wire.FramesSent
	s.Wire.BytesRecv += d.Wire.BytesRecv
	s.Wire.FramesRecv += d.Wire.FramesRecv
	s.Wire.Reconnects += d.Wire.Reconnects
	s.Wire.Drops += d.Wire.Drops
	s.Wire.CRCDrops += d.Wire.CRCDrops
	s.Wire.DecodeErrors += d.Wire.DecodeErrors
	if d.Wire.QueueHighWater > s.Wire.QueueHighWater {
		s.Wire.QueueHighWater = d.Wire.QueueHighWater
	}
}

// AppendNodeStats encodes s little-endian onto b. The layout is fixed
// width — version, node id, then every counter, stage block, and wire
// counter in declaration order — so the decoder can demand the exact
// size before touching a byte.
func AppendNodeStats(b []byte, s *NodeStats) []byte {
	b = append(b, nodeStatsVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(s.Node))
	for _, c := range s.Counters {
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	for st := range s.Stages {
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Stages[st].Sum))
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Stages[st].Max))
		for _, cnt := range s.Stages[st].Buckets {
			b = binary.LittleEndian.AppendUint64(b, uint64(cnt))
		}
	}
	for _, w := range []int64{
		s.Wire.BytesSent, s.Wire.FramesSent, s.Wire.BytesRecv, s.Wire.FramesRecv,
		s.Wire.Reconnects, s.Wire.Drops, s.Wire.CRCDrops, s.Wire.DecodeErrors,
		s.Wire.QueueHighWater,
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(w))
	}
	return b
}

// DecodeNodeStats parses one record. The payload is fixed-size into
// fixed-size value arrays — no allocation is derived from wire bytes —
// and anything but the exact expected length or version is refused at
// the boundary.
func DecodeNodeStats(b []byte) (NodeStats, error) {
	var s NodeStats
	if len(b) != NodeStatsWireSize {
		return s, fmt.Errorf("telemetry: node stats record %d bytes, want %d", len(b), NodeStatsWireSize)
	}
	if b[0] != nodeStatsVersion {
		return s, fmt.Errorf("telemetry: node stats version %d, want %d", b[0], nodeStatsVersion)
	}
	s.Node = int(binary.LittleEndian.Uint32(b[1:]))
	if s.Node < 0 || s.Node > 1<<20 {
		return s, fmt.Errorf("telemetry: node stats node id %d out of range", s.Node)
	}
	off := 5
	next := func() int64 {
		v := int64(binary.LittleEndian.Uint64(b[off:]))
		off += 8
		return v
	}
	for c := range s.Counters {
		s.Counters[c] = next()
	}
	for st := range s.Stages {
		s.Stages[st].Sum = next()
		s.Stages[st].Max = next()
		for bk := range s.Stages[st].Buckets {
			s.Stages[st].Buckets[bk] = next()
		}
	}
	s.Wire.BytesSent = next()
	s.Wire.FramesSent = next()
	s.Wire.BytesRecv = next()
	s.Wire.FramesRecv = next()
	s.Wire.Reconnects = next()
	s.Wire.Drops = next()
	s.Wire.CRCDrops = next()
	s.Wire.DecodeErrors = next()
	s.Wire.QueueHighWater = next()
	return s, nil
}
