package cluster

import "time"

// envKind distinguishes the two message classes on the wire.
type envKind int8

const (
	envData envKind = iota // a batch of state-based edge-cache updates
	envAck                 // acknowledgment that a data envelope was applied
)

// Envelope is one transport message between nodes. Payload fields are
// unexported: a Transport moves envelopes, it does not interpret them.
// The same envelope value may be resent (retries) and received more than
// once (duplication); the cluster's state-based updates and ack-based
// accounting make both safe.
type Envelope struct {
	kind   envKind
	from   int    // sending node
	id     uint64 // logical batch id, also the payload's write stamp
	sentAt time.Time
	slots  []int64  // CSC slot indices on the receiving node
	blocks []int32  // global block id per slot
	words  []uint64 // encoded values, len = len(slots) * codec.Words()
}

// IsAck reports whether the envelope is an acknowledgment rather than a
// data batch; fault injectors may treat the two classes differently.
func (e Envelope) IsAck() bool { return e.kind == envAck }

// ID returns the logical batch id the envelope carries (an ack carries
// the id of the data envelope it acknowledges).
func (e Envelope) ID() uint64 { return e.id }

// Transport moves envelopes between cluster nodes. Implementations may
// drop, duplicate, delay, or reorder envelopes arbitrarily — the cluster
// layers at-least-once delivery (unacked batches are retried with
// backoff) and per-slot write stamps on top, so faults degrade progress,
// never correctness. Send must not block indefinitely and must be safe
// for concurrent use; envelopes handed to deliver after Close are the
// implementation's responsibility to suppress.
type Transport interface {
	// Bind is called once before the run starts. deliver applies an
	// envelope to node `to` on the calling goroutine and, for a data
	// batch, sends the ack back through this Transport before it
	// returns — so Send is re-entered from inside deliver, and deliver
	// may be called from any number of goroutines at once. A failed node
	// refuses its traffic silently.
	Bind(numNodes int, deliver func(to int, e Envelope))
	// Send conveys e from node `from` to node `to`, asynchronously.
	Send(from, to int, e Envelope)
	// Close stops delivery and waits for any in-flight deliver calls.
	Close()
}

// FaultCounter is optionally implemented by fault-injecting transports;
// the cluster folds the counts into Stats.
type FaultCounter interface {
	// FaultCounts returns the number of envelopes the transport dropped
	// and the number it delivered more than once.
	FaultCounts() (dropped, duplicated int64)
}

// directTransport is the default perfect in-process transport: every
// envelope is delivered exactly once, inline, on the sender's goroutine.
// Close has nothing to suppress: the cluster joins every sender first.
type directTransport struct{ deliver func(int, Envelope) }

func (t *directTransport) Bind(_ int, deliver func(int, Envelope)) { t.deliver = deliver }
func (t *directTransport) Send(_, to int, e Envelope)              { t.deliver(to, e) }
func (t *directTransport) Close()                                  {}
