package cluster

import "time"

// envKind distinguishes the two message classes on the wire; it is the
// envelope's first byte and its layout version. Kind 0 was a batch of
// per-slot updates (slot, block, image): it is refused, so a peer built
// before the image layout fails loudly instead of being misread.
type envKind int8

const (
	envAck    envKind = 1 // acknowledgment that a data envelope was applied
	envImages envKind = 2 // a batch of (source vertex, scatter image) entries
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
	srcs   []uint32 // source vertex per entry
	words  []uint64 // encoded scatter images, len = len(srcs) * codec.Words()
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
// backoff) and per-source write stamps on top, so faults degrade progress,
// never correctness. Send must not block indefinitely and must be safe
// for concurrent use; envelopes handed to deliver after Close are the
// implementation's responsibility to suppress.
type Transport interface {
	// Bind is called once before the run starts. deliver applies an
	// envelope to node `to` on the calling goroutine and, for a data
	// batch, sends the ack back through this Transport before it
	// returns — so Send is re-entered from inside deliver, and deliver
	// may be called from any number of goroutines at once. A node whose
	// run has stopped refuses its traffic silently.
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
