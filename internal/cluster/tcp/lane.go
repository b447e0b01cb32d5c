package tcp

import (
	"encoding/binary"
	"fmt"

	"graphabcd/internal/cluster"
	"graphabcd/internal/telemetry"
	"graphabcd/internal/word"
)

// joinerLane is the coordinator's cluster.Lane to one joiner: a round's
// request is one frame on the joiner's control connection, and its
// follow loop answers it. The stop round collects the joiner's owned
// values into the coordinator's value array.
type joinerLane[V any] struct {
	*ctrlConn
	node     int
	vlo, vhi int // the joiner's owned vertex range
	values   *word.Array[V]
}

func (j *joinerLane[V]) Ask(r cluster.Round) error {
	f := newFrame([...]byte{fProbe, fStats, fCkpt, fStop}[r.Kind])
	if r.Kind == cluster.RoundCkpt {
		f = appendEpoch(f, r.Epoch)
	}
	if err := j.write(f); err != nil {
		return fmt.Errorf("tcp: %v request to node %d: %w", r.Kind, j.node, err)
	}
	return nil
}

func (j *joinerLane[V]) Await(r cluster.Round) (p cluster.Probe, err error) {
	if r.Kind == cluster.RoundStop {
		if err = j.receiveValues(); err == nil {
			err = j.write(newFrame(fDone))
		}
		return p, err
	}
	body, err := j.expect([...]byte{fProbeReply, fStatsReply, fCkptAck}[r.Kind])
	if err != nil {
		return p, fmt.Errorf("tcp: %v reply from node %d: %w", r.Kind, j.node, err)
	}
	switch r.Kind {
	case cluster.RoundProbe:
		return decodeProbeReply(body[1:])
	case cluster.RoundStats:
		ns, err := telemetry.DecodeNodeStats(body[1:])
		if err == nil {
			r.Sink.Apply(&ns)
		}
		return p, err
	}
	epoch, err := decodeEpoch(body[1:])
	if err == nil && epoch != r.Epoch {
		err = fmt.Errorf("tcp: node %d acked checkpoint epoch %d, want %d", j.node, epoch, r.Epoch)
	}
	return p, err
}

// receiveValues installs the joiner's owned range from its fValues
// stream into the coordinator's value array (which nothing reads outside
// its own range once the run has stopped).
func (j *joinerLane[V]) receiveValues() error {
	words := j.values.Words()
	for {
		body, err := j.read()
		if err != nil {
			return fmt.Errorf("tcp: values from node %d: %w", j.node, err)
		}
		if body[0] == fDone {
			return nil
		}
		if body[0] != fValues {
			return fmt.Errorf("tcp: unexpected frame %d in node %d's value stream", body[0], j.node)
		}
		c, err := decodeValuesChunk(body[1:])
		if err != nil {
			return err
		}
		if len(c.words)%(words*8) != 0 {
			return fmt.Errorf("tcp: node %d values chunk %d bytes, not a multiple of %d", j.node, len(c.words), words*8)
		}
		count := len(c.words) / (words * 8)
		if c.vlo < int64(j.vlo) || c.vlo+int64(count) > int64(j.vhi) {
			return fmt.Errorf("tcp: node %d values [%d,%d) outside its owned range [%d,%d)",
				j.node, c.vlo, c.vlo+int64(count), j.vlo, j.vhi)
		}
		raw := make([]uint64, count*words)
		for i := range raw {
			raw[i] = binary.LittleEndian.Uint64(c.words[i*8:])
		}
		j.values.StoreWords(c.vlo, raw)
	}
}
