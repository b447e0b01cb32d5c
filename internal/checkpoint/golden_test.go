package checkpoint

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenStates are the fixed inputs behind the checked-in GABC files: a
// single-process state (no stamps) and one shard of a two-node run with
// per-slot stamps and a send sequence.
func goldenStates() map[string]*State {
	single := &State{
		NumVertices: 300, NumBlocks: 10, Words: 1,
		Node: 0, Nodes: 1,
		VertexLo: 0, VertexHi: 300,
		BlockLo: 0, BlockHi: 10,
		Values:   make([]uint64, 300),
		Priority: make([]uint64, 10),
		Active:   []byte{1, 0, 0, 1, 1, 0, 1, 0, 0, 1},
		Stamps:   []uint64{},
		Counters: Counters{VertexUpdates: 123456, BlockUpdates: 789, EdgesTraversed: 4567890},
	}
	shard := &State{
		NumVertices: 300, NumBlocks: 10, Words: 2,
		Node: 1, Nodes: 2,
		VertexLo: 150, VertexHi: 300,
		BlockLo: 5, BlockHi: 10,
		SlotBase: 700,
		Values:   make([]uint64, 300),
		Priority: make([]uint64, 5),
		Active:   []byte{0, 1, 1, 0, 1},
		Stamps:   make([]uint64, 400),
		Counters: Counters{VertexUpdates: 98765, BlockUpdates: 432, EdgesTraversed: 1234567, Seq: 4242},
	}
	for _, st := range []*State{single, shard} {
		for i := range st.Values {
			st.Values[i] = uint64(i+1) * 0x9e3779b97f4a7c15
		}
		for i := range st.Priority {
			st.Priority[i] = math.Float64bits(float64(i) * 0.375)
		}
	}
	for i := range shard.Stamps {
		shard.Stamps[i] = uint64(i*i) + 1<<40
	}
	return map[string]*State{"parent_single.gabc": single, "parent_shard.gabc": shard}
}

// goldenSchedule is the block sequence behind testdata/parent.gabr.
func goldenSchedule() []uint32 {
	ids := make([]uint32, 1000)
	for i := range ids {
		ids[i] = uint32(i*7) % 13
	}
	return ids
}

// TestCheckpointParentGolden pins the GABC and GABR encodings across
// commits: the checked-in files were written by the encoders of the
// commit before the section codec moved to internal/binfmt, and today's
// encoders must reproduce them byte for byte and decode them back to
// equal values.
func TestCheckpointParentGolden(t *testing.T) {
	for file, st := range goldenStates() {
		want, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeState(t, st); !bytes.Equal(got, want) {
			t.Errorf("%s: encoder wrote %d bytes, golden has %d", file, len(got), len(want))
		}
		back, err := Decode(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if !reflect.DeepEqual(back, st) {
			t.Errorf("%s: decoded state differs:\n got %+v\nwant %+v", file, back, st)
		}
	}

	want, err := os.ReadFile(filepath.Join("testdata", "parent.gabr"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := NewScheduleRecorder(&buf)
	for _, b := range goldenSchedule() {
		rec.Record(int(b))
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("parent.gabr: recorder wrote %d bytes, golden has %d", buf.Len(), len(want))
	}
	ids, err := ReadSchedule(bytes.NewReader(want), 13)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, goldenSchedule()) {
		t.Errorf("parent.gabr decodes to %d ids, not the recorded sequence", len(ids))
	}
}
