package graph

import "fmt"

// Partition slices a graph into vertex blocks of a fixed size and the
// matching destination-sliced edge blocks (Fig. 1a of the paper). Block i
// owns vertices [i*B, min((i+1)*B, |V|)) and, by the CSC layout, its edge
// block [InOffset(lo), InOffset(hi)) is contiguous in memory.
type Partition struct {
	g         *Graph
	blockSize int
	numBlocks int
}

// DefaultBlockSize is the block size every front end uses when the caller
// names none: |V|/256, floored at 16 — a few hundred blocks to schedule on
// a large graph, without degenerate one-vertex blocks on a small one.
func DefaultBlockSize(numVertices int) int { return max(16, numVertices/256) }

// NewPartition partitions g into blocks of blockSize vertices. A blockSize
// of 0 or >= |V| yields a single block (the BSP / full-gradient extreme).
func NewPartition(g *Graph, blockSize int) (*Partition, error) {
	if blockSize < 0 {
		return nil, fmt.Errorf("graph: negative block size %d", blockSize)
	}
	n := g.NumVertices()
	if blockSize == 0 || blockSize > n {
		blockSize = n
	}
	if blockSize == 0 { // empty graph: one empty block keeps callers simple
		blockSize = 1
	}
	nb := (n + blockSize - 1) / blockSize
	if nb == 0 {
		nb = 1
	}
	return &Partition{g: g, blockSize: blockSize, numBlocks: nb}, nil
}

// Graph returns the partitioned graph.
func (p *Partition) Graph() *Graph { return p.g }

// BlockSize returns the nominal vertices-per-block.
func (p *Partition) BlockSize() int { return p.blockSize }

// NumBlocks returns the number of vertex blocks.
func (p *Partition) NumBlocks() int { return p.numBlocks }

// VertexRange returns the half-open vertex range [lo, hi) of block b.
func (p *Partition) VertexRange(b int) (lo, hi int) {
	lo = b * p.blockSize
	hi = lo + p.blockSize
	if n := p.g.NumVertices(); hi > n {
		hi = n
	}
	return lo, hi
}

// EdgeRange returns the half-open CSC slot range [lo, hi) of block b's edge
// block — contiguous by construction.
func (p *Partition) EdgeRange(b int) (lo, hi int64) {
	vlo, vhi := p.VertexRange(b)
	return p.g.InOffset(vlo), p.g.InOffset(vhi)
}

// BlockOf returns the block owning vertex v.
func (p *Partition) BlockOf(v uint32) int { return int(v) / p.blockSize }

// NumBlockVertices returns the number of vertices in block b (the last
// block may be short).
func (p *Partition) NumBlockVertices(b int) int {
	lo, hi := p.VertexRange(b)
	return hi - lo
}

// EdgeBytes returns the number of bytes the GATHER stage streams for block
// b, given bytesPerEdge (weight + cached value words).
func (p *Partition) EdgeBytes(b int, bytesPerEdge int64) int64 {
	lo, hi := p.EdgeRange(b)
	return (hi - lo) * bytesPerEdge
}
