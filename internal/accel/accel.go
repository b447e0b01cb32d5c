// Package accel is the discrete-event model of the hardware accelerator
// side of GraphABCD — the substitute for the paper's Intel HARPv2 CPU-FPGA
// platform (Sec. IV-C), which this reproduction does not have.
//
// The model captures exactly the quantities the paper's evaluation reasons
// about: a shared CPU-accelerator bus with a fixed bandwidth budget
// (12.8 GB/s on HARPv2), a pool of processing elements each streaming one
// edge per clock cycle through the GATHER-APPLY pipeline, per-task offload
// latency (the LogCA invocation cost of Sec. IV-A1), and a classified
// memory-traffic ledger (sequential reads / sequential writes / random
// writes) for the Fig. 9 breakdown. The algorithmic results are always
// computed for real by the Go engine; the model only accounts simulated
// time, so PE utilization (Fig. 8), bus utilization (Fig. 9b) and scaling
// knees (Fig. 10) emerge from the same bandwidth arithmetic as on the real
// system.
package accel

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// AccessKind classifies a modeled memory transfer.
type AccessKind int

const (
	// SeqRead is the accelerator streaming an edge block (GATHER input).
	SeqRead AccessKind = iota
	// SeqWrite is the accelerator writing back a vertex value block.
	SeqWrite
	// RandWrite is the CPU's SCATTER writing out-edge cache slots.
	RandWrite
	// RandRead is a CPU-side random read (used by baseline models only;
	// GraphABCD's accelerator accesses are fully sequential).
	RandRead
	numKinds
)

// String names the access kind.
func (k AccessKind) String() string {
	switch k {
	case SeqRead:
		return "seq-read"
	case SeqWrite:
		return "seq-write"
	case RandWrite:
		return "rand-write"
	case RandRead:
		return "rand-read"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Config describes the modeled platform. The zero value is not valid; use
// DefaultHARPv2 or fill every field.
type Config struct {
	// NumPEs is the number of accelerator processing elements.
	NumPEs int
	// BusGBps is the CPU<->accelerator bandwidth in GB/s (HARPv2: two
	// PCIe x8 plus one QPI, 12.8 GB/s total).
	BusGBps float64
	// ClockMHz is the PE clock (HARPv2 prototype: 200 MHz).
	ClockMHz float64
	// EdgesPerCycle is the per-PE GATHER pipeline throughput; the paper's
	// dynamic dataflow reduction sustains 1 edge/cycle regardless of the
	// reduction operator's latency.
	EdgesPerCycle float64
	// InvokeLatencyNs is the per-task offload latency (task dequeue + DMA
	// setup). HARPv2 LLC-to-FPGA round trip is ~300 ns.
	InvokeLatencyNs float64

	// CPUThreads is the number of host worker threads (HARPv2: 14).
	CPUThreads int
	// ScatterNsPerEdge is the host cost of one SCATTER edge write
	// (random access into the edge cache).
	ScatterNsPerEdge float64
	// CPUGatherNsPerEdge is the host cost of one software GATHER edge
	// (used by hybrid execution and the all-software baseline; higher
	// than the PE cost because of cache-missing random reads and the
	// reduction dependency chain the paper's Fig. 6 discussion cites).
	CPUGatherNsPerEdge float64
	// CPUSweepNsPerEdge is the host cost of one edge in a GraphMat-style
	// dense SpMV sweep — lower than CPUGatherNsPerEdge because full
	// sweeps stream the matrix with good locality on the host's 58 GB/s
	// memory system (the asymmetry Sec. V-C notes when GraphMat's raw
	// MTEPS beats the accelerator's).
	CPUSweepNsPerEdge float64
}

// DefaultHARPv2 returns the model of the paper's evaluation platform.
func DefaultHARPv2() Config {
	return Config{
		NumPEs:             16,
		BusGBps:            12.8,
		ClockMHz:           200,
		EdgesPerCycle:      1,
		InvokeLatencyNs:    300,
		CPUThreads:         14,
		ScatterNsPerEdge:   6.0,
		CPUGatherNsPerEdge: 45.0,
		CPUSweepNsPerEdge:  12.0,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.NumPEs <= 0:
		return fmt.Errorf("accel: NumPEs must be positive, got %d", c.NumPEs)
	case c.BusGBps <= 0:
		return fmt.Errorf("accel: BusGBps must be positive, got %g", c.BusGBps)
	case c.ClockMHz <= 0:
		return fmt.Errorf("accel: ClockMHz must be positive, got %g", c.ClockMHz)
	case c.EdgesPerCycle <= 0:
		return fmt.Errorf("accel: EdgesPerCycle must be positive, got %g", c.EdgesPerCycle)
	case c.InvokeLatencyNs < 0:
		return fmt.Errorf("accel: negative InvokeLatencyNs %g", c.InvokeLatencyNs)
	case c.CPUThreads <= 0:
		return fmt.Errorf("accel: CPUThreads must be positive, got %d", c.CPUThreads)
	case c.ScatterNsPerEdge < 0 || c.CPUGatherNsPerEdge < 0 || c.CPUSweepNsPerEdge < 0:
		return fmt.Errorf("accel: negative CPU cost")
	}
	return nil
}

// Simulator is the shared accounting state of one modeled run. All methods
// are safe for concurrent use by the engine's workers; each PE / CPUWorker
// handle must be driven by a single goroutine at a time.
type Simulator struct {
	cfg Config
	bus bus

	trafficBytes [numKinds]atomic.Int64
	trafficOps   [numKinds]atomic.Int64

	pes []PE
	cpu []CPUWorker
}

// New builds a simulator for cfg.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg}
	s.bus.bytesPerNs = cfg.BusGBps // 1 GB/s == 1 byte/ns
	s.pes = make([]PE, cfg.NumPEs)
	s.cpu = make([]CPUWorker, cfg.CPUThreads)
	for i := range s.pes {
		s.pes[i].sim = s
	}
	for i := range s.cpu {
		s.cpu[i].sim = s
	}
	return s, nil
}

// Config returns the modeled platform.
func (s *Simulator) Config() Config { return s.cfg }

// PE returns processing element i.
func (s *Simulator) PE(i int) *PE { return &s.pes[i] }

// CPU returns host worker thread i.
func (s *Simulator) CPU(i int) *CPUWorker { return &s.cpu[i] }

// LeastLoadedPE returns the PE with the earliest local clock — the unit an
// idle-PE-pulls-next-task queue would hand the next block to. Using this
// instead of a fixed goroutine-to-PE binding keeps the model independent
// of how the Go scheduler interleaves the real worker goroutines (on a
// single-core host one goroutine can otherwise absorb most tasks and
// distort the modeled makespan).
func (s *Simulator) LeastLoadedPE() *PE {
	best := &s.pes[0]
	for i := 1; i < len(s.pes); i++ {
		if s.pes[i].doneNs.load() < best.doneNs.load() {
			best = &s.pes[i]
		}
	}
	return best
}

// LeastLoadedCPU returns the host worker with the earliest local clock.
func (s *Simulator) LeastLoadedCPU() *CPUWorker {
	best := &s.cpu[0]
	for i := 1; i < len(s.cpu); i++ {
		if s.cpu[i].localNs.load() < best.localNs.load() {
			best = &s.cpu[i]
		}
	}
	return best
}

func (s *Simulator) addTraffic(kind AccessKind, bytes int64) {
	s.trafficBytes[kind].Add(bytes)
	s.trafficOps[kind].Add(1)
}

// TrafficBytes returns the bytes transferred with the given kind.
func (s *Simulator) TrafficBytes(kind AccessKind) int64 { return s.trafficBytes[kind].Load() }

// TrafficOps returns the number of transfers of the given kind.
func (s *Simulator) TrafficOps(kind AccessKind) int64 { return s.trafficOps[kind].Load() }

// BusBytes returns the total bytes moved over the CPU-accelerator bus
// (sequential reads plus sequential writes; SCATTER stays host-side).
func (s *Simulator) BusBytes() int64 {
	return s.TrafficBytes(SeqRead) + s.TrafficBytes(SeqWrite)
}

// SimTimeNs returns the modeled makespan: the latest local clock of any PE
// or CPU worker.
func (s *Simulator) SimTimeNs() float64 {
	end := 0.0
	for i := range s.pes {
		end = math.Max(end, s.pes[i].localNs.load())
	}
	for i := range s.cpu {
		end = math.Max(end, s.cpu[i].localNs.load())
	}
	return end
}

// BusBusyNs returns the total time the bus spent transferring.
func (s *Simulator) BusBusyNs() float64 { return s.bus.busyNs.load() }

// BusUtilization returns bus busy time over makespan, in [0, 1].
func (s *Simulator) BusUtilization() float64 {
	t := s.SimTimeNs()
	if t == 0 {
		return 0
	}
	return math.Min(1, s.BusBusyNs()/t)
}

// PEUtilization returns the mean fraction of the makespan the PEs spent
// computing (as opposed to stalled on the bus or idle), the Fig. 8 metric.
func (s *Simulator) PEUtilization() float64 {
	t := s.SimTimeNs()
	if t == 0 || len(s.pes) == 0 {
		return 0
	}
	busy := 0.0
	for i := range s.pes {
		busy += s.pes[i].busyNs.load()
	}
	return math.Min(1, busy/(t*float64(len(s.pes))))
}

// CPUUtilization returns the mean busy fraction of the host workers.
func (s *Simulator) CPUUtilization() float64 {
	t := s.SimTimeNs()
	if t == 0 || len(s.cpu) == 0 {
		return 0
	}
	busy := 0.0
	for i := range s.cpu {
		busy += s.cpu[i].busyNs.load()
	}
	return math.Min(1, busy/(t*float64(len(s.cpu))))
}

// Barrier aligns every PE and CPU worker clock to the current makespan,
// modeling a synchronization barrier: all units idle until the slowest
// finishes. The Barrier and BSP engine modes call this at each wave/sweep
// boundary so that barrier-induced idle time shows up in PE utilization
// (the Fig. 8 async-vs-sync contrast). Call only from a quiescent point
// (no PE or worker mid-task).
func (s *Simulator) Barrier() {
	t := s.SimTimeNs()
	for i := range s.pes {
		pe := &s.pes[i]
		pe.fetchNs.store(t)
		pe.prevDone.store(t)
		pe.doneNs.store(t)
		pe.localNs.store(t)
	}
	for i := range s.cpu {
		s.cpu[i].localNs.store(t)
	}
}

// bus models the shared CPU-accelerator link as a work-conserving FIFO
// queue with a fixed service rate: each request sees a delay equal to the
// backlog of queued work, and backlog drains whenever simulated time
// advances past it. Unlike a single "free horizon", an early-arriving
// request is not forced behind a transfer that was merely *issued* at a
// later simulated time, so one fast PE cannot ratchet every other unit's
// clock forward.
type bus struct {
	mu         sync.Mutex
	bytesPerNs float64
	lastNs     float64 // simulated time of the newest request seen
	backlogNs  float64 // queued service time remaining as of lastNs
	busyNs     atomicFloat
}

// acquire requests a transfer of bytes at simulated time nowNs and returns
// the transfer's start and end times.
func (b *bus) acquire(bytes int64, nowNs float64) (startNs, endNs float64) {
	if bytes <= 0 {
		return nowNs, nowNs // nothing to move
	}
	dur := float64(bytes) / b.bytesPerNs
	b.mu.Lock() //abcdlint:ignore hotpath -- simulator clock: the shared bus queue orders simulated transfers in -sim runs, not the measured data path
	if nowNs > b.lastNs {
		// Idle time since the last request drains the backlog.
		b.backlogNs -= nowNs - b.lastNs
		if b.backlogNs < 0 {
			b.backlogNs = 0
		}
		b.lastNs = nowNs
	}
	start := nowNs + b.backlogNs
	b.backlogNs += dur
	//abcdlint:ignore hotpath -- simulator clock: see the matching Lock above
	b.mu.Unlock()
	b.busyNs.add(dur)
	return start, start + dur
}

// PE models one accelerator processing element with the double-buffered
// input of the paper's customized DMA unit: the DMA fetch for block n+1
// may be issued while block n is still computing (bounded to one block of
// lookahead by the two input buffers), so compute and transfer pipeline
// across consecutive tasks. Drive each PE from a single goroutine.
type PE struct {
	sim      *Simulator
	mu       sync.Mutex  // serializes concurrent RunBlock calls on one PE
	fetchNs  atomicFloat // when the DMA engine is free to issue a fetch
	prevDone atomicFloat // compute-end of the block before the last one
	doneNs   atomicFloat // compute-end of the last block
	localNs  atomicFloat // end of the last write-back (makespan clock)
	busyNs   atomicFloat
	blocks   atomic.Int64
}

// RunBlock advances the PE's clocks across one block task: offload
// latency, streaming the edge block over the bus (double-buffered, so it
// overlaps the previous block's compute), the GATHER-APPLY pipeline, and
// the vertex-block write-back. It returns the PE's new local time.
// Safe for concurrent use; concurrent callers serialize on the PE.
//
//abcd:hotpath
func (pe *PE) RunBlock(edges, edgeBytes, writeBytes int64) float64 {
	pe.mu.Lock()         //abcdlint:ignore hotpath -- simulator clock: serializes one PE's simulated-time accounting in -sim runs, not the measured data path
	defer pe.mu.Unlock() //abcdlint:ignore hotpath -- simulator clock: see the matching Lock above
	cfg := pe.sim.cfg
	// The fetch may issue once the DMA engine is free and the buffer the
	// block two tasks ago used has drained.
	issue := math.Max(pe.fetchNs.load(), pe.prevDone.load()) + cfg.InvokeLatencyNs
	readStart, readEnd := pe.sim.bus.acquire(edgeBytes, issue)
	pe.sim.addTraffic(SeqRead, edgeBytes)
	pe.fetchNs.store(readEnd)

	computeNs := float64(edges) / (cfg.ClockMHz * 1e6 * cfg.EdgesPerCycle) * 1e9
	// The pipeline starts once the previous block finished and data begins
	// arriving; it cannot finish before the data has fully arrived.
	computeStart := math.Max(pe.doneNs.load(), readStart)
	computeEnd := math.Max(readEnd, computeStart+computeNs)
	pe.prevDone.store(pe.doneNs.load())
	pe.doneNs.store(computeEnd)

	_, writeEnd := pe.sim.bus.acquire(writeBytes, computeEnd)
	pe.sim.addTraffic(SeqWrite, writeBytes)
	pe.localNs.store(writeEnd)
	pe.busyNs.add(computeNs)
	pe.blocks.Add(1)
	return writeEnd
}

// Blocks returns the number of block tasks this PE has executed.
func (pe *PE) Blocks() int64 { return pe.blocks.Load() }

// LocalTimeNs returns the PE's local clock.
func (pe *PE) LocalTimeNs() float64 { return pe.localNs.load() }

// CPUWorker models one host thread executing SCATTER (and, under hybrid
// execution, software GATHER-APPLY). Drive each worker from a single
// goroutine.
type CPUWorker struct {
	sim     *Simulator
	mu      sync.Mutex // serializes concurrent task accounting
	localNs atomicFloat
	busyNs  atomicFloat
}

// RunScatter advances the worker across a SCATTER task of the given edge
// count, accounting the random cache-slot writes.
func (w *CPUWorker) RunScatter(edges, bytes int64) float64 {
	dur := float64(edges) * w.sim.cfg.ScatterNsPerEdge
	w.sim.addTraffic(RandWrite, bytes)
	return w.advance(dur)
}

// RunGather advances the worker across a software GATHER-APPLY task
// (hybrid execution or the all-software baseline).
//
//abcd:hotpath
func (w *CPUWorker) RunGather(edges, bytes int64) float64 {
	dur := float64(edges) * w.sim.cfg.CPUGatherNsPerEdge
	w.sim.addTraffic(RandRead, bytes)
	return w.advance(dur)
}

func (w *CPUWorker) advance(durNs float64) float64 {
	w.mu.Lock()         //abcdlint:ignore hotpath -- simulator clock: advance serializes simulated-time accounting in -sim runs, not the measured data path
	defer w.mu.Unlock() //abcdlint:ignore hotpath -- simulator clock: see the matching Lock above
	end := w.localNs.load() + durNs
	w.localNs.store(end)
	w.busyNs.add(durNs)
	return end
}

// LocalTimeNs returns the worker's local clock.
func (w *CPUWorker) LocalTimeNs() float64 { return w.localNs.load() }

// atomicFloat is a float64 with atomic load/store/add/cas via uint64 bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) load() float64   { return math.Float64frombits(a.bits.Load()) }
func (a *atomicFloat) store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat) cas(old, new float64) bool {
	return a.bits.CompareAndSwap(math.Float64bits(old), math.Float64bits(new))
}
func (a *atomicFloat) add(d float64) {
	for {
		old := a.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if a.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// CPUHasSlack reports whether the least-loaded host worker's clock trails
// the least-loaded PE's pipeline — the hybrid-execution steal condition:
// while true, handing a block to a host worker finishes no later than the
// accelerator would get to it, so stealing adds capacity instead of
// stalling the modeled system behind slow software gathers.
func (s *Simulator) CPUHasSlack() bool {
	cpu := s.LeastLoadedCPU().localNs.load()
	pe := s.LeastLoadedPE().doneNs.load()
	return cpu < pe
}
