package skynode

// Admission control for the node's step-execution path. A burst of
// heavy cross-matches used to run all at once: every concurrent step
// materialized its incoming partial-tuple set and its candidate batches
// simultaneously, so enough simultaneous queries OOM the node long
// before they saturate its CPUs. The Gate below is a weighted
// semaphore over two budgets — concurrent step slots and estimated
// in-flight step memory — with a bounded FIFO wait queue in front.
// Work that cannot start immediately queues; work that would overflow
// the queue, or waits past its deadline, is shed with a typed
// retryable error that the SOAP layer maps to the 429-equivalent
// Overloaded fault (HTTP 503) and portals retry with backoff. Shedding
// happens before the step touches any data, so a retry is always safe.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"skyquery/internal/value"
)

// Default admission parameters (used for zero Admission fields when the
// gate is enabled).
const (
	// DefaultMemoryBudget bounds the estimated bytes of incoming tuple
	// sets concurrently inside step execution.
	DefaultMemoryBudget = 256 << 20
	// DefaultQueueTimeout is how long an admission waits before being
	// shed.
	DefaultQueueTimeout = 5 * time.Second
	// minAdmitWeight is the floor charged per admission so that even
	// seed steps (no incoming set) consume budget.
	minAdmitWeight = 64 << 10
)

// Admission configures the node's admission gate. The zero value
// disables admission entirely (every step runs immediately), preserving
// the pre-gate behavior for embedded uses that do their own limiting.
type Admission struct {
	// MaxConcurrent is the number of steps that may execute at once;
	// <= 0 disables the gate.
	MaxConcurrent int
	// MemoryBudget bounds the estimated bytes of step input concurrently
	// admitted; 0 means DefaultMemoryBudget, negative means unbounded.
	MemoryBudget int64
	// MaxQueue bounds how many admissions may wait; a full queue sheds
	// immediately. 0 means 4*MaxConcurrent, negative means no queueing
	// (immediate shed when saturated).
	MaxQueue int
	// QueueTimeout sheds an admission still queued after this long;
	// 0 means DefaultQueueTimeout.
	QueueTimeout time.Duration
}

// ErrOverloaded is the typed, retryable error a shed admission returns.
type ErrOverloaded struct {
	// Node is the shedding archive's name.
	Node string
	// Queued is the queue depth observed at shed time.
	Queued int
	// Waited is how long the admission queued before being shed (zero
	// when the queue itself was full).
	Waited time.Duration
}

// Error implements the error interface.
func (e *ErrOverloaded) Error() string {
	if e.Waited > 0 {
		return fmt.Sprintf("skynode %s: overloaded: admission shed after queueing %v (%d queued); retry with backoff",
			e.Node, e.Waited.Round(time.Millisecond), e.Queued)
	}
	return fmt.Sprintf("skynode %s: overloaded: admission queue full (%d queued); retry with backoff", e.Node, e.Queued)
}

// gateWaiter is one queued admission.
type gateWaiter struct {
	weight   int64
	ready    chan struct{} // closed under the gate lock on admit
	canceled bool          // set under the gate lock on timeout
}

// Gate is the weighted admission semaphore. A nil *Gate admits
// everything immediately.
type Gate struct {
	name     string
	slotCap  int
	memCap   int64
	maxQueue int
	timeout  time.Duration

	mu      sync.Mutex
	slots   int
	mem     int64
	waiters []*gateWaiter // FIFO; canceled entries removed lazily

	admitted atomic.Int64
	queued   atomic.Int64
	shed     atomic.Int64
}

// NewGate builds a gate for the given configuration; it returns nil
// (gate disabled) when cfg.MaxConcurrent <= 0.
func NewGate(name string, cfg Admission) *Gate {
	if cfg.MaxConcurrent <= 0 {
		return nil
	}
	g := &Gate{name: name, slotCap: cfg.MaxConcurrent}
	switch {
	case cfg.MemoryBudget == 0:
		g.memCap = DefaultMemoryBudget
	case cfg.MemoryBudget < 0:
		g.memCap = 1 << 62
	default:
		g.memCap = cfg.MemoryBudget
	}
	switch {
	case cfg.MaxQueue == 0:
		g.maxQueue = 4 * cfg.MaxConcurrent
	case cfg.MaxQueue < 0:
		g.maxQueue = 0
	default:
		g.maxQueue = cfg.MaxQueue
	}
	if g.timeout = cfg.QueueTimeout; g.timeout == 0 {
		g.timeout = DefaultQueueTimeout
	}
	return g
}

// clampWeight folds an admission's estimated bytes into [minAdmitWeight,
// memCap]: a single request heavier than the whole budget must still be
// admissible (alone), or it could never run at all.
func (g *Gate) clampWeight(w int64) int64 {
	if w < minAdmitWeight {
		return minAdmitWeight
	}
	if w > g.memCap {
		return g.memCap
	}
	return w
}

// fitsLocked reports whether an admission of the given weight can start
// now. Callers hold g.mu.
func (g *Gate) fitsLocked(w int64) bool {
	return g.slots < g.slotCap && g.mem+w <= g.memCap
}

// Acquire admits one step execution of the given estimated weight in
// bytes, blocking in FIFO order while the gate is saturated. It returns
// a release function on success and *ErrOverloaded when the admission
// was shed (queue full or deadline passed). A nil gate admits
// immediately.
func (g *Gate) Acquire(weight int64) (release func(), err error) {
	if g == nil {
		return func() {}, nil
	}
	w := g.clampWeight(weight)
	g.mu.Lock()
	// FIFO: even a fitting admission queues behind existing waiters so
	// a stream of light steps cannot starve a heavy one forever.
	if len(g.waiters) == 0 && g.fitsLocked(w) {
		g.slots++
		g.mem += w
		g.mu.Unlock()
		g.admitted.Add(1)
		return g.releaseFunc(w), nil
	}
	if len(g.waiters) >= g.maxQueue {
		depth := len(g.waiters)
		g.mu.Unlock()
		g.shed.Add(1)
		return nil, &ErrOverloaded{Node: g.name, Queued: depth}
	}
	wtr := &gateWaiter{weight: w, ready: make(chan struct{})}
	g.waiters = append(g.waiters, wtr)
	g.mu.Unlock()
	g.queued.Add(1)

	start := time.Now()
	timer := time.NewTimer(g.timeout)
	defer timer.Stop()
	select {
	case <-wtr.ready:
		return g.releaseFunc(w), nil
	case <-timer.C:
		g.mu.Lock()
		select {
		case <-wtr.ready:
			// Lost the race: dispatch admitted us just as the deadline
			// fired. Use the slot.
			g.mu.Unlock()
			return g.releaseFunc(w), nil
		default:
		}
		wtr.canceled = true
		depth := len(g.waiters)
		g.mu.Unlock()
		g.shed.Add(1)
		return nil, &ErrOverloaded{Node: g.name, Queued: depth, Waited: time.Since(start)}
	}
}

// releaseFunc returns the (idempotent) release closure for an admitted
// weight.
func (g *Gate) releaseFunc(w int64) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.slots--
			g.mem -= w
			g.dispatchLocked()
			g.mu.Unlock()
		})
	}
}

// dispatchLocked admits queued waiters, in order, while they fit.
// Callers hold g.mu.
func (g *Gate) dispatchLocked() {
	for len(g.waiters) > 0 {
		head := g.waiters[0]
		if head.canceled {
			g.waiters = g.waiters[1:]
			continue
		}
		if !g.fitsLocked(head.weight) {
			return // strict FIFO: nobody overtakes the head
		}
		g.waiters = g.waiters[1:]
		g.slots++
		g.mem += head.weight
		g.admitted.Add(1)
		close(head.ready)
	}
}

// GateStats is a snapshot of admission counters.
type GateStats struct {
	// Admitted counts admissions that ran (including after queueing).
	Admitted int64
	// Queued counts admissions that had to wait before running or being
	// shed.
	Queued int64
	// Shed counts admissions rejected with ErrOverloaded.
	Shed int64
	// InFlight and QueueDepth are instantaneous.
	InFlight   int
	QueueDepth int
	// MemoryInUse is the weight currently admitted, in bytes.
	MemoryInUse int64
}

// Stats returns a snapshot of the gate's counters; zero for a nil gate.
func (g *Gate) Stats() GateStats {
	if g == nil {
		return GateStats{}
	}
	g.mu.Lock()
	s := GateStats{
		InFlight:    g.slots,
		QueueDepth:  len(g.waiters),
		MemoryInUse: g.mem,
	}
	g.mu.Unlock()
	s.Admitted = g.admitted.Load()
	s.Queued = g.queued.Load()
	s.Shed = g.shed.Load()
	return s
}

// estimateRowsBytes is the admission weight of one page of tuples: cell
// count times the value struct size plus string payloads' backing
// arrays. A chain step charges it per in-flight page, so the gate sees
// the real page-sized footprint instead of a whole-set estimate.
func estimateRowsBytes(rows [][]value.Value) int64 {
	if len(rows) == 0 {
		return 0
	}
	const valueSize = 48 // unsafe.Sizeof(value.Value{}) rounded up
	bytes := int64(len(rows)) * int64(len(rows[0])) * valueSize
	// First row's string payload as the per-row sample — an estimate
	// is all the budget needs, and it keeps this O(columns).
	var rowStrings int64
	for _, v := range rows[0] {
		rowStrings += int64(len(v.AsString()))
	}
	return bytes + rowStrings*int64(len(rows))
}
