package distributed

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// The fault transport wraps any Transport and injects failures on the
// worker-facing side of the boundary — message drops, delivery delays, and
// worker crashes — at scriptable, seed-controlled points. The coordinator's
// view is untouched: from its side a faulted run looks exactly like a
// cluster losing workers, which is what the recovery layer must absorb. The
// chaos equivalence test and the recovery benchmark drive real executor
// runs through it and require the output to stay byte-identical to the
// no-failure run.

// Crash scripts the death of one physical worker slot. A crash fires at the
// slot's AtRecv-th successful message delivery (the message is swallowed,
// exactly like a process dying with bytes in its socket) or just before its
// AtSend-th protocol reply leaves, whichever point the run reaches first; a
// zero field never fires. After the crash every transport operation by that
// slot fails, so an in-process worker goroutine exits like a killed process.
type Crash struct {
	Slot   int
	AtRecv int
	AtSend int
}

// FaultPlan scripts a run's failures. Crashes are deterministic given the
// protocol (per-slot operation counters); drops and delays draw from a
// rand.Rand seeded with Seed, so a (plan, workload) pair replays the same
// fault schedule up to goroutine interleaving.
type FaultPlan struct {
	Seed int64
	// Crashes are the scripted worker deaths.
	Crashes []Crash
	// DropProb silently discards worker→coordinator sends (replies and
	// heartbeats) with this probability — the lost-in-flight message class
	// that heartbeat gap detection recovers.
	DropProb float64
	// DelayProb/MaxDelay inject a uniform [0, MaxDelay) latency on
	// worker-side transport operations with probability DelayProb,
	// reordering deliveries across workers.
	DelayProb float64
	MaxDelay  time.Duration
}

// faultState is the shared injection state: one per transport instance, seen
// by the coordinator-side wrapper and every worker-side wrapper it hands out.
type faultState struct {
	plan FaultPlan

	mu      sync.Mutex
	rng     *rand.Rand
	recvs   map[int]int // successful deliveries per slot
	sends   map[int]int // protocol replies per slot
	crashed map[int]bool
}

func newFaultState(plan FaultPlan) *faultState {
	return &faultState{
		plan:    plan,
		rng:     rand.New(rand.NewSource(plan.Seed)),
		recvs:   make(map[int]int),
		sends:   make(map[int]int),
		crashed: make(map[int]bool),
	}
}

var errWorkerCrashed = fmt.Errorf("distributed: fault injection: worker crashed")

func (st *faultState) dead(w int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.crashed[w]
}

// onRecv counts a delivery to slot w and reports whether a scripted crash
// fires at this point (the caller swallows the message).
func (st *faultState) onRecv(w int) (crash bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.recvs[w]++
	for _, c := range st.plan.Crashes {
		if c.Slot == w && c.AtRecv > 0 && st.recvs[w] == c.AtRecv && !st.crashed[w] {
			st.crashed[w] = true
			return true
		}
	}
	return false
}

// onSend counts a protocol reply from slot w, reporting a scripted
// crash-before-send or a random drop.
func (st *faultState) onSend(w int, protocol bool) (crash, drop bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if protocol {
		st.sends[w]++
		for _, c := range st.plan.Crashes {
			if c.Slot == w && c.AtSend > 0 && st.sends[w] == c.AtSend && !st.crashed[w] {
				st.crashed[w] = true
				return true, false
			}
		}
	}
	return false, st.plan.DropProb > 0 && st.rng.Float64() < st.plan.DropProb
}

func (st *faultState) maybeDelay() {
	if st.plan.DelayProb <= 0 || st.plan.MaxDelay <= 0 {
		return
	}
	st.mu.Lock()
	var d time.Duration
	if st.rng.Float64() < st.plan.DelayProb {
		d = time.Duration(st.rng.Int63n(int64(st.plan.MaxDelay)))
	}
	st.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

// faultTransport wraps a transport with shared fault state. The
// coordinator-side operations pass through; WorkerRecv and ToCoordinator —
// the calls a worker incarnation makes — are where faults land.
type faultTransport struct {
	inner Transport
	st    *faultState
}

// NewFaultTransport wraps a transport factory with a failure-injection
// plan. It composes with every transport: for chan/gob the workers talk
// through the wrapper itself, for the HTTP transports the wrapper hands out
// fault-wrapped worker clients sharing the same state.
func NewFaultTransport(inner TransportFactory, plan FaultPlan) TransportFactory {
	return func(workers int) Transport {
		return &faultTransport{inner: inner(workers), st: newFaultState(plan)}
	}
}

func (t *faultTransport) ToWorkerDeadline(w int, m Message, d time.Duration) error {
	return t.inner.ToWorkerDeadline(w, m, d)
}

func (t *faultTransport) WorkerRecv(w int) (Message, error) {
	if t.st.dead(w) {
		return nil, errWorkerCrashed
	}
	t.st.maybeDelay()
	m, err := t.inner.WorkerRecv(w)
	if err != nil {
		return nil, err
	}
	if t.st.onRecv(w) {
		return nil, errWorkerCrashed // crash swallows the in-flight message
	}
	return m, nil
}

func (t *faultTransport) ToCoordinator(m Message) error {
	w, protocol := upSender(m)
	if w >= 0 && t.st.dead(w) {
		return errWorkerCrashed
	}
	t.st.maybeDelay()
	crash, drop := t.st.onSend(w, protocol)
	if crash {
		return errWorkerCrashed
	}
	if drop {
		return nil // lost in flight: the sender believes it was delivered
	}
	return t.inner.ToCoordinator(m)
}

func (t *faultTransport) CoordinatorRecvDeadline(d time.Duration) (Message, error) {
	return t.inner.CoordinatorRecvDeadline(d)
}

func (t *faultTransport) AddWorker() (int, error) { return t.inner.AddWorker() }

func (t *faultTransport) Close() error { return t.inner.Close() }

// LocalWorkerTransport keeps the wrapper composable with worker-hosting
// transports: fault-wrap whatever the inner transport hands its workers
// (sharing this transport's fault state). Non-hosting transports (chan/gob)
// let their workers talk through the coordinator value, i.e. this wrapper
// itself.
func (t *faultTransport) LocalWorkerTransport() Transport {
	if h, ok := t.inner.(workerHoster); ok {
		return &faultTransport{inner: h.LocalWorkerTransport(), st: t.st}
	}
	return t
}

// upSender extracts the slot a worker→coordinator message is from, and
// whether it is a protocol reply (as opposed to a heartbeat). Unknown
// message shapes fault as slot -1: never crashed, still droppable.
func upSender(m Message) (slot int, protocol bool) {
	switch msg := m.(type) {
	case WeightSummaries:
		return msg.Worker, true
	case FusionResult:
		return msg.Worker, true
	case Heartbeat:
		return msg.Worker, false
	default:
		return -1, false
	}
}
