package distributed

import (
	"fmt"
	"sync"
	"time"
)

// Transport moves protocol messages between the coordinator and its worker
// slots. Messages to one peer are delivered in send order; sends apply
// backpressure when a peer's inbox is full. Every message crossing the
// interface is plain serializable data (see wire.go), so an implementation
// is free to marshal it across a process boundary — ChanTransport passes
// values in-process, GobTransport additionally round-trips every message
// through its gob wire framing, and HTTPTransport (httptransport.go) moves
// the same framing over loopback HTTP.
//
// The deadlines and AddWorker are the fault-tolerance surface: the
// coordinator bounds every send and gather receive so a dead worker cannot
// wedge it, and grows the transport by a fresh slot when it re-dispatches a
// dead worker's partition (fresh slots never share an inbox with a stale
// incarnation, so no epoch can steal another's messages).
type Transport interface {
	// ToWorkerDeadline delivers m to worker slot w's inbox, waiting at most
	// d for room (d <= 0 blocks); it returns ErrTimeout when the inbox
	// stays full for d.
	ToWorkerDeadline(w int, m Message, d time.Duration) error
	// WorkerRecv blocks until the next coordinator message for slot w.
	WorkerRecv(w int) (Message, error)
	// ToCoordinator delivers a worker reply to the coordinator.
	ToCoordinator(m Message) error
	// CoordinatorRecvDeadline waits at most d for the next worker reply
	// (d <= 0 blocks); it returns ErrTimeout when none arrives within d.
	CoordinatorRecvDeadline(d time.Duration) (Message, error)
	// AddWorker grows the transport by one fresh worker slot (recovery
	// re-dispatch) and returns its id.
	AddWorker() (int, error)
	// Close tears the transport down; blocked and future calls fail.
	Close() error
}

// TransportFactory builds a transport sized for a worker count; the executor
// calls it after clamping the worker count to the table size.
type TransportFactory func(workers int) Transport

// ErrTimeout is returned by the deadline-bounded transport operations when
// the deadline expires; the coordinator's failure detector treats it as "no
// news", not as a transport fault.
var ErrTimeout = fmt.Errorf("distributed: transport deadline exceeded")

// TransportByName resolves a transport factory from its flag name.
func TransportByName(name string) (TransportFactory, error) {
	switch name {
	case "", "chan":
		return NewChanTransport, nil
	case "gob":
		return NewGobTransport, nil
	case "http":
		return NewHTTPTransport, nil
	default:
		return nil, fmt.Errorf("distributed: unknown transport %q (chan|gob|http)", name)
	}
}

// inboxSet is the growable per-slot inbox table shared by the in-process
// transports: a mutex-guarded slice of channels so AddWorker can append a
// fresh slot while workers receive concurrently.
type inboxSet[T any] struct {
	mu   sync.RWMutex
	down []chan T
}

func newInboxSet[T any](workers int) *inboxSet[T] {
	s := &inboxSet[T]{down: make([]chan T, workers)}
	for w := range s.down {
		s.down[w] = make(chan T, 64)
	}
	return s
}

func (s *inboxSet[T]) get(w int) (chan T, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if w < 0 || w >= len(s.down) {
		return nil, fmt.Errorf("distributed: no worker %d", w)
	}
	return s.down[w], nil
}

func (s *inboxSet[T]) add() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down = append(s.down, make(chan T, 64))
	return len(s.down) - 1
}

// sendInbox delivers v to ch honoring the transport's done channel and an
// optional deadline (d <= 0 blocks until delivery or close).
func sendInbox[T any](ch chan T, v T, done chan struct{}, d time.Duration) error {
	select {
	case <-done:
		return errTransportClosed
	default:
	}
	if d <= 0 {
		select {
		case ch <- v:
			return nil
		case <-done:
			return errTransportClosed
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case ch <- v:
		return nil
	case <-done:
		return errTransportClosed
	case <-t.C:
		return ErrTimeout
	}
}

// recvInbox receives from ch honoring done and an optional deadline.
func recvInbox[T any](ch chan T, done chan struct{}, d time.Duration) (T, error) {
	var zero T
	select {
	case <-done:
		return zero, errTransportClosed
	default:
	}
	if d <= 0 {
		select {
		case v := <-ch:
			return v, nil
		case <-done:
			return zero, errTransportClosed
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case v := <-ch:
		return v, nil
	case <-done:
		return zero, errTransportClosed
	case <-t.C:
		return zero, ErrTimeout
	}
}

// chanTransport is the in-process transport: one buffered inbox channel per
// worker slot plus a shared upward channel. Message values cross goroutines
// directly, without marshalling.
type chanTransport struct {
	inboxes *inboxSet[Message]
	up      chan Message
	done    chan struct{}
	once    sync.Once
}

// NewChanTransport builds the in-process channel transport for k workers.
func NewChanTransport(workers int) Transport {
	return &chanTransport{
		inboxes: newInboxSet[Message](workers),
		up:      make(chan Message, 4*workers),
		done:    make(chan struct{}),
	}
}

func (t *chanTransport) ToWorkerDeadline(w int, m Message, d time.Duration) error {
	ch, err := t.inboxes.get(w)
	if err != nil {
		return err
	}
	return sendInbox(ch, m, t.done, d)
}

func (t *chanTransport) WorkerRecv(w int) (Message, error) {
	ch, err := t.inboxes.get(w)
	if err != nil {
		return nil, err
	}
	return recvInbox(ch, t.done, 0)
}

func (t *chanTransport) ToCoordinator(m Message) error {
	return sendInbox(t.up, m, t.done, 0)
}

func (t *chanTransport) CoordinatorRecvDeadline(d time.Duration) (Message, error) {
	return recvInbox(t.up, t.done, d)
}

func (t *chanTransport) AddWorker() (int, error) {
	select {
	case <-t.done:
		return 0, errTransportClosed
	default:
	}
	return t.inboxes.add(), nil
}

func (t *chanTransport) Close() error {
	t.once.Do(func() { close(t.done) })
	return nil
}

var errTransportClosed = fmt.Errorf("distributed: transport closed")

// gobTransport is the channel transport with every message gob-encoded on
// send and decoded on receive — the in-process stand-in for an RPC
// transport, proving on every run that the message boundary is serializable.
type gobTransport struct {
	inboxes *inboxSet[[]byte]
	up      chan []byte
	done    chan struct{}
	once    sync.Once
}

// NewGobTransport builds the serializing transport for k workers.
func NewGobTransport(workers int) Transport {
	return &gobTransport{
		inboxes: newInboxSet[[]byte](workers),
		up:      make(chan []byte, 4*workers),
		done:    make(chan struct{}),
	}
}

func (t *gobTransport) ToWorkerDeadline(w int, m Message, d time.Duration) error {
	ch, err := t.inboxes.get(w)
	if err != nil {
		return err
	}
	b, err := EncodeMessage(m)
	if err != nil {
		return err
	}
	return sendInbox(ch, b, t.done, d)
}

func (t *gobTransport) WorkerRecv(w int) (Message, error) {
	ch, err := t.inboxes.get(w)
	if err != nil {
		return nil, err
	}
	b, err := recvInbox(ch, t.done, 0)
	if err != nil {
		return nil, err
	}
	return DecodeMessage(b)
}

func (t *gobTransport) ToCoordinator(m Message) error {
	b, err := EncodeMessage(m)
	if err != nil {
		return err
	}
	return sendInbox(t.up, b, t.done, 0)
}

func (t *gobTransport) CoordinatorRecvDeadline(d time.Duration) (Message, error) {
	b, err := recvInbox(t.up, t.done, d)
	if err != nil {
		return nil, err
	}
	return DecodeMessage(b)
}

func (t *gobTransport) AddWorker() (int, error) {
	select {
	case <-t.done:
		return 0, errTransportClosed
	default:
	}
	return t.inboxes.add(), nil
}

func (t *gobTransport) Close() error {
	t.once.Do(func() { close(t.done) })
	return nil
}
