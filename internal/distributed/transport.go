package distributed

import (
	"fmt"
	"sync"
	"time"
)

// Transport moves protocol messages between the coordinator and its worker
// slots, which are fixed when the transport is built. Messages to one peer
// are delivered in send order; sends apply backpressure when a peer's inbox
// is full. Every message crossing the interface is plain serializable data
// (see wire.go), so an implementation is free to marshal it across a process
// boundary — ChanTransport passes values in-process, GobTransport
// additionally round-trips every message through its gob wire framing, and
// HTTPTransport (httptransport.go) moves the same framing over loopback
// HTTP.
//
// Close is the executor's one abort: cancellation, a coordinator error and a
// worker's early exit all end a run by closing its transport.
type Transport interface {
	// ToWorkerDeadline delivers m to worker slot w's inbox, waiting at most
	// d for room; it returns ErrTimeout when the inbox stays full for d.
	ToWorkerDeadline(w int, m Message, d time.Duration) error
	// WorkerRecv blocks until the next coordinator message for slot w.
	WorkerRecv(w int) (Message, error)
	// ToCoordinator delivers a worker reply to the coordinator.
	ToCoordinator(m Message) error
	// CoordinatorRecv blocks until the next worker reply.
	CoordinatorRecv() (Message, error)
	// Close tears the transport down; blocked and future calls fail.
	Close() error
}

// TransportFactory builds a transport sized for a worker count; the executor
// calls it after clamping the worker count to the table size.
type TransportFactory func(workers int) Transport

// ErrTimeout is returned by ToWorkerDeadline when the worker's inbox stays
// full past the deadline: the worker stopped draining it.
var ErrTimeout = fmt.Errorf("distributed: transport deadline exceeded")

var errTransportClosed = fmt.Errorf("distributed: transport closed")

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

// NewChanTransport builds the in-process transport for k workers: message
// values cross goroutines directly, without marshalling.
func NewChanTransport(workers int) Transport {
	same := func(m Message) (Message, error) { return m, nil }
	return newQueues(workers, same, same)
}

// NewGobTransport builds the serializing transport for k workers: the
// channel transport with every message gob-encoded on send and decoded on
// receive — the in-process stand-in for an RPC transport, proving on every
// run that the message boundary is serializable.
func NewGobTransport(workers int) Transport {
	return newQueues(workers, EncodeMessage, DecodeMessage)
}

// queues is the in-process core of every transport: one buffered inbox per
// worker slot plus the shared upward queue, carrying T — message values
// (chan) or their gob frames (gob, and the http transport's coordinator
// side). enc and dec convert at the boundary.
type queues[T any] struct {
	down []chan T
	up   chan T
	done chan struct{}
	once sync.Once
	enc  func(Message) (T, error)
	dec  func(T) (Message, error)
}

func newQueues[T any](workers int, enc func(Message) (T, error), dec func(T) (Message, error)) *queues[T] {
	q := &queues[T]{
		down: make([]chan T, workers),
		up:   make(chan T, 2*workers), // every reply of a run: two per worker
		done: make(chan struct{}),
		enc:  enc,
		dec:  dec,
	}
	for w := range q.down {
		// Lets the coordinator ship this many chunks ahead of a worker's
		// ingest before backpressure holds it.
		q.down[w] = make(chan T, 64)
	}
	return q
}

func (q *queues[T]) inbox(w int) (chan T, error) {
	if w < 0 || w >= len(q.down) {
		return nil, fmt.Errorf("distributed: no worker %d", w)
	}
	return q.down[w], nil
}

// closed reports whether Close has run, so a call after it fails even when
// its channel is ready.
func (q *queues[T]) closed() bool {
	select {
	case <-q.done:
		return true
	default:
		return false
	}
}

func (q *queues[T]) ToWorkerDeadline(w int, m Message, d time.Duration) error {
	ch, err := q.inbox(w)
	if err != nil {
		return err
	}
	v, err := q.enc(m)
	if err != nil {
		return err
	}
	if q.closed() {
		return errTransportClosed
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case ch <- v:
		return nil
	case <-q.done:
		return errTransportClosed
	case <-t.C:
		return ErrTimeout
	}
}

func (q *queues[T]) WorkerRecv(w int) (Message, error) {
	ch, err := q.inbox(w)
	if err != nil {
		return nil, err
	}
	return q.recv(ch)
}

func (q *queues[T]) ToCoordinator(m Message) error {
	v, err := q.enc(m)
	if err != nil {
		return err
	}
	return q.send(v)
}

// send puts an encoded reply on the upward queue.
func (q *queues[T]) send(v T) error {
	if q.closed() {
		return errTransportClosed
	}
	select {
	case q.up <- v:
		return nil
	case <-q.done:
		return errTransportClosed
	}
}

func (q *queues[T]) CoordinatorRecv() (Message, error) {
	return q.recv(q.up)
}

func (q *queues[T]) recv(ch chan T) (Message, error) {
	if q.closed() {
		return nil, errTransportClosed
	}
	select {
	case v := <-ch:
		return q.dec(v)
	case <-q.done:
		return nil, errTransportClosed
	}
}

func (q *queues[T]) Close() error {
	q.once.Do(func() { close(q.done) })
	return nil
}
