package distributed

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// The HTTP transport moves the executor's messages over real HTTP on the
// gob wire framing (EncodeMessage/DecodeMessage): workers long-poll the
// coordinator for their inbox and POST replies back. The coordinator binds
// to loopback and the executor's worker goroutines each talk to it through
// a real HTTP client, so every message crosses a socket — the
// process-boundary proof the benchmark cross-checks (chan == gob == http).
//
// Coordinator endpoints:
//
//	GET  /recv?worker=w     → next gob-framed message for worker w (long poll;
//	                          410 Gone once the transport is closed)
//	POST /send              → gob-framed worker reply (204)

// httpTransport is the coordinator side: gob-framed per-worker inboxes plus
// the shared upward queue, exposed over an HTTP listener.
type httpTransport struct {
	inboxes *inboxSet[[]byte]
	up      chan []byte
	done    chan struct{}
	once    sync.Once

	srv *http.Server
	url string

	// redeliver holds, per worker slot, messages whose HTTP delivery failed
	// mid-write (client dropped the long poll as the coordinator dequeued).
	// They are served before the inbox channel so delivery order holds and
	// a flaky connection cannot permanently lose a protocol message.
	redeliverMu sync.Mutex
	redeliver   map[int][][]byte
}

// NewHTTPTransport builds the loopback HTTP transport (flag name "http") for
// k workers: the coordinator listens on a random 127.0.0.1 port and the
// executor's workers connect back over real HTTP.
func NewHTTPTransport(workers int) Transport {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		// Match the TransportFactory signature: surface the listen failure
		// through the first transport operation instead of panicking.
		return &failedTransport{err: fmt.Errorf("distributed: http transport listen: %w", err)}
	}
	t := &httpTransport{
		inboxes:   newInboxSet[[]byte](workers),
		up:        make(chan []byte, 4*workers),
		done:      make(chan struct{}),
		url:       "http://" + ln.Addr().String(),
		redeliver: make(map[int][][]byte),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /recv", t.handleRecv)
	mux.HandleFunc("POST /send", t.handleSend)
	t.srv = &http.Server{Handler: mux}
	go t.srv.Serve(ln)
	return t
}

// LocalWorkerTransport implements workerHoster: the executor's workers get
// an HTTP client bound to the coordinator's URL.
func (t *httpTransport) LocalWorkerTransport() Transport {
	return newHTTPWorkerTransport(t.url)
}

func (t *httpTransport) handleRecv(w http.ResponseWriter, r *http.Request) {
	var wid int
	if _, err := fmt.Sscanf(r.URL.Query().Get("worker"), "%d", &wid); err != nil {
		http.Error(w, "bad worker id", http.StatusBadRequest)
		return
	}
	inbox, err := t.inboxes.get(wid)
	if err != nil {
		http.Error(w, "bad worker id", http.StatusBadRequest)
		return
	}
	b := t.popRedeliver(wid)
	if b == nil {
		select {
		case b = <-inbox:
		case <-t.done:
			http.Error(w, "transport closed", http.StatusGone)
			return
		case <-r.Context().Done():
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := w.Write(b); err != nil {
		t.pushRedeliver(wid, b)
		return
	}
	// Force the response onto the wire: a small write sits in the buffer
	// and would "succeed" even after the client vanished, silently losing
	// the dequeued message.
	if err := http.NewResponseController(w).Flush(); err != nil {
		t.pushRedeliver(wid, b)
	}
}

// popRedeliver takes the oldest failed-delivery message for worker w, nil
// when there is none.
func (t *httpTransport) popRedeliver(w int) []byte {
	t.redeliverMu.Lock()
	defer t.redeliverMu.Unlock()
	q := t.redeliver[w]
	if len(q) == 0 {
		return nil
	}
	b := q[0]
	if len(q) == 1 {
		delete(t.redeliver, w)
	} else {
		t.redeliver[w] = q[1:]
	}
	return b
}

// pushRedeliver re-queues a message whose HTTP write failed, behind any
// earlier failures, for the worker's next poll.
func (t *httpTransport) pushRedeliver(w int, b []byte) {
	t.redeliverMu.Lock()
	t.redeliver[w] = append(t.redeliver[w], b)
	t.redeliverMu.Unlock()
}

func (t *httpTransport) handleSend(w http.ResponseWriter, r *http.Request) {
	b, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	select {
	case t.up <- b:
		w.WriteHeader(http.StatusNoContent)
	case <-t.done:
		http.Error(w, "transport closed", http.StatusGone)
	}
}

func (t *httpTransport) ToWorkerDeadline(w int, m Message, d time.Duration) error {
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

// WorkerRecv on the coordinator value reads the worker's inbox directly; it
// exists so the transport satisfies the full interface, but HTTP workers
// receive through /recv, never through this method.
func (t *httpTransport) WorkerRecv(w int) (Message, error) {
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

func (t *httpTransport) ToCoordinator(m Message) error {
	b, err := EncodeMessage(m)
	if err != nil {
		return err
	}
	select {
	case t.up <- b:
		return nil
	case <-t.done:
		return errTransportClosed
	}
}

func (t *httpTransport) CoordinatorRecvDeadline(d time.Duration) (Message, error) {
	b, err := recvInbox(t.up, t.done, d)
	if err != nil {
		return nil, err
	}
	return DecodeMessage(b)
}

func (t *httpTransport) AddWorker() (int, error) {
	select {
	case <-t.done:
		return 0, errTransportClosed
	default:
	}
	return t.inboxes.add(), nil
}

func (t *httpTransport) Close() error {
	t.once.Do(func() {
		close(t.done)
		t.srv.Close()
	})
	return nil
}

// httpWorkerTransport is the worker side: a client bound to the
// coordinator's URL. WorkerRecv long-polls /recv; ToCoordinator POSTs /send.
type httpWorkerTransport struct {
	base   string
	client *http.Client
	ctx    context.Context // cancelled by Close; bounds every request
	cancel context.CancelFunc
}

// newHTTPWorkerTransport returns the worker-side transport for a coordinator
// at base (e.g. "http://127.0.0.1:7701"). Long polls have no client timeout:
// a worker may legitimately wait minutes for MergedWeights while the slowest
// peer learns; Close aborts any in-flight request.
func newHTTPWorkerTransport(base string) Transport {
	ctx, cancel := context.WithCancel(context.Background())
	return &httpWorkerTransport{
		base:   base,
		client: &http.Client{},
		ctx:    ctx,
		cancel: cancel,
	}
}

// recvRetries bounds WorkerRecv's retries of transient long-poll failures
// (connection resets, proxy timeouts). Retrying is what makes the
// coordinator's redeliver queue reachable: a message dequeued into a dying
// response is re-queued server-side and picked up by the retry poll. A 410
// (transport closed) or 4xx is fatal immediately.
const recvRetries = 5

func (t *httpWorkerTransport) WorkerRecv(w int) (Message, error) {
	var lastErr error
	for attempt := 0; attempt <= recvRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-t.ctx.Done():
				return nil, t.ctx.Err()
			case <-time.After(time.Duration(attempt) * 100 * time.Millisecond):
			}
		}
		req, err := http.NewRequestWithContext(t.ctx, http.MethodGet, fmt.Sprintf("%s/recv?worker=%d", t.base, w), nil)
		if err != nil {
			return nil, err
		}
		resp, err := t.client.Do(req)
		if err != nil {
			if t.ctx.Err() != nil {
				return nil, t.ctx.Err()
			}
			lastErr = fmt.Errorf("distributed: http recv: %w", err)
			continue
		}
		b, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK && readErr == nil:
			return DecodeMessage(b)
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			return nil, fmt.Errorf("distributed: http recv: %s", resp.Status)
		default:
			lastErr = fmt.Errorf("distributed: http recv: %s", resp.Status)
			if readErr != nil {
				lastErr = fmt.Errorf("distributed: http recv: %w", readErr)
			}
		}
	}
	return nil, lastErr
}

func (t *httpWorkerTransport) ToCoordinator(m Message) error {
	b, err := EncodeMessage(m)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(t.ctx, http.MethodPost, t.base+"/send", bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := t.client.Do(req)
	if err != nil {
		return fmt.Errorf("distributed: http send: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("distributed: http send: %s", resp.Status)
	}
	return nil
}

func (t *httpWorkerTransport) ToWorkerDeadline(int, Message, time.Duration) error {
	return fmt.Errorf("distributed: ToWorker on worker-side http transport")
}

func (t *httpWorkerTransport) CoordinatorRecvDeadline(time.Duration) (Message, error) {
	return nil, fmt.Errorf("distributed: CoordinatorRecv on worker-side http transport")
}

func (t *httpWorkerTransport) AddWorker() (int, error) {
	return 0, fmt.Errorf("distributed: AddWorker on worker-side http transport")
}

func (t *httpWorkerTransport) Close() error {
	t.cancel()
	t.client.CloseIdleConnections()
	return nil
}

// failedTransport reports a construction error through every operation, so
// a TransportFactory that cannot listen still satisfies the interface.
type failedTransport struct{ err error }

func (t *failedTransport) ToWorkerDeadline(int, Message, time.Duration) error     { return t.err }
func (t *failedTransport) WorkerRecv(int) (Message, error)                        { return nil, t.err }
func (t *failedTransport) ToCoordinator(Message) error                            { return t.err }
func (t *failedTransport) CoordinatorRecvDeadline(time.Duration) (Message, error) { return nil, t.err }
func (t *failedTransport) AddWorker() (int, error)                                { return 0, t.err }
func (t *failedTransport) Close() error                                           { return nil }
