package distributed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"mlnclean/internal/core"
)

// The HTTP transport moves the executor's messages over real HTTP on the
// gob wire framing (EncodeMessage/DecodeMessage), making the distributed
// executor genuinely distributable: workers long-poll the coordinator for
// their inbox and POST replies back, so a worker may live in any process
// that can reach the coordinator's listener.
//
// Coordinator endpoints:
//
//	POST /claim             → {"worker":w,"workers":k}; each id handed out once
//	GET  /recv?worker=w     → next gob-framed message for worker w (long poll;
//	                          410 Gone once the transport is closed)
//	POST /send              → gob-framed worker reply (204)
//
// NewHTTPTransport (flag name "http") binds to loopback and spawns its
// workers in-process, each talking to the coordinator through a real HTTP
// client — every message crosses the wire, the serving default.
// NewRemoteHTTPTransport binds to a chosen address and spawns nothing;
// workers attach from other processes with ServeHTTPWorker (cmd/mlnworker).

// httpTransport is the coordinator side: gob-framed per-worker inboxes plus
// the shared upward queue, exposed over an HTTP listener.
type httpTransport struct {
	inboxes *inboxSet[[]byte]
	up      chan []byte
	done    chan struct{}
	once    sync.Once

	srv *http.Server
	url string

	claimMu   sync.Mutex
	nextClaim int

	// redeliver holds, per worker slot, messages whose HTTP delivery failed
	// mid-write (client dropped the long poll as the coordinator dequeued).
	// They are served before the inbox channel so delivery order holds and
	// a flaky connection cannot permanently lose a protocol message.
	redeliverMu sync.Mutex
	redeliver   map[int][][]byte

	localWorkers bool
}

// NewHTTPTransport builds the loopback HTTP transport for k workers: the
// coordinator listens on a random 127.0.0.1 port and the executor's locally
// spawned workers connect back over real HTTP.
func NewHTTPTransport(workers int) Transport {
	t, err := newHTTPTransport(workers, "127.0.0.1:0", true)
	if err != nil {
		// Match the TransportFactory signature: surface the listen failure
		// through the first transport operation instead of panicking.
		return &failedTransport{err: err}
	}
	return t
}

// NewRemoteHTTPTransport returns a factory for a coordinator listening on
// addr whose workers attach from other processes via ServeHTTPWorker. The
// executor spawns no local workers; the run blocks until k workers have
// claimed slots and drained their inboxes.
//
// Fault model: transient connection failures heal (client retries + the
// coordinator's redeliver queue); a permanently lost worker process is
// detected by the executor's heartbeat timeout, which adds a fresh claimable
// slot (AddWorker) and replays the dead worker's partition onto it — a spare
// or reconnecting mlnworker picks the slot up and the run completes.
func NewRemoteHTTPTransport(addr string) TransportFactory {
	return func(workers int) Transport {
		t, err := newHTTPTransport(workers, addr, false)
		if err != nil {
			return &failedTransport{err: err}
		}
		return t
	}
}

func newHTTPTransport(workers int, addr string, localWorkers bool) (*httpTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("distributed: http transport listen %s: %w", addr, err)
	}
	t := &httpTransport{
		inboxes:      newInboxSet[[]byte](workers),
		up:           make(chan []byte, 4*workers),
		done:         make(chan struct{}),
		url:          "http://" + ln.Addr().String(),
		redeliver:    make(map[int][][]byte),
		localWorkers: localWorkers,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /claim", t.handleClaim)
	mux.HandleFunc("GET /recv", t.handleRecv)
	mux.HandleFunc("POST /send", t.handleSend)
	t.srv = &http.Server{Handler: mux}
	go t.srv.Serve(ln)
	return t, nil
}

// CoordinatorURL returns the base URL workers attach to.
func (t *httpTransport) CoordinatorURL() string { return t.url }

// LocalWorkerTransport implements workerHoster: loopback transports hand the
// executor an HTTP client bound to their URL; remote transports return nil
// so the executor spawns no workers.
func (t *httpTransport) LocalWorkerTransport() Transport {
	if !t.localWorkers {
		return nil
	}
	return NewHTTPWorkerTransport(t.url)
}

func (t *httpTransport) handleClaim(w http.ResponseWriter, r *http.Request) {
	// The slot count is read under claimMu so a claim racing AddWorker (a
	// recovery re-dispatch opening a slot) cannot see the pre-growth length
	// and bounce a spare with a spurious conflict.
	t.claimMu.Lock()
	slots := t.inboxes.len()
	id := t.nextClaim
	if id < slots {
		t.nextClaim++
	}
	t.claimMu.Unlock()
	if id >= slots {
		http.Error(w, "all worker slots claimed", http.StatusConflict)
		return
	}
	// Tell the coordinator the slot is live before the worker even speaks:
	// a claimed-then-crashed worker must be detectable by silence, while an
	// unclaimed slot must never time out (the fleet may just be late). The
	// handler must not block on a full upward queue (recovery depends on
	// spares being able to claim at any moment), but the signal must not be
	// lost either — a worker that dies before its first beacon would
	// otherwise stay exempt from detection forever — so a full queue hands
	// delivery to a goroutine that waits the congestion out.
	if b, err := EncodeMessage(WorkerAttached{Worker: id}); err == nil {
		select {
		case t.up <- b:
		default:
			go func() {
				select {
				case t.up <- b:
				case <-t.done:
				}
			}()
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int{"worker": id, "workers": slots})
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

// AddWorker appends a fresh claimable slot: the next /claim hands it to a
// spare or reconnecting worker process, which then drains the replayed
// partition from its inbox. The growth happens under claimMu so a claim
// racing it sees either the pre- or post-growth slot count consistently
// (handleClaim reads the count under the same lock).
func (t *httpTransport) AddWorker() (int, error) {
	select {
	case <-t.done:
		return 0, errTransportClosed
	default:
	}
	t.claimMu.Lock()
	defer t.claimMu.Unlock()
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

// NewHTTPWorkerTransport returns the worker-side transport for a coordinator
// at base (e.g. "http://10.0.0.5:7701"). Long polls have no client timeout:
// a worker may legitimately wait minutes for MergedWeights while the slowest
// peer learns; Close aborts any in-flight request.
func NewHTTPWorkerTransport(base string) Transport {
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

// ServeHTTPWorker attaches one worker to the coordinator at base: it claims
// the next free worker slot and runs the standard worker loop over HTTP,
// reconstructing its pipeline options from the Init message. It returns when
// the run completes, ctx is cancelled, or the coordinator goes away.
func ServeHTTPWorker(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/claim", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("distributed: claim worker slot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("distributed: claim worker slot: %s", resp.Status)
	}
	var claim struct{ Worker, Workers int }
	if err := json.NewDecoder(resp.Body).Decode(&claim); err != nil {
		return fmt.Errorf("distributed: claim worker slot: %w", err)
	}
	tr := NewHTTPWorkerTransport(base)
	defer tr.Close()
	stop := context.AfterFunc(ctx, func() { tr.Close() })
	defer stop()
	workerMain(ctx, tr, claim.Worker, core.Options{}, true)
	return ctx.Err()
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
