package distributed

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
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
//
// A request that fails fails the worker's transport call; the worker then
// exits and the run ends (see Executor). Nothing is retried.

// httpTransport is the coordinator side: the gob transport's queues,
// exposed over an HTTP listener.
type httpTransport struct {
	*queues[[]byte]
	srv *http.Server
	url string
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
		queues: newQueues(workers, EncodeMessage, DecodeMessage),
		url:    "http://" + ln.Addr().String(),
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
func (t *httpTransport) LocalWorkerTransport() workerLink {
	return httpWorker{base: t.url}
}

func (t *httpTransport) handleRecv(w http.ResponseWriter, r *http.Request) {
	var wid int
	if _, err := fmt.Sscanf(r.URL.Query().Get("worker"), "%d", &wid); err != nil {
		http.Error(w, "bad worker id", http.StatusBadRequest)
		return
	}
	inbox, err := t.inbox(wid)
	if err != nil {
		http.Error(w, "bad worker id", http.StatusBadRequest)
		return
	}
	select {
	case b := <-inbox:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(b) // a failed write fails the worker's poll, which ends the run
	case <-t.done:
		http.Error(w, "transport closed", http.StatusGone)
	case <-r.Context().Done():
	}
}

func (t *httpTransport) handleSend(w http.ResponseWriter, r *http.Request) {
	b, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := t.send(b); err != nil {
		http.Error(w, err.Error(), http.StatusGone)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (t *httpTransport) Close() error {
	t.queues.Close()
	t.srv.Close()
	return nil
}

// httpWorker is the worker side: a client bound to the coordinator's URL.
// Long polls have no client timeout: a worker may legitimately wait minutes
// for MergedWeights while the slowest peer learns; the coordinator's Close
// ends the poll.
type httpWorker struct{ base string }

func (t httpWorker) WorkerRecv(w int) (Message, error) {
	resp, err := http.Get(fmt.Sprintf("%s/recv?worker=%d", t.base, w))
	if err != nil {
		return nil, fmt.Errorf("distributed: http recv: %w", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("distributed: http recv: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("distributed: http recv: %s", resp.Status)
	}
	return DecodeMessage(b)
}

func (t httpWorker) ToCoordinator(m Message) error {
	b, err := EncodeMessage(m)
	if err != nil {
		return err
	}
	resp, err := http.Post(t.base+"/send", "application/octet-stream", bytes.NewReader(b))
	if err != nil {
		return fmt.Errorf("distributed: http send: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("distributed: http send: %s", resp.Status)
	}
	return nil
}

// failedTransport reports a construction error through every operation, so
// a TransportFactory that cannot listen still satisfies the interface.
type failedTransport struct{ err error }

func (t *failedTransport) ToWorkerDeadline(int, Message, time.Duration) error { return t.err }
func (t *failedTransport) WorkerRecv(int) (Message, error)                    { return nil, t.err }
func (t *failedTransport) ToCoordinator(Message) error                        { return t.err }
func (t *failedTransport) CoordinatorRecv() (Message, error)                  { return nil, t.err }
func (t *failedTransport) Close() error                                       { return nil }
