package distributed

import (
	"context"
	"strings"
	"testing"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/index"
)

// FuzzDecodeMessage hammers the gob wire framing with arbitrary bytes: a
// malformed frame must come back as an error, never a panic or a hang — a
// worker reading a half-written socket, or a hostile peer, must not be able
// to take the coordinator down. Valid frames seed the corpus so mutations
// explore the interesting prefix space.
func FuzzDecodeMessage(f *testing.F) {
	seeds := []Message{
		Init{Worker: 1, Partition: 1, Epoch: 2, HeartbeatNS: 1e9,
			SchemaAttrs: []string{"A", "B"},
			Rules:       []WireRule{{ID: "r", Kind: 1, Reason: []WirePattern{{Attr: "A"}}, Result: []WirePattern{{Attr: "B"}}}}},
		TupleBatch{Worker: 0, Epoch: 1, IDs: []int{1, 2}, Rows: [][]string{{"x", "y"}, {"z", "w"}}},
		StartStageI{Worker: 3, Epoch: 1, SkipLearn: true},
		WeightSummaries{Worker: 2, Partition: 2, Epoch: 0, Summaries: []index.PieceSummary{{RuleID: "r", Key: "k", Count: 2, Weight: 0.5}}},
		MergedWeights{Worker: 1, Epoch: 3, Merged: []index.PieceSummary{{RuleID: "r", Key: "k", Count: 1, Weight: 1}}},
		FusionResult{Worker: 0, Partition: 0, Epoch: 1, PartSize: 4,
			Blocks: []WireFusionBlock{{Pieces: []WirePiece{{Reason: []string{"a"}, Result: []string{"b"}, TupleIDs: []int{1}, Weight: 0.25}}}}},
		Heartbeat{Worker: 5, Partition: 3, Epoch: 2, Sent: 1},
	}
	for _, m := range seeds {
		b, err := EncodeMessage(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x7f})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMessage(b)
		if err != nil {
			return // malformed frames must error, and they did
		}
		// A frame that decoded must re-encode: the decoded value is a real
		// protocol message, not a half-initialized husk.
		if _, err := EncodeMessage(m); err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
	})
}

// TestWorkerRejectsMismatchedBatch: a TupleBatch that decodes but carries
// fewer IDs than rows must not take the worker down (FuzzDecodeMessage's
// promise covers only the decoder): the worker records it as an ingest
// error and answers StartStageI with it, so the run fails cleanly.
func TestWorkerRejectsMismatchedBatch(t *testing.T) {
	tr := NewChanTransport(1)
	defer tr.Close()
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		workerMain(context.Background(), tr, 0, core.Options{})
	}()
	for _, m := range []Message{
		Init{SchemaAttrs: []string{"A", "B"},
			Rules: []WireRule{{ID: "r", Reason: []WirePattern{{Attr: "A"}}, Result: []WirePattern{{Attr: "B"}}}}},
		TupleBatch{IDs: []int{1}, Rows: [][]string{{"x", "y"}, {"z", "w"}}},
		StartStageI{},
	} {
		if err := tr.ToWorkerDeadline(0, m, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	m, err := tr.CoordinatorRecvDeadline(5 * time.Second)
	if err != nil {
		t.Fatalf("no reply from the worker: %v", err)
	}
	ws, ok := m.(WeightSummaries)
	if !ok || !strings.Contains(ws.Err, "TupleBatch") {
		t.Fatalf("reply = %#v, want WeightSummaries with a TupleBatch error", m)
	}
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("worker still running after reporting its error")
	}
}
