package distributed

import (
	"context"
	"strings"
	"testing"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/intern"
	"mlnclean/internal/rules"
)

// FuzzDecodeMessage hammers the gob wire framing with arbitrary bytes: a
// malformed frame must come back as an error, never a panic or a hang — a
// worker reading a half-written socket, or a hostile peer, must not be able
// to take the coordinator down. Valid frames seed the corpus so mutations
// explore the interesting prefix space.
func FuzzDecodeMessage(f *testing.F) {
	seeds := []Message{
		Init{Worker: 1, SchemaAttrs: []string{"A", "B"},
			Rules: []WireRule{{ID: "r", Kind: 1, Reason: []WirePattern{{Attr: "A"}}, Result: []WirePattern{{Attr: "B"}}}}},
		TupleBatch{Worker: 0, IDs: []int{1, 2}, Rows: []uint32{0, 1, 2, 0}, Delta: "xyz", DeltaEnds: []int{1, 2, 3}},
		StartStageI{Worker: 3},
		WeightSummaries{Worker: 2, Rules: []RuleWeights{{IDs: []uint32{0, 1}, Counts: []int{2}, Weights: []float64{0.5}}}},
		MergedWeights{Worker: 1, Rules: []RuleWeights{{IDs: []uint32{0, 1}, Counts: []int{1}, Weights: []float64{1}}}},
		FusionResult{Worker: 0, PartSize: 4,
			Blocks: []WireFusionBlock{{Pieces: []WirePiece{{Values: []uint32{0, 1}, TupleIDs: []int{1}, Weight: 0.25}}}}},
		FusionResult{Worker: 1, Err: "protocol: MergedWeights before stage I"},
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

// rejectInit is a one-rule, two-attribute Init for the rejection tests.
var rejectInit = Init{SchemaAttrs: []string{"A", "B"},
	Rules: []WireRule{{ID: "r", Reason: []WirePattern{{Attr: "A"}}, Result: []WirePattern{{Attr: "B"}}}}}

// okBatch is a well-formed first batch under rejectInit: tuples (x, y) and
// (y, x), in coordinator IDs 5 and 9.
var okBatch = TupleBatch{IDs: []int{0, 1}, Rows: []uint32{5, 9, 9, 5}, Delta: "xy", DeltaEnds: []int{1, 2}}

// TestWorkerRejectsMismatchedBatch: a frame that decodes but does not agree
// with itself or with what the worker was sent before must not take the
// worker down, or be half-applied in silence (FuzzDecodeMessage's promise
// covers only the decoder). A bad TupleBatch is an ingest error the worker
// answers StartStageI with; a bad MergedWeights is answered with a
// FusionResult error. Either way the run fails cleanly.
func TestWorkerRejectsMismatchedBatch(t *testing.T) {
	cases := []struct {
		name string
		msgs []Message
		want string
	}{
		{"rows not IDs × width",
			[]Message{TupleBatch{IDs: []int{1}, Rows: []uint32{0, 1, 2, 3}, Delta: "abcd", DeltaEnds: []int{1, 2, 3, 4}}},
			"TupleBatch with 4 value IDs for 1 tuples"},
		{"ID never sent a string",
			[]Message{okBatch, TupleBatch{IDs: []int{2}, Rows: []uint32{5, 7}}},
			"value ID 7 arrives without its string"},
		{"offsets not monotone",
			[]Message{TupleBatch{IDs: []int{0}, Rows: []uint32{0, 1}, Delta: "xy", DeltaEnds: []int{2, 1}}},
			"delta offset 1 outside"},
		{"offset past the blob",
			[]Message{TupleBatch{IDs: []int{0}, Rows: []uint32{0, 1}, Delta: "xy", DeltaEnds: []int{1, 5}}},
			"delta offset 5 outside"},
		{"bytes past the last offset",
			[]Message{TupleBatch{IDs: []int{0}, Rows: []uint32{0, 0}, Delta: "xy", DeltaEnds: []int{1}}},
			"1 bytes past its last string"},
		{"strings the rows do not use",
			[]Message{TupleBatch{IDs: []int{0}, Rows: []uint32{0, 0}, Delta: "xy", DeltaEnds: []int{1, 2}}},
			"delta has 2 strings, its rows use 1"},
		{"string sent twice",
			[]Message{okBatch, TupleBatch{IDs: []int{2}, Rows: []uint32{5, 6}, Delta: "x", DeltaEnds: []int{1}}},
			`sends "x" for value ID 6, already sent as value ID 5`},
		{"ID out of range",
			[]Message{TupleBatch{IDs: []int{0}, Rows: []uint32{1 << 31, 0}, Delta: "xy", DeltaEnds: []int{1, 2}}},
			"value ID 2147483648 out of range"},
		{"merged weights for the wrong rule count",
			[]Message{okBatch, StartStageI{}, MergedWeights{Rules: make([]RuleWeights, 2)}},
			"MergedWeights for 2 rules, want 1"},
		{"merged weights with ragged columns",
			[]Message{okBatch, StartStageI{}, MergedWeights{Rules: []RuleWeights{{IDs: []uint32{5, 9, 9}, Counts: []int{1}, Weights: []float64{1}}}}},
			"MergedWeights rule 0: 3 value IDs, 1 counts and 1 weights"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewChanTransport(1)
			defer tr.Close()
			exited := make(chan error, 1)
			go func() { exited <- workerMain(context.Background(), tr, 0, core.Options{}) }()
			msgs := append([]Message{rejectInit}, tc.msgs...)
			if _, ok := tc.msgs[len(tc.msgs)-1].(MergedWeights); !ok {
				msgs = append(msgs, StartStageI{})
			}
			for _, m := range msgs {
				if err := tr.ToWorkerDeadline(0, m, time.Second); err != nil {
					t.Fatal(err)
				}
			}
			// Closing the transport bounds the wait for a reply.
			stop := time.AfterFunc(5*time.Second, func() { tr.Close() })
			defer stop.Stop()
			var werr string
			for werr == "" {
				m, err := tr.CoordinatorRecv()
				if err != nil {
					t.Fatalf("no error reply from the worker: %v", err)
				}
				_, werr, _ = replyFrom(m)
			}
			if !strings.HasPrefix(werr, "protocol: ") || !strings.Contains(werr, tc.want) {
				t.Fatalf("worker error %q, want a protocol error containing %q", werr, tc.want)
			}
			select {
			case err := <-exited:
				if err == nil || err.Error() != werr {
					t.Errorf("worker exited with %v, want %q", err, werr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("worker still running after reporting its error")
			}
		})
	}
}

// tamperReplies rewrites worker replies on their way to the coordinator.
type tamperReplies struct {
	Transport
	tamper func(Message) Message
}

func (t *tamperReplies) CoordinatorRecv() (Message, error) {
	m, err := t.Transport.CoordinatorRecv()
	if err != nil {
		return nil, err
	}
	return t.tamper(m), nil
}

// TestCoordinatorRejectsMalformedReplies: a worker reply naming a value ID
// the coordinator's dictionary does not hold, a piece whose value count is
// not its rule's arity, a reply whose rule or block count is not the rule
// count, or a block in which two pieces claim one tuple ends the run with a
// protocol error — no panic, no out-of-range index, no surplus block or
// repeated claim dropped in silence.
func TestCoordinatorRejectsMalformedReplies(t *testing.T) {
	rs := rules.MustParseStrings("FD: A -> B")
	dirty := randomTable(5, 40)
	summaries := func(f func([]RuleWeights) []RuleWeights) func(Message) Message {
		return func(m Message) Message {
			if ws, ok := m.(WeightSummaries); ok && ws.Worker == 0 {
				ws.Rules = f(append([]RuleWeights(nil), ws.Rules...))
				return ws
			}
			return m
		}
	}
	blocks := func(f func([]WireFusionBlock) []WireFusionBlock) func(Message) Message {
		return func(m Message) Message {
			if fr, ok := m.(FusionResult); ok && fr.Worker == 0 {
				fr.Blocks = f(append([]WireFusionBlock(nil), fr.Blocks...))
				return fr
			}
			return m
		}
	}
	firstPiece := func(f func(WirePiece) WirePiece) func(Message) Message {
		return blocks(func(bs []WireFusionBlock) []WireFusionBlock {
			ps := append([]WirePiece(nil), bs[0].Pieces...)
			ps[0] = f(ps[0])
			bs[0].Pieces = ps
			return bs
		})
	}
	cases := []struct {
		name   string
		tamper func(Message) Message
		want   string
	}{
		{"summaries for too few rules",
			summaries(func(rw []RuleWeights) []RuleWeights { return rw[:0] }),
			"WeightSummaries from partition 0: 0 rules, want 1"},
		{"summary value ID past the dictionary",
			summaries(func(rw []RuleWeights) []RuleWeights {
				rw[0].IDs = append([]uint32{1 << 20}, rw[0].IDs[1:]...)
				return rw
			}),
			"value ID 1048576 past the dictionary's"},
		{"summary columns of different lengths",
			summaries(func(rw []RuleWeights) []RuleWeights {
				rw[0].Counts = rw[0].Counts[1:]
				return rw
			}),
			"WeightSummaries from partition 0: rule 0:"},
		{"a surplus block",
			blocks(func(bs []WireFusionBlock) []WireFusionBlock { return append(bs, bs[0]) }),
			"FusionResult from partition 0: 2 blocks for 1 rules"},
		{"a missing block",
			blocks(func(bs []WireFusionBlock) []WireFusionBlock { return bs[:0] }),
			"FusionResult from partition 0: 0 blocks for 1 rules"},
		{"piece value ID past the dictionary",
			firstPiece(func(p WirePiece) WirePiece {
				p.Values = []uint32{p.Values[0], 1 << 20}
				return p
			}),
			"block 0: value ID 1048576 past the dictionary's"},
		{"piece short of its rule's arity",
			firstPiece(func(p WirePiece) WirePiece {
				p.Values = p.Values[:1]
				return p
			}),
			"block 0: piece of 1 values, rule has 2"},
		{"a piece sent twice",
			blocks(func(bs []WireFusionBlock) []WireFusionBlock {
				bs[0].Pieces = append(append([]WirePiece(nil), bs[0].Pieces...), bs[0].Pieces[0])
				return bs
			}),
			"claimed by two pieces"},
		{"a piece naming a tuple never shipped",
			firstPiece(func(p WirePiece) WirePiece {
				p.TupleIDs = append(append([]int(nil), p.TupleIDs...), dirty.Len())
				return p
			}),
			"block 0: tuple 40 was never shipped"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Workers: 2, Seed: 1}
			opts.Transport = func(k int) Transport {
				return &tamperReplies{Transport: NewChanTransport(k), tamper: tc.tamper}
			}
			_, err := Clean(dirty, rs, opts)
			if err == nil || !strings.Contains(err.Error(), "distributed: protocol: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Clean = %v, want a protocol error containing %q", err, tc.want)
			}
		})
	}
}

// TestUnionRejectsTupleClaimedAcrossWorkers: a tuple lives in one partition,
// so two workers whose blocks both claim it disagree with the run.
func TestUnionRejectsTupleClaimedAcrossWorkers(t *testing.T) {
	rs := rules.MustParseStrings("FD: A -> B")
	dict := intern.NewDict()
	a, b, c := dict.Intern("a"), dict.Intern("b"), dict.Intern("c")
	reply := func(w int, values ...uint32) FusionResult {
		return FusionResult{Worker: w, Blocks: []WireFusionBlock{{Pieces: []WirePiece{{Values: values, TupleIDs: []int{7}, Weight: 1}}}}}
	}
	dirty := randomTable(8, 40)
	if _, err := unionWireBlocks([]FusionResult{reply(0, a, b)}, rs, dict, dirty); err != nil {
		t.Fatalf("one claim: %v", err)
	}
	_, err := unionWireBlocks([]FusionResult{reply(0, a, b), reply(1, a, c)}, rs, dict, dirty)
	if err == nil || !strings.Contains(err.Error(), "distributed: protocol: block 0: tuple 7 claimed by two pieces") {
		t.Fatalf("unionWireBlocks = %v, want a protocol error for tuple 7", err)
	}
}
