package distributed

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"mlnclean/internal/core"
	"mlnclean/internal/index"
	"mlnclean/internal/rules"
)

// The executor's message boundary. Every message is plain old data —
// strings, ints, floats, slices of the same — so a transport may marshal it
// across a process boundary; EncodeMessage/DecodeMessage provide the gob
// framing an RPC transport would use, and GobTransport exercises it on every
// message in-process.
//
// Protocol, per worker slot w (coordinator → worker unless noted):
//
//	Init            schema + rules + partition lease; sent once, first
//	TupleBatch      0+ partition shipments (streamed, batched)
//	StartStageI     partition complete → worker builds its index, runs
//	                AGP + weight learning, replies with WeightSummaries (↑)
//	MergedWeights   the Eq. 6 reduce result → worker applies it, runs
//	                RSC + its local FSCR, replies with FusionResult (↑)
//	                and terminates
//	Heartbeat       (↑) periodic liveness beacon while the worker holds a
//	                lease; carries the count of protocol replies sent so the
//	                coordinator can detect a lost reply
//
// Fault tolerance: Init leases one logical partition to one physical worker
// slot under an epoch. When the coordinator declares a worker dead it bumps
// the partition's epoch and replays the full Init/TupleBatch/StartStageI
// (and, mid-stage-II, MergedWeights) sequence onto a fresh slot; workers
// silently discard messages from epochs other than their lease's, and the
// coordinator discards replies stamped with a stale epoch, so a
// falsely-declared-dead worker's late replies are inert.
type Message interface{ isMessage() }

// Init bootstraps a worker with the table schema and the rule set; the
// pipeline options reach a worker in-process (core.Options carries a Metric
// implementation and a Trace, which have no wire form).
//
// Partition and Epoch are the lease: Worker is the physical slot the message
// routes to, Partition the logical partition the slot now owns, and Epoch
// the lease generation (0 on first dispatch, incremented per re-dispatch
// after a failure). HeartbeatNS > 0 asks the worker to emit a Heartbeat at
// that interval while it holds the lease.
type Init struct {
	Worker      int
	Partition   int
	Epoch       int
	HeartbeatNS int64
	SchemaAttrs []string
	Rules       []WireRule
}

// TupleBatch ships one batch of partition tuples to a worker. IDs are the
// tuples' global table IDs; Rows the values in schema order. Epoch must
// match the worker's current lease or the batch is discarded.
type TupleBatch struct {
	Worker int
	Epoch  int
	IDs    []int
	Rows   [][]string
}

// StartStageI signals that the worker's partition is complete. SkipLearn
// tells the worker the coordinator already holds the run's merged weight
// vector (a recovery re-dispatch after the Eq. 6 merge already ran): the
// worker runs AGP but skips weight learning, replies with empty summaries,
// and waits for the weights to arrive as MergedWeights.
type StartStageI struct {
	Worker    int
	Epoch     int
	SkipLearn bool
}

// WeightSummaries is the worker's reply after AGP + weight learning: one
// Eq. 6 summary per piece of its local index, plus the measured stage time.
// A non-empty Err aborts the run. Partition/Epoch echo the worker's lease;
// the coordinator discards stale-epoch replies.
type WeightSummaries struct {
	Worker    int
	Partition int
	Epoch     int
	Summaries []index.PieceSummary
	ElapsedNS int64
	Err       string
}

// MergedWeights broadcasts the reduced Eq. 6 weights back to a worker. An
// empty Merged list (SkipWeightMerge) leaves local weights untouched.
type MergedWeights struct {
	Worker int
	Epoch  int
	Merged []index.PieceSummary
}

// FusionResult is the worker's final reply: its post-RSC blocks (the
// candidate pieces the global gather fuses over), its pipeline stats, and
// the measured RSC + local-FSCR time. A non-empty Err aborts the run.
type FusionResult struct {
	Worker    int
	Partition int
	Epoch     int
	PartSize  int
	Blocks    []WireFusionBlock
	Stats     core.Stats
	ElapsedNS int64
	Err       string
}

// Heartbeat is a worker's periodic liveness beacon while it holds a lease.
// Sent is the count of protocol replies the worker has successfully handed
// to its transport this incarnation: a Sent greater than the count of
// replies the coordinator has received exposes a reply lost in flight, so
// detection does not have to wait for a full silence timeout.
type Heartbeat struct {
	Worker    int
	Partition int
	Epoch     int
	Sent      int
}

// WireFusionBlock is one rule's post-RSC pieces; block order matches the
// rule order of Init.
type WireFusionBlock struct {
	Pieces []WirePiece
}

// WirePiece is the serializable form of an index.Piece.
type WirePiece struct {
	Reason   []string
	Result   []string
	TupleIDs []int
	Weight   float64
}

// WireRule is the serializable form of a rules.Rule.
type WireRule struct {
	ID     string
	Kind   int
	Reason []WirePattern
	Result []WirePattern
}

// WirePattern mirrors rules.Pattern.
type WirePattern struct {
	Attr  string
	Const string
	Op    string
}

func (Init) isMessage()            {}
func (TupleBatch) isMessage()      {}
func (StartStageI) isMessage()     {}
func (WeightSummaries) isMessage() {}
func (MergedWeights) isMessage()   {}
func (FusionResult) isMessage()    {}
func (Heartbeat) isMessage()       {}

func init() {
	gob.Register(Init{})
	gob.Register(TupleBatch{})
	gob.Register(StartStageI{})
	gob.Register(WeightSummaries{})
	gob.Register(MergedWeights{})
	gob.Register(FusionResult{})
	gob.Register(Heartbeat{})
}

// EncodeMessage frames a message for the wire. Serialized sizes feed the
// transport byte counters (the channel transport never serializes, so its
// traffic does not count — by design, nothing crossed a wire).
func EncodeMessage(m Message) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&m); err != nil {
		return nil, fmt.Errorf("distributed: encode %T: %w", m, err)
	}
	mSendBytes.Add(int64(buf.Len()))
	return buf.Bytes(), nil
}

// DecodeMessage is the inverse of EncodeMessage.
func DecodeMessage(b []byte) (Message, error) {
	var m Message
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&m); err != nil {
		return nil, fmt.Errorf("distributed: decode message: %w", err)
	}
	mRecvBytes.Add(int64(len(b)))
	return m, nil
}

// rulesToWire converts a rule set for shipment.
func rulesToWire(rs []*rules.Rule) []WireRule {
	out := make([]WireRule, len(rs))
	for i, r := range rs {
		out[i] = WireRule{
			ID:     r.ID,
			Kind:   int(r.Kind),
			Reason: patternsToWire(r.Reason),
			Result: patternsToWire(r.Result),
		}
	}
	return out
}

func patternsToWire(ps []rules.Pattern) []WirePattern {
	out := make([]WirePattern, len(ps))
	for i, p := range ps {
		out[i] = WirePattern{Attr: p.Attr, Const: p.Const, Op: p.Op}
	}
	return out
}

// rulesFromWire reconstructs the rule set on the worker side.
func rulesFromWire(ws []WireRule) ([]*rules.Rule, error) {
	out := make([]*rules.Rule, len(ws))
	for i, w := range ws {
		r, err := rules.New(w.ID, rules.Kind(w.Kind), patternsFromWire(w.Reason), patternsFromWire(w.Result))
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

func patternsFromWire(ws []WirePattern) []rules.Pattern {
	out := make([]rules.Pattern, len(ws))
	for i, w := range ws {
		out[i] = rules.Pattern{Attr: w.Attr, Const: w.Const, Op: w.Op}
	}
	return out
}

// blocksToWire serializes a worker's post-RSC index blocks.
func blocksToWire(ix *index.Index) []WireFusionBlock {
	out := make([]WireFusionBlock, len(ix.Blocks))
	for bi, b := range ix.Blocks {
		for _, g := range b.Groups {
			for _, p := range g.Pieces {
				out[bi].Pieces = append(out[bi].Pieces, WirePiece{
					Reason:   p.Reason(),
					Result:   p.Result(),
					TupleIDs: append([]int(nil), p.TupleIDs...),
					Weight:   p.Weight,
				})
			}
		}
	}
	return out
}
