package distributed

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
	"mlnclean/internal/index"
	"mlnclean/internal/intern"
	"mlnclean/internal/rules"
)

// The executor's message boundary. Every message is plain old data —
// strings, ints, floats, slices of the same — so a transport may marshal it
// across a process boundary; EncodeMessage/DecodeMessage provide the gob
// framing an RPC transport would use, and GobTransport exercises it on every
// message in-process.
//
// Cell values cross the wire as value IDs of the coordinator's dictionary,
// in both directions. A worker learns the string behind an ID once, from
// the dictionary delta of the first TupleBatch that carries the ID; it keeps
// its own dictionary, minted in the order those strings arrive, and
// translates IDs at its edge.
//
// Protocol, per worker slot w (coordinator → worker unless noted). Slot w
// serves partition w for the whole run:
//
//	Init            schema + rules; sent once, first
//	TupleBatch      0+ partition shipments (streamed, batched)
//	StartStageI     partition complete → worker builds its index, runs
//	                AGP + weight learning, replies with WeightSummaries (↑)
//	MergedWeights   the Eq. 6 reduce result → worker applies it, runs
//	                RSC, replies with FusionResult (↑) and terminates
//
// The coordinator then runs stage II once, over the union of the
// FusionResults' blocks. Nothing is re-sent: a worker that fails ends the
// run (see Executor).
type Message interface{ isMessage() }

// Init bootstraps worker Worker with the table schema and the rule set; the
// pipeline options reach a worker in-process (core.Options carries a Metric
// implementation and a Trace, which have no wire form).
type Init struct {
	Worker      int
	SchemaAttrs []string
	Rules       []WireRule
}

// TupleBatch ships one batch of partition tuples to a worker. IDs are the
// tuples' global table IDs; Rows their cells as coordinator value IDs,
// len(IDs) × schema width, row-major. Delta holds the strings of the value
// IDs this worker has not been sent before, concatenated in the order the
// IDs first occur in Rows; DeltaEnds[i] is the end offset in Delta of the
// i-th of them.
type TupleBatch struct {
	Worker    int
	IDs       []int
	Rows      []uint32
	Delta     string
	DeltaEnds []int
}

// StartStageI signals that the worker's partition is complete.
type StartStageI struct {
	Worker int
}

// WeightSummaries is the worker's reply after AGP + weight learning: the
// Eq. 6 record of every piece of its local index, one RuleWeights per rule
// in Init's order, plus the measured stage time. A non-empty Err aborts the
// run.
type WeightSummaries struct {
	Worker    int
	Rules     []RuleWeights
	ElapsedNS int64
	Err       string
}

// RuleWeights is one rule's pieces in columns: piece i's values, reason then
// result, are IDs[i·a : (i+1)·a] for the rule's arity a, in coordinator
// value IDs; Counts[i] is its support and Weights[i] its weight.
type RuleWeights struct {
	IDs     []uint32
	Counts  []int
	Weights []float64
}

// MergedWeights broadcasts the reduced Eq. 6 weights back to a worker, one
// RuleWeights per rule. An empty Rules list (SkipWeightMerge) leaves local
// weights untouched.
type MergedWeights struct {
	Worker int
	Rules  []RuleWeights
}

// FusionResult is the worker's final reply: its post-RSC blocks (the
// candidate pieces the global gather fuses over), its pipeline stats, and
// the measured time to apply the merged weights and run RSC. Each tuple ID
// appears in at most one piece of a block. A non-empty Err aborts the run.
type FusionResult struct {
	Worker    int
	PartSize  int
	Blocks    []WireFusionBlock
	Stats     core.Stats
	ElapsedNS int64
	Err       string
}

// WireFusionBlock is one rule's post-RSC pieces; block order matches the
// rule order of Init.
type WireFusionBlock struct {
	Pieces []WirePiece
}

// WirePiece is the serializable form of an index.Piece: its values, reason
// then result, as coordinator value IDs.
type WirePiece struct {
	Values   []uint32
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

func init() {
	gob.Register(Init{})
	gob.Register(TupleBatch{})
	gob.Register(StartStageI{})
	gob.Register(WeightSummaries{})
	gob.Register(MergedWeights{})
	gob.Register(FusionResult{})
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

// arity is the number of values of one of r's pieces: reason then result.
func arity(r *rules.Rule) int { return len(r.Reason) + len(r.Result) }

// check reports whether rw's columns agree with each other for a rule of
// arity a.
func (rw *RuleWeights) check(a int) error {
	if len(rw.Counts) != len(rw.Weights) || len(rw.IDs) != a*len(rw.Weights) {
		return fmt.Errorf("%d value IDs, %d counts and %d weights for pieces of %d values",
			len(rw.IDs), len(rw.Counts), len(rw.Weights), a)
	}
	return nil
}

// checkIDs reports the first of ids that is not a value ID of a dictionary
// holding n values.
func checkIDs(ids []uint32, n int) error {
	for _, id := range ids {
		if int(id) >= n {
			return fmt.Errorf("value ID %d past the dictionary's %d values", id, n)
		}
	}
	return nil
}

// maxValueID bounds the coordinator value IDs a worker accepts: intern.Dict
// mints value IDs below 2³¹.
const maxValueID = 1 << 31

// workerDict is a worker's end of the ID wire: its own dictionary, minted in
// the order the coordinator's delta strings arrive — which is the row-major
// first-sight order of the partition, so local IDs are the ones encoding
// the partition's rows by value would assign — and the two translations
// between coordinator and local value IDs.
type workerDict struct {
	dict  *intern.Dict
	local []uint32 // coordinator ID → local ID + 1; 0 until its string arrives
	coord []uint32 // local ID → coordinator ID
}

func newWorkerDict() *workerDict { return &workerDict{dict: intern.NewDict()} }

// ingest appends a batch's tuples to senc, which encodes into wd.dict: each
// coordinator ID met for the first time takes the batch's next delta string.
// A batch whose shape, offsets or delta do not agree with its rows is an
// error; the tuples before the disagreement stay appended.
func (wd *workerDict) ingest(senc *dataset.StreamEncoder, b TupleBatch) error {
	width := senc.Table().Schema.Len()
	if len(b.Rows) != len(b.IDs)*width {
		return fmt.Errorf("protocol: TupleBatch with %d value IDs for %d tuples of %d values", len(b.Rows), len(b.IDs), width)
	}
	prev := 0
	for _, end := range b.DeltaEnds {
		if end < prev || end > len(b.Delta) {
			return fmt.Errorf("protocol: TupleBatch delta offset %d outside [%d, %d]", end, prev, len(b.Delta))
		}
		prev = end
	}
	if prev != len(b.Delta) {
		return fmt.Errorf("protocol: TupleBatch delta has %d bytes past its last string", len(b.Delta)-prev)
	}
	row := make([]uint32, width)
	next, start := 0, 0
	for i, id := range b.IDs {
		for j, c := range b.Rows[i*width : (i+1)*width] {
			if int(c) < len(wd.local) && wd.local[c] != 0 {
				row[j] = wd.local[c] - 1
				continue
			}
			if next == len(b.DeltaEnds) {
				return fmt.Errorf("protocol: TupleBatch value ID %d arrives without its string", c)
			}
			if c >= maxValueID {
				return fmt.Errorf("protocol: TupleBatch value ID %d out of range", c)
			}
			s := b.Delta[start:b.DeltaEnds[next]]
			start = b.DeltaEnds[next]
			next++
			l := wd.dict.Intern(s)
			if int(l) != len(wd.coord) {
				return fmt.Errorf("protocol: TupleBatch sends %q for value ID %d, already sent as value ID %d", s, c, wd.coord[l])
			}
			if int(c) >= len(wd.local) {
				wd.local = append(wd.local, make([]uint32, max(int(c)+1, 2*len(wd.local))-len(wd.local))...)
			}
			wd.local[c] = l + 1
			wd.coord = append(wd.coord, c)
			row[j] = l
		}
		if _, err := senc.AppendEncoded(id, row); err != nil {
			return err
		}
	}
	if next != len(b.DeltaEnds) {
		return fmt.Errorf("protocol: TupleBatch delta has %d strings, its rows use %d", len(b.DeltaEnds), next)
	}
	return nil
}

// summaries is the worker's Eq. 6 record: every piece of ix in
// block/group/piece order, its values in coordinator IDs.
func (wd *workerDict) summaries(ix *index.Index) []RuleWeights {
	out := make([]RuleWeights, len(ix.Blocks))
	for bi, b := range ix.Blocks {
		n := 0
		for _, g := range b.Groups {
			n += len(g.Pieces)
		}
		rw := RuleWeights{
			IDs:     make([]uint32, 0, n*arity(b.Rule)),
			Counts:  make([]int, 0, n),
			Weights: make([]float64, 0, n),
		}
		for _, g := range b.Groups {
			for _, p := range g.Pieces {
				for _, id := range p.ValueIDs() {
					rw.IDs = append(rw.IDs, wd.coord[id])
				}
				rw.Counts = append(rw.Counts, p.Count())
				rw.Weights = append(rw.Weights, p.Weight)
			}
		}
		out[bi] = rw
	}
	return out
}

// applyWeights writes the merged Eq. 6 weights into ix. A merged piece
// naming a value this worker was never sent is no piece of its index and is
// skipped.
func (wd *workerDict) applyWeights(ix *index.Index, merged []RuleWeights) error {
	if len(merged) == 0 {
		return nil
	}
	if len(merged) != len(ix.Blocks) {
		return fmt.Errorf("protocol: MergedWeights for %d rules, want %d", len(merged), len(ix.Blocks))
	}
	var ids []uint32
	var weights []float64
	for bi := range merged {
		rw := &merged[bi]
		a := arity(ix.Blocks[bi].Rule)
		if err := rw.check(a); err != nil {
			return fmt.Errorf("protocol: MergedWeights rule %d: %w", bi, err)
		}
		ids, weights = ids[:0], weights[:0]
	piece:
		for i, w := range rw.Weights {
			n := len(ids)
			for _, c := range rw.IDs[i*a : (i+1)*a] {
				if int(c) >= len(wd.local) || wd.local[c] == 0 {
					ids = ids[:n]
					continue piece
				}
				ids = append(ids, wd.local[c]-1)
			}
			weights = append(weights, w)
		}
		ix.ApplyPieceWeights(bi, ids, weights)
	}
	return nil
}

// blocks serializes the worker's post-RSC index blocks in coordinator IDs.
// The pieces' tuple lists are shared, not copied: the worker is done with
// its index once it sends them.
func (wd *workerDict) blocks(ix *index.Index) []WireFusionBlock {
	out := make([]WireFusionBlock, len(ix.Blocks))
	for bi, b := range ix.Blocks {
		n := 0
		for _, g := range b.Groups {
			n += len(g.Pieces)
		}
		a := arity(b.Rule)
		vals := make([]uint32, n*a)
		pieces := make([]WirePiece, 0, n)
		for _, g := range b.Groups {
			for _, p := range g.Pieces {
				v := vals[:a:a]
				vals = vals[a:]
				for i, id := range p.ValueIDs() {
					v[i] = wd.coord[id]
				}
				pieces = append(pieces, WirePiece{Values: v, TupleIDs: p.TupleIDs, Weight: p.Weight})
			}
		}
		out[bi].Pieces = pieces
	}
	return out
}
