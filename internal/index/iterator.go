// Block iteration: the streaming decomposition of Build. A BlockIterator
// yields one rule's block at a time, each built by BuildBlockFor's two
// passes over the encoded rows into the block's own slabs. Memory while
// iterating is bounded by the dictionary, the encoded rows and the blocks
// built so far, plus one build's working set (probe maps and per-row
// ordinals), which is pooled and reused from block to block.
package index

import (
	"fmt"

	"mlnclean/internal/dataset"
	"mlnclean/internal/rules"
)

// BlockIterator builds an index one block at a time, in rule order. Rule
// order is load-bearing: piece and group sequence keys are minted from the
// dictionary during the scan, so building blocks in any other order would
// change key IDs (never block contents).
//
// A BlockIterator is not safe for concurrent use, but the blocks it has
// already yielded may be processed on other goroutines while Next builds
// the following one: building reads the encoded rows and mutates only the
// dictionary's sequence-key structures, which stage-I/II consumers never
// touch (they only decode values), and its own pooled scratch. A yielded
// block shares no memory with the next one.
type BlockIterator struct {
	ix   *Index
	tb   *dataset.Table // the table the blocks are built over
	rs   []*rules.Rule
	next int
}

// NewBlockIterator validates the rules and the tuples' widths (every tuple
// is exactly as wide as the schema) and dictionary-encodes the table (or
// adopts cfg.Encoded). No block is built yet; the partially populated index
// is available via Index() immediately (its dictionary and encoded rows are
// complete; Blocks grows as Next is called).
func NewBlockIterator(tb *dataset.Table, rs []*rules.Rule, cfg BuildConfig) (*BlockIterator, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("index: no rules")
	}
	for _, r := range rs {
		if err := r.Validate(tb.Schema); err != nil {
			return nil, err
		}
	}
	for _, t := range tb.Tuples {
		if len(t.Values) != tb.Schema.Len() {
			return nil, fmt.Errorf("index: tuple %d has %d values, schema has %d", t.ID, len(t.Values), tb.Schema.Len())
		}
	}
	enc := cfg.Encoded
	if enc != nil && len(enc.Rows) != len(tb.Tuples) {
		return nil, fmt.Errorf("index: encoded rows (%d) misaligned with table (%d)", len(enc.Rows), len(tb.Tuples))
	}
	if enc == nil {
		enc = dataset.Encode(tb, nil)
	}
	it := &BlockIterator{
		ix: &Index{enc: enc, Blocks: make([]*Block, 0, len(rs))},
		tb: tb,
		rs: rs,
	}
	return it, nil
}

// Index returns the index under construction. Dictionary and encoded rows
// are valid immediately; Blocks holds the blocks yielded so
// far. After the final Next the index is exactly BuildConfigured's.
func (it *BlockIterator) Index() *Index { return it.ix }

// Len returns the total number of blocks the iterator will yield.
func (it *BlockIterator) Len() int { return len(it.rs) }

// Next builds and returns the next block (with its block index), or ok=false
// once every rule's block has been yielded.
func (it *BlockIterator) Next() (bi int, b *Block, ok bool) {
	if it.next >= len(it.rs) {
		return 0, nil, false
	}
	ri := it.next
	it.next++
	b = BuildBlockFor(it.tb, it.ix.enc, it.rs[ri])
	it.ix.Blocks = append(it.ix.Blocks, b)
	return ri, b, true
}
