// Package intern provides the shared value dictionary the cleaning pipeline
// is keyed on: every distinct cell value is encoded to a dense uint32 ID at
// ingest, and composite keys (a rule's reason or reason+result projection)
// reduce to a single fixed-width ID by hash-consing (ID, ID) pairs in a
// left fold over the sequence. Hashing a piece or group identity therefore
// costs one small map probe per attribute over comparable integer keys
// instead of building a joined string, and it is immune to the
// separator-collision class that plagues dataset.JoinKey (values containing
// the 0x1f byte).
//
// A Dict is NOT safe for concurrent mutation. The pipeline confines writes
// to serial phases (table encoding, index construction, the distributed
// gather's piece interning); the parallel stage-I/II loops only read. A
// distributed run's parts build their indexes concurrently over one run's
// values, each in a Fork: the values are shared read-only and each fork
// mints sequence keys into a pair table of its own.
package intern

// pairTag marks sequence nodes: value IDs live below 1<<31, pair nodes
// above, so a single value's ID can double as its length-1 sequence key
// without colliding with any longer sequence.
const pairTag = 1 << 31

// Dict interns strings to dense uint32 IDs and sequences of IDs to single
// fixed-width keys. The zero Dict is not usable; construct with NewDict.
type Dict struct {
	ids   map[string]uint32
	vals  []string
	pairs map[[2]uint32]uint32
	// fork is set on a Fork, whose ids and vals are its parent's, read only.
	fork bool
}

// NewDict creates an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]uint32), pairs: make(map[[2]uint32]uint32)}
}

// Len returns the number of distinct values interned.
func (d *Dict) Len() int { return len(d.vals) }

// Intern returns the dense ID of s, assigning the next ID on first sight.
func (d *Dict) Intern(s string) uint32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	if d.fork {
		panic("intern: a fork cannot intern a value its parent lacks")
	}
	id := uint32(len(d.vals))
	if id >= pairTag {
		// Value IDs and pair nodes must stay in disjoint ranges or sequence
		// keys lose injectivity; fail loudly instead of corrupting identity.
		panic("intern: dictionary exceeded 2^31 distinct values")
	}
	d.ids[s] = id
	d.vals = append(d.vals, s)
	return id
}

// Fork returns a dictionary over d's values, with d's value IDs, that mints
// sequence keys into a pair table of its own, so any number of forks may
// build indexes over d's rows concurrently. A fork's sequence keys mean
// nothing in d or in another fork. Interning a value d lacks panics, and d
// must intern nothing while its forks are in use.
func (d *Dict) Fork() *Dict {
	return &Dict{ids: d.ids, vals: d.vals, pairs: make(map[[2]uint32]uint32), fork: true}
}

// Lookup returns the ID of s without inserting.
func (d *Dict) Lookup(s string) (uint32, bool) {
	id, ok := d.ids[s]
	return id, ok
}

// Value returns the string with the given ID. Only valid for IDs returned
// by Intern/Lookup on this Dict.
func (d *Dict) Value(id uint32) string { return d.vals[id] }

// pair hash-conses one (node, node) combination into a tagged sequence node.
func (d *Dict) pair(a, b uint32) uint32 {
	k := [2]uint32{a, b}
	if id, ok := d.pairs[k]; ok {
		return id
	}
	ord := uint32(len(d.pairs))
	if ord >= emptySeq&^pairTag {
		// Pair ordinals must stay below the reserved empty-sequence slot (and
		// within the tagged range); fail loudly rather than alias sequences.
		panic("intern: dictionary exceeded 2^30 distinct sequence nodes")
	}
	id := pairTag | ord
	d.pairs[k] = id
	return id
}

// lookupPair resolves an existing pair node, or reports absence.
func (d *Dict) lookupPair(a, b uint32) (uint32, bool) {
	id, ok := d.pairs[[2]uint32{a, b}]
	return id, ok
}

// emptySeq is the reserved key of the zero-length sequence.
const emptySeq = pairTag | (pairTag >> 1)

// Seq folds a sequence of value IDs into one fixed-width key: equal
// sequences yield equal keys and distinct sequences distinct keys (the fold
// is injective because value and pair nodes occupy disjoint ID ranges). A
// length-1 sequence's key is the value ID itself.
func (d *Dict) Seq(ids []uint32) uint32 {
	if len(ids) == 0 {
		return emptySeq
	}
	n := ids[0]
	for _, id := range ids[1:] {
		n = d.pair(n, id)
	}
	return n
}

// Fold advances a sequence key by one value ID: Fold(Seq(a), b) ==
// Seq(append(a, b)). The single-step form of Extend, for hot loops.
func (d *Dict) Fold(key uint32, id uint32) uint32 { return d.pair(key, id) }

// Extend folds additional value IDs onto an existing sequence key:
// Extend(Seq(a), b) == Seq(append(a, b...)). The index uses it to derive a
// piece's full key from its group's reason key without re-folding the
// prefix.
func (d *Dict) Extend(key uint32, ids []uint32) uint32 {
	n := key
	for _, id := range ids {
		n = d.pair(n, id)
	}
	return n
}

// LookupSeq returns the key of an already-minted sequence without inserting
// new pair nodes; ok is false when the sequence was never Seq'd (hence no
// piece or group can carry it).
func (d *Dict) LookupSeq(ids []uint32) (uint32, bool) {
	if len(ids) == 0 {
		return emptySeq, true
	}
	n := ids[0]
	for _, id := range ids[1:] {
		var ok bool
		if n, ok = d.lookupPair(n, id); !ok {
			return 0, false
		}
	}
	return n, true
}
