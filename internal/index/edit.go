package index

import (
	"cmp"
	"fmt"
	"slices"

	"mlnclean/internal/dataset"
	"mlnclean/internal/intern"
	"mlnclean/internal/rules"
)

// A BlockEditor keeps one rule's block across edits of the table it was
// built over, instead of rebuilding it: a row that changes value moves its
// tuple ID from one piece to another. The kept block is always the block
// BuildBlockFor would lay out for the table as edited so far, provided the
// table is in ascending tuple-ID order (the delta engine's canonical order):
// groups in first-sight order, pieces in first-sight order within their
// group, ascending tuple lists, and the same group and piece key IDs, since
// a sequence key is a function of the sequence within one dictionary. First
// sight in an ID-ordered table is the lowest ID, so every group and piece is
// kept ordered by its first tuple. A group's reason IDs are value-equal to
// the build's, not always the same slice.
//
// The kept block is never handed to stage I, which rewrites what it is
// given: CopyGroups gives stage I groups of its own over the same lists.
// The editor also records which groups its moves touched (Touched), so a
// re-clean can tell the groups whose outcome cannot have moved.
type BlockEditor struct {
	b      Block
	dict   *intern.Dict
	schema *dataset.Schema
	// pl is taken again before a row is matched while a constant of the
	// rule is missing from it: one interned since matches rows.
	pl     rulePlan
	groups map[uint32]*Group // by group KeyID
	res    []uint32          // the result IDs of the row being keyed
	// touched lists the KeyIDs of the groups whose pieces gained or lost a
	// tuple since ClearTouched, made and emptied groups included, in move
	// order and possibly repeated.
	touched []uint32
}

// NewBlockEditor builds rule r's block over tb (BuildBlockFor) and keeps it
// for editing. tb must be in ascending tuple-ID order, and enc row-aligned
// with it; later edits must be in enc's dictionary.
func NewBlockEditor(tb *dataset.Table, enc *dataset.Encoded, r *rules.Rule) *BlockEditor {
	e := &BlockEditor{
		b:      *BuildBlockFor(tb, enc, r),
		dict:   enc.Dict,
		schema: tb.Schema,
		pl:     planRule(r, tb.Schema, enc.Dict),
		groups: make(map[uint32]*Group),
	}
	for _, g := range e.b.Groups {
		e.groups[g.id] = g
	}
	return e
}

// Block is the kept block. It is the editor's own: callers read it and
// write nothing into it.
func (e *BlockEditor) Block() *Block { return &e.b }

// Touched lists the KeyIDs of the groups whose pieces gained or lost a
// tuple since the last ClearTouched, groups made or emptied included; a
// KeyID may repeat. Every other group of the block holds the pieces, in the
// same order with the same tuple lists, that it held then. The slice is the
// editor's, valid until the next Move.
func (e *BlockEditor) Touched() []uint32 { return e.touched }

// ClearTouched empties the touched list: the caller has taken the block as
// it stands.
func (e *BlockEditor) ClearTouched() { e.touched = e.touched[:0] }

// Move edits tuple id's encoded row from `from` to `to`; a nil row is no
// row, so Move(id, nil, to) inserts the tuple and Move(id, from, nil)
// deletes it. It reports whether the block changed: it does unless the rule
// applies to neither row, or to both with the same projection. A tuple
// whose `from` row the rule applies to must be in the block, and one whose
// `to` row it applies to must not be, unless it moves from there.
func (e *BlockEditor) Move(id int, from, to []uint32) bool {
	if len(e.pl.constIDs) < e.pl.consts {
		e.pl = planRule(e.b.Rule, e.schema, e.dict)
	}
	pl := &e.pl
	in := from != nil && pl.appliesTo(from)
	out := to != nil && pl.appliesTo(to)
	if !in && !out || in && out && pl.sameProjection(from, to) {
		return false
	}
	if in {
		e.remove(id, from)
	}
	if out {
		e.add(id, to)
	}
	return true
}

// sameProjection reports whether two rows agree on the rule's attributes.
func (pl *rulePlan) sameProjection(a, b []uint32) bool {
	for _, pos := range pl.reasonPos {
		if a[pos] != b[pos] {
			return false
		}
	}
	for _, pos := range pl.resultPos {
		if a[pos] != b[pos] {
			return false
		}
	}
	return true
}

// keys returns the group and piece keys of row as the build's scan mints
// them: Fold over the reason, then Extend by the result, which mints nodes
// only for a sequence no piece has carried yet.
func (e *BlockEditor) keys(row []uint32) (gk, kid uint32) {
	pl := &e.pl
	gk = row[pl.reasonPos[0]]
	for _, pos := range pl.reasonPos[1:] {
		gk = e.dict.Fold(gk, row[pos])
	}
	e.res = e.res[:0]
	for _, pos := range pl.resultPos {
		e.res = append(e.res, row[pos])
	}
	return gk, e.dict.Extend(gk, e.res)
}

// pieceFirst is a piece's lowest tuple ID, and groupFirst a group's: its
// first piece's, since pieces are ordered by theirs.
func pieceFirst(p *Piece) int { return p.TupleIDs[0] }
func groupFirst(g *Group) int { return pieceFirst(g.Pieces[0]) }

// search is where an item whose first tuple is id sits, or would sit, in s,
// ordered by first tuples.
func search[T any](s []T, id int, first func(T) int) (int, bool) {
	return slices.BinarySearchFunc(s, id, func(x T, id int) int { return cmp.Compare(first(x), id) })
}

// find is the index of the item whose first tuple is id.
func find[T any](s []T, id int, first func(T) int) int {
	i, ok := search(s, id, first)
	if !ok {
		panic(fmt.Sprintf("index: block editor: nothing starts at tuple %d", id))
	}
	return i
}

// reorder moves s[i], whose first tuple changed, to its place in s.
func reorder[T any](s []T, i int, first func(T) int) {
	x := s[i]
	j, _ := search(slices.Delete(s, i, i+1), first(x), first)
	copy(s[j+1:], s[j:len(s)-1])
	s[j] = x
}

// piece is the group's piece with key kid, or nil; g may be nil.
func piece(g *Group, kid uint32) *Piece {
	if g != nil {
		for _, p := range g.Pieces {
			if p.kid == kid {
				return p
			}
		}
	}
	return nil
}

// remove takes tuple id out of the piece row names.
func (e *BlockEditor) remove(id int, row []uint32) {
	gk, kid := e.keys(row)
	e.touched = append(e.touched, gk)
	g := e.groups[gk]
	p := piece(g, kid)
	if p == nil {
		panic(fmt.Sprintf("index: block editor: tuple %d is in no piece of rule %s", id, e.b.Rule.ID))
	}
	gi, pi := find(e.b.Groups, groupFirst(g), groupFirst), find(g.Pieces, pieceFirst(p), pieceFirst)
	headed := id == groupFirst(g)
	i, ok := slices.BinarySearch(p.TupleIDs, id)
	if !ok {
		panic(fmt.Sprintf("index: block editor: tuple %d is not in its piece of rule %s", id, e.b.Rule.ID))
	}
	p.TupleIDs = slices.Delete(p.TupleIDs, i, i+1)
	switch {
	case len(p.TupleIDs) == 0:
		g.Pieces = slices.Delete(g.Pieces, pi, pi+1)
	case i == 0:
		reorder(g.Pieces, pi, pieceFirst)
	}
	switch {
	case len(g.Pieces) == 0:
		delete(e.groups, gk)
		e.b.Groups = slices.Delete(e.b.Groups, gi, gi+1)
	case headed:
		reorder(e.b.Groups, gi, groupFirst)
	}
}

// add puts tuple id into the piece row names, making the piece, and its
// group, when it is new.
func (e *BlockEditor) add(id int, row []uint32) {
	gk, kid := e.keys(row)
	e.touched = append(e.touched, gk)
	g := e.groups[gk]
	if p := piece(g, kid); p != nil {
		gi, pi := find(e.b.Groups, groupFirst(g), groupFirst), find(g.Pieces, pieceFirst(p), pieceFirst)
		headed := id < groupFirst(g)
		i, dup := slices.BinarySearch(p.TupleIDs, id)
		if dup {
			panic(fmt.Sprintf("index: block editor: tuple %d is already in its piece of rule %s", id, e.b.Rule.ID))
		}
		p.TupleIDs = slices.Insert(p.TupleIDs, i, id)
		if i == 0 {
			reorder(g.Pieces, pi, pieceFirst)
		}
		if headed {
			reorder(e.b.Groups, gi, groupFirst)
		}
		return
	}
	nReason := len(e.pl.reasonPos)
	ids := make([]uint32, 0, nReason+len(e.res))
	for _, pos := range e.pl.reasonPos {
		ids = append(ids, row[pos])
	}
	ids = append(ids, e.res...)
	p := &Piece{Rule: e.b.Rule, TupleIDs: []int{id}, dict: e.dict, ids: ids, nReason: nReason, kid: kid}
	if g == nil {
		g = &Group{Pieces: []*Piece{p}, dict: e.dict, reason: ids[:nReason:nReason], id: gk}
		e.groups[gk] = g
		j, _ := search(e.b.Groups, id, groupFirst)
		e.b.Groups = slices.Insert(e.b.Groups, j, g)
		return
	}
	gi := find(e.b.Groups, groupFirst(g), groupFirst)
	headed := id < groupFirst(g)
	j, _ := search(g.Pieces, id, pieceFirst)
	g.Pieces = slices.Insert(g.Pieces, j, p)
	if headed {
		reorder(e.b.Groups, gi, groupFirst)
	}
}

// CopyGroups gives each of gs, in order, new group and piece headers over
// the same value IDs and tuple lists. Each list is handed over with
// cap == len, so the appends AGP's merges make copy it, and the sort after
// one sorts the copy; nothing reaches the groups copied.
func CopyGroups(gs []*Group) []*Group {
	groups := make([]Group, len(gs))
	ptrs := make([]*Group, len(gs))
	n := 0
	for _, g := range gs {
		n += len(g.Pieces)
	}
	pieces := make([]Piece, n)
	slots := make([]*Piece, n)
	k := 0
	for i, g := range gs {
		from := k
		for _, p := range g.Pieces {
			pieces[k] = *p
			pieces[k].TupleIDs = slices.Clip(p.TupleIDs)
			slots[k] = &pieces[k]
			k++
		}
		groups[i] = Group{Pieces: slots[from:k:k], dict: g.dict, reason: g.reason, id: g.id}
		ptrs[i] = &groups[i]
	}
	return ptrs
}
