package relation

import (
	"fmt"
	"sync"
)

// Index is a hash index over one column of a table, mapping value keys
// to the row slots holding them. Buckets are chain-aware: a slot is
// a member of the bucket of every key any of its versions holds, so
// readers pinned at older committed versions still find their rows;
// lookups filter by the resolved version's actual column value, which
// also screens out tombstoned and superseded-key slots.
type Index struct {
	table  *Table
	column int

	mu      sync.RWMutex
	buckets map[string][]*versionSlot
}

// Column returns the indexed column's position in the table schema.
func (ix *Index) Column() int { return ix.column }

// Len returns the number of distinct keys bucketed (including keys
// whose rows have since been deleted or re-keyed; rebuilds prune them).
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.buckets)
}

// Lookup returns the rows whose indexed column equals v at the latest
// committed version. The returned slice is freshly built.
func (ix *Index) Lookup(v Value) []*BaseTuple {
	hits := ix.lookupAt(v, ix.table.catalog.commitSeq.Load())
	out := make([]*BaseTuple, len(hits))
	for i, h := range hits {
		out[i] = h.row
	}
	return out
}

// indexHit is one row a lookup resolved, with the slot that owns the
// row's lineage leaf.
type indexHit struct {
	slot *versionSlot
	row  *BaseTuple
}

// lookupAt returns the rows that, resolved at seq, hold v in the
// indexed column.
func (ix *Index) lookupAt(v Value, seq int64) []indexHit {
	k := v.Key()
	ix.mu.RLock()
	slots := ix.buckets[k]
	ix.mu.RUnlock()
	var out []indexHit
	for _, slot := range slots {
		b := slot.visibleAt(seq)
		if b != nil && b.Values[ix.column].Key() == k {
			out = append(out, indexHit{slot, b})
		}
	}
	return out
}

// rebuild reconstructs the buckets chain-aware: every version of every
// slot contributes its key (deduplicated per slot), so any pinned
// reader resolves its own version through some bucket.
func (ix *Index) rebuild() {
	slots := ix.table.snapshotSlots()
	buckets := make(map[string][]*versionSlot, len(slots))
	var seen []string // distinct keys within one chain; chains are short
	for _, slot := range slots {
		seen = seen[:0]
		for b := slot.head.Load(); b != nil; b = b.prev {
			if b.tombstone {
				continue
			}
			k := b.Values[ix.column].Key()
			dup := false
			for _, s := range seen {
				if s == k {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			seen = append(seen, k)
			buckets[k] = append(buckets[k], slot)
		}
	}
	ix.mu.Lock()
	ix.buckets = buckets
	ix.mu.Unlock()
}

// addSlot registers a freshly inserted slot under its key.
func (ix *Index) addSlot(slot *versionSlot, key string) {
	ix.mu.Lock()
	ix.buckets[key] = append(ix.buckets[key], slot)
	ix.mu.Unlock()
}

// CreateIndex builds (or returns the existing) hash index on the named
// column. Creation is its own committed version (it can change the
// chosen plan for cached queries).
func (t *Table) CreateIndex(column string) (*Index, error) {
	idx, err := t.schema.Resolve("", column)
	if err != nil {
		return nil, err
	}
	c := t.catalog
	c.wmu.Lock()
	defer c.wmu.Unlock()
	t.mu.RLock()
	existing, ok := t.indexes[idx]
	t.mu.RUnlock()
	if ok {
		return existing, nil
	}
	ix := &Index{table: t, column: idx}
	ix.rebuild()
	t.mu.Lock()
	if t.indexes == nil {
		t.indexes = map[int]*Index{}
	}
	t.indexes[idx] = ix
	t.mu.Unlock()
	c.commitDDL()
	return ix, nil
}

// IndexOn returns the index on the given column position, if any.
func (t *Table) IndexOn(column int) (*Index, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix, ok := t.indexes[column]
	return ix, ok
}

// indexCount returns how many indexes the table has.
func (t *Table) indexCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.indexes)
}

// IndexScan produces the rows whose indexed column equals Key, as an
// operator interchangeable with Scan+Select on that equality. Unpinned,
// it reads the latest committed version at Open; PinVersion pins it.
type IndexScan struct {
	Table *Table
	Idx   *Index
	Key   Value

	pin  int64
	hits []indexHit
	pos  int
}

// Schema implements Operator.
func (s *IndexScan) Schema() *Schema { return s.Table.Schema() }

// PinVersion implements VersionPinner.
func (s *IndexScan) PinVersion(v int64) { s.pin = v }

// Open implements Operator.
func (s *IndexScan) Open() error {
	if s.Idx == nil {
		return fmt.Errorf("relation: IndexScan without an index")
	}
	at := s.pin
	if at <= 0 {
		at = s.Table.catalog.commitSeq.Load()
	}
	s.hits = s.Idx.lookupAt(s.Key, at)
	s.pos = 0
	return nil
}

// Next implements Operator.
func (s *IndexScan) Next() (*Tuple, error) {
	if s.pos >= len(s.hits) {
		return nil, nil
	}
	h := s.hits[s.pos]
	s.pos++
	return &Tuple{Values: h.row.Values, Lineage: &h.slot.leaf}, nil
}

// Close implements Operator.
func (s *IndexScan) Close() error { return nil }

// OptimizeIndexedSelect rewrites Select(Scan T | Rename(Scan T)) into an
// IndexScan plus a residual Select when the predicate's top-level
// conjunction contains an equality between an indexed column and a
// constant. It returns the input unchanged when the pattern does not
// apply.
func OptimizeIndexedSelect(sel *Select) Operator {
	// Unwrap an optional Rename.
	input := sel.Input
	var rename *Rename
	if rn, ok := input.(*Rename); ok {
		rename = rn
		input = rn.Input
	}
	scan, ok := input.(*scanOp)
	if !ok || scan.table.indexCount() == 0 {
		return sel
	}
	conjuncts := splitConjuncts(sel.Pred)
	for i, c := range conjuncts {
		colIdx, key, ok := equalityWithConst(c)
		if !ok {
			continue
		}
		ix, has := scan.table.IndexOn(colIdx)
		if !has {
			continue
		}
		var op Operator = &IndexScan{Table: scan.table, Idx: ix, Key: key}
		if rename != nil {
			op = &Rename{Input: op, Alias: rename.Alias}
		}
		residual := append(append([]Expr{}, conjuncts[:i]...), conjuncts[i+1:]...)
		if len(residual) > 0 {
			op = &Select{Input: op, Pred: joinConjuncts(residual)}
		}
		return op
	}
	return sel
}

// splitConjuncts flattens a top-level AND tree.
func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(splitConjuncts(b.Left), splitConjuncts(b.Right)...)
	}
	return []Expr{e}
}

func joinConjuncts(es []Expr) Expr {
	out := es[0]
	for _, e := range es[1:] {
		out = &Binary{Op: OpAnd, Left: out, Right: e}
	}
	return out
}

// equalityWithConst matches "col = const" or "const = col" and returns
// the column index and the constant.
func equalityWithConst(e Expr) (colIdx int, key Value, ok bool) {
	b, isBin := e.(*Binary)
	if !isBin || b.Op != OpEq {
		return 0, Value{}, false
	}
	if cr, isCol := b.Left.(*ColRef); isCol {
		if c, isConst := b.Right.(Const); isConst && !c.Value.IsNull() {
			return cr.Index, c.Value, true
		}
	}
	if cr, isCol := b.Right.(*ColRef); isCol {
		if c, isConst := b.Left.(Const); isConst && !c.Value.IsNull() {
			return cr.Index, c.Value, true
		}
	}
	return 0, Value{}, false
}

func describeIndexScan(s *IndexScan) string {
	return fmt.Sprintf("IndexScan %s (%s = %s)",
		s.Table.Name, s.Table.Schema().Columns[s.Idx.column].Name, s.Key)
}
