package lineage

import "slices"

// AndAll returns the conjunction of es, built in one pass. Operators
// that merge a group of rows (GROUP BY, set intersection) collect the
// group's lineages and call it once when the group closes, instead of
// growing the formula with one And call per row, which copies the
// child list each time and so builds a group of n rows in O(n²).
//
// Besides And's unit and zero laws and flattening, AndAll drops
// structurally equal duplicates (x ∧ x = x) and factors conjunctions of
// disjunctions on a shared variable disjunct, the dual of OrAll's
// factoring. The result is equivalent to And(es...) and keeps the
// children in first-occurrence order, so equal inputs give structurally
// equal outputs.
func AndAll(es []*Expr) *Expr { return build(KindAnd, es) }

// OrAll returns the disjunction of es, built in one pass like AndAll.
// Duplicate-eliminating operators (DISTINCT, UNION, EXCEPT) call it
// once per output row with the lineages of the merged input rows.
//
// Besides Or's unit and zero laws and flattening, OrAll drops
// structurally equal duplicates (x ∨ x = x) and factors disjunctions of
// conjunctions on shared variable conjuncts:
//
//	(x ∧ a) ∨ (x ∧ b)  →  x ∧ (a ∨ b)
//
// Every disjunct is grouped under its most frequent shared variable and
// each group's remainders are built recursively, so the lineage of a
// hierarchical query such as OR_s(s ∧ OR_j o_sj) — DISTINCT over a
// key–foreign-key join — comes out read-once. Absorption falls out of
// the same rule: x ∨ (x ∧ a) → x ∧ (⊤ ∨ a) = x.
func OrAll(es []*Expr) *Expr { return build(KindOr, es) }

// build is AndAll (kind KindAnd) or OrAll (kind KindOr).
func build(kind Kind, es []*Expr) *Expr {
	children, ok := flatten(kind, es)
	if !ok {
		return absorbing(kind)
	}
	children = dedupe(children)
	children = factor(kind, children)
	switch len(children) {
	case 0:
		return identity(kind)
	case 1:
		return children[0]
	}
	return newNode(kind, children)
}

// identity is kind's unit element (⊤ for AND, ⊥ for OR); absorbing is
// its zero.
func identity(kind Kind) *Expr {
	if kind == KindOr {
		return exprFalse
	}
	return exprTrue
}

func absorbing(kind Kind) *Expr {
	if kind == KindOr {
		return exprTrue
	}
	return exprFalse
}

func dual(kind Kind) Kind {
	if kind == KindOr {
		return KindAnd
	}
	return KindOr
}

// flatten splices same-kind children in, drops units and nils, and
// reports false when an absorbing constant makes the result constant.
// It returns a fresh slice.
func flatten(kind Kind, es []*Expr) ([]*Expr, bool) {
	unit, zero := identity(kind).kind, absorbing(kind).kind
	n := 0
	for _, e := range es {
		if e != nil && e.kind == kind {
			n += len(e.children)
		} else {
			n++
		}
	}
	out := make([]*Expr, 0, n)
	for _, e := range es {
		switch {
		case e == nil || e.kind == unit:
		case e.kind == zero:
			return nil, false
		case e.kind == kind:
			out = append(out, e.children...)
		default:
			out = append(out, e)
		}
	}
	return out, true
}

// dedupe removes structurally equal duplicates in place, keeping first
// occurrences in order. Hashes screen candidates; Equal confirms them,
// so a hash collision never merges distinct children.
func dedupe(cs []*Expr) []*Expr {
	if len(cs) < 2 {
		return cs
	}
	out := cs[:0]
	first := make(map[uint64]int, len(cs))
	for _, c := range cs {
		if i, seen := first[c.Hash()]; seen {
			if Equal(out[i], c) || containsEqual(out, c) {
				continue
			}
		} else {
			first[c.Hash()] = len(out)
		}
		out = append(out, c)
	}
	return out
}

func containsEqual(cs []*Expr, e *Expr) bool {
	for _, c := range cs {
		if Equal(c, e) {
			return true
		}
	}
	return false
}

// atom is one variable occurrence directly under a child of the list
// being factored: the child itself when it is a variable, or one of its
// variable children when it is a node of the dual kind.
type atom struct {
	v     Var
	child int32
	leaf  *Expr
}

// factor groups the children of a kind node that share a variable
// directly below them (as a conjunct of an OR's disjunct, or a disjunct
// of an AND's conjunct) and pulls it out of each group. Each child
// joins the group of its most frequent shared variable, ties going to
// the variable that occurs first; a group stands at its first member's
// position. cs must be deduplicated.
func factor(kind Kind, cs []*Expr) []*Expr {
	inner := dual(kind)
	var atoms []atom
	nested := false
	for i, c := range cs {
		switch c.kind {
		case KindVar:
			atoms = append(atoms, atom{v: c.v, child: int32(i), leaf: c})
		case inner:
			nested = true
			for _, g := range c.children {
				if g.kind == KindVar {
					atoms = append(atoms, atom{v: g.v, child: int32(i), leaf: g})
				}
			}
		}
	}
	// After dedupe, variables can only be shared through dual-kind
	// children.
	if !nested {
		return cs
	}
	slices.SortFunc(atoms, func(a, b atom) int {
		if a.v != b.v {
			if a.v < b.v {
				return -1
			}
			return 1
		}
		return int(a.child - b.child)
	})
	// pick[i] is the run (in atoms) of the variable child i is grouped
	// under; a run is scored by how many distinct children it covers,
	// then by its first child.
	type run struct{ start, count, first int32 }
	pick := make([]run, len(cs))
	shared := false
	for s := 0; s < len(atoms); {
		e := s + 1
		count := int32(1)
		for e < len(atoms) && atoms[e].v == atoms[s].v {
			if atoms[e].child != atoms[e-1].child {
				count++
			}
			e++
		}
		if count >= 2 {
			shared = true
			r := run{start: int32(s), count: count, first: atoms[s].child}
			for k := s; k < e; k++ {
				p := &pick[atoms[k].child]
				if r.count > p.count || (r.count == p.count && r.first < p.first) {
					*p = r
				}
			}
		}
		s = e
	}
	if !shared {
		return cs
	}
	// Gather each group's members in order; a group of one is left
	// as it is.
	members := make(map[int32][]*Expr)
	for i, c := range cs {
		if p := pick[i]; p.count > 0 {
			members[p.start] = append(members[p.start], c)
		}
	}
	out := make([]*Expr, 0, len(cs))
	for i, c := range cs {
		p := pick[i]
		group := members[p.start]
		switch {
		case p.count == 0 || len(group) == 1:
			out = append(out, c)
		case group[0] == c:
			out = append(out, pullOut(kind, atoms[p.start].leaf, group))
		}
	}
	return out
}

// pullOut rewrites the kind-combination of group, every member of which
// has leaf directly below it, as leaf ⋆ build(kind, remainders), where ⋆
// is the dual operator and a member's remainder is the member without
// leaf (the dual unit when the member is leaf itself).
func pullOut(kind Kind, leaf *Expr, group []*Expr) *Expr {
	inner := dual(kind)
	rests := make([]*Expr, len(group))
	for i, m := range group {
		rests[i] = without(inner, m, leaf.v)
	}
	return nary(inner, []*Expr{leaf, build(kind, rests)})
}

// without returns m, a variable or an inner-kind node, with every
// occurrence of v removed from its children: the inner unit when
// nothing is left, the single survivor when one child is.
func without(inner Kind, m *Expr, v Var) *Expr {
	left, last := 0, (*Expr)(nil)
	for _, g := range m.children {
		if g.kind != KindVar || g.v != v {
			left, last = left+1, g
		}
	}
	switch left {
	case 0:
		return identity(inner)
	case 1:
		return last
	}
	keep := make([]*Expr, 0, left)
	for _, g := range m.children {
		if g.kind != KindVar || g.v != v {
			keep = append(keep, g)
		}
	}
	// m's children are already flat and constant-free.
	return newNode(inner, keep)
}
