package lineage

// Simplify rewrites e into a logically equivalent, usually smaller
// expression by applying (bottom-up):
//
//   - idempotence:   A ∧ A = A,  A ∨ A = A
//   - absorption:    A ∨ (A ∧ B) = A,  A ∧ (A ∨ B) = A
//   - complement:    A ∧ ¬A = ⊥,  A ∨ ¬A = ⊤
//
// together with the unit/zero laws the constructors already apply.
// Duplicate-eliminating operators OR the same sub-lineage repeatedly, so
// long operator chains benefit from periodic simplification; probability
// evaluation is also cheaper on the smaller formula (fewer shared
// variables survive).
func Simplify(e *Expr) *Expr {
	switch e.kind {
	case KindFalse, KindTrue, KindVar:
		return e
	case KindNot:
		return Not(Simplify(e.children[0]))
	case KindAnd, KindOr:
		children := make([]*Expr, 0, len(e.children))
		for _, c := range e.children {
			children = append(children, Simplify(c))
		}
		children = dedupe(children)
		if v, collapsed := complementPair(children); collapsed {
			if e.kind == KindAnd {
				_ = v
				return exprFalse
			}
			return exprTrue
		}
		children = absorb(e.kind, children)
		return nary(e.kind, children)
	}
	panic("lineage: bad kind")
}

// complementPair reports whether the list contains both X and ¬X.
func complementPair(children []*Expr) (*Expr, bool) {
	for _, a := range children {
		if a.kind != KindNot {
			continue
		}
		inner := a.children[0]
		for _, b := range children {
			if b != a && Equal(b, inner) {
				return inner, true
			}
		}
	}
	return nil, false
}

// absorb drops children subsumed by a sibling: in an OR, a conjunction
// whose conjunct set is a superset of a sibling's is absorbed by that
// sibling (A ∨ (A∧B) = A, and (A∧B) ∨ (A∧B∧C) = A∧B); dually for AND.
func absorb(kind Kind, children []*Expr) []*Expr {
	inner := KindOr
	if kind == KindOr {
		inner = KindAnd
	}
	// parts(x) is x's inner-operator factor list ({x} when x is not an
	// inner node).
	parts := func(x *Expr) []*Expr {
		if x.kind == inner {
			return x.children
		}
		return []*Expr{x}
	}
	subset := func(small, big []*Expr) bool {
		for _, s := range small {
			found := false
			for _, b := range big {
				if Equal(s, b) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	keep := make([]bool, len(children))
	for i := range keep {
		keep[i] = true
	}
	for i, c := range children {
		cp := parts(c)
		for j, sib := range children {
			if i == j || !keep[j] || !keep[i] {
				continue
			}
			sp := parts(sib)
			if len(sp) > len(cp) {
				continue
			}
			// Equal-size sets absorb in one direction only (keep the
			// earlier child) so permuted duplicates don't erase each
			// other.
			if len(sp) == len(cp) && j > i {
				continue
			}
			if subset(sp, cp) {
				keep[i] = false
			}
		}
	}
	out := make([]*Expr, 0, len(children))
	for i, c := range children {
		if keep[i] {
			out = append(out, c)
		}
	}
	return out
}
