package lineage

import (
	"fmt"
	"sort"
)

// This file holds the substitution tree walk, the reference
// implementation the compiled kernels and Prob are tested against. It
// shares no evaluation code with the compiled Machine beyond
// probReadOnce: shared variables are eliminated by substituting
// constants into the formula and simplifying, where the Machine pins
// slots of a fixed program.

// compile is CompileExact at DefaultSharedLimit for formulas the tests
// know to be within it.
func compile(e *Expr) *Program {
	p, err := CompileExact(e, DefaultSharedLimit)
	if err != nil {
		panic(err)
	}
	return p
}

// treeProb is treeProbExact at DefaultSharedLimit, panicking past it.
func treeProb(e *Expr, assign Assignment) float64 {
	p, err := treeProbExact(e, assign, DefaultSharedLimit)
	if err != nil {
		panic(err)
	}
	return p
}

// treeProbExact computes P(e) by Shannon expansion over the shared
// variables (most frequent first), failing with ErrTooManyShared past
// sharedLimit.
func treeProbExact(e *Expr, assign Assignment, sharedLimit int) (float64, error) {
	shared := sharedVarsByFrequency(e)
	if len(shared) > sharedLimit {
		return 0, fmt.Errorf("%w: %d shared variables, limit %d", ErrTooManyShared, len(shared), sharedLimit)
	}
	return shannon(e, assign, shared), nil
}

// sharedVarsByFrequency returns variables occurring more than once,
// most frequent first (conditioning on the most-shared variable removes
// the most duplication), ties by ascending variable.
func sharedVarsByFrequency(e *Expr) []Var {
	counts := e.VarCounts()
	shared := make([]Var, 0)
	for v, n := range counts {
		if n > 1 {
			shared = append(shared, v)
		}
	}
	sort.Slice(shared, func(i, j int) bool {
		if counts[shared[i]] != counts[shared[j]] {
			return counts[shared[i]] > counts[shared[j]]
		}
		return shared[i] < shared[j]
	})
	return shared
}

// shannon eliminates the shared variables one at a time:
// P(e) = p(v)·P(e|v=1) + (1−p(v))·P(e|v=0). Substitution simplifies the
// formula, which frequently turns the residual read-once early.
func shannon(e *Expr, assign Assignment, shared []Var) float64 {
	if len(shared) == 0 {
		return probReadOnce(e, assign)
	}
	if val, ok := e.IsConst(); ok {
		if val {
			return 1
		}
		return 0
	}
	if e.ReadOnce() {
		return probReadOnce(e, assign)
	}
	v := shared[0]
	rest := shared[1:]
	p := clamp01(assign.ProbOf(v))
	hi := shannon(e.Substitute(v, true), assign, rest)
	lo := shannon(e.Substitute(v, false), assign, rest)
	return p*hi + (1-p)*lo
}

// treeProbPinned returns P(e) with v pinned to false (p0) and to true
// (p1). P(e) is multilinear in each variable, so
// P(e) = (1−p(v))·p0 + p(v)·p1 for any probability of v.
func treeProbPinned(e *Expr, assign Assignment, v Var) (p0, p1 float64) {
	return treeProb(e.Substitute(v, false), assign), treeProb(e.Substitute(v, true), assign)
}

// treeDerivative returns ∂P(e)/∂p(v) = P(e|v=1) − P(e|v=0).
func treeDerivative(e *Expr, assign Assignment, v Var) float64 {
	p0, p1 := treeProbPinned(e, assign, v)
	return p1 - p0
}

// treeDerivatives computes ∂P(e)/∂p(v) for every variable of e: one
// two-pass inside/outside sweep when e is read-once, per-variable
// Shannon evaluation otherwise. The outside pass pushes down the
// root's partial derivative with respect to each subtree —
//
//	AND:  ∂P/∂child_i = outside · Π_{j≠i} P(child_j)
//	OR:   ∂P/∂child_i = outside · Π_{j≠i} (1 − P(child_j))
//	NOT:  ∂P/∂child   = −outside
//
// — so at a leaf the accumulated value is exactly ∂P/∂p(var).
func treeDerivatives(e *Expr, assign Assignment) map[Var]float64 {
	out := make(map[Var]float64)
	if e.ReadOnce() {
		inside := map[*Expr]float64{}
		insidePass(e, assign, inside)
		outsidePass(e, 1, inside, out)
		return out
	}
	for _, v := range e.Vars() {
		out[v] = treeDerivative(e, assign, v)
	}
	return out
}

func insidePass(e *Expr, assign Assignment, memo map[*Expr]float64) float64 {
	var p float64
	switch e.kind {
	case KindFalse:
		p = 0
	case KindTrue:
		p = 1
	case KindVar:
		p = clamp01(assign.ProbOf(e.v))
	case KindNot:
		p = 1 - insidePass(e.children[0], assign, memo)
	case KindAnd:
		p = 1
		for _, c := range e.children {
			p *= insidePass(c, assign, memo)
		}
	case KindOr:
		q := 1.0
		for _, c := range e.children {
			q *= 1 - insidePass(c, assign, memo)
		}
		p = 1 - q
	}
	memo[e] = p
	return p
}

// outsidePass uses prefix and suffix sibling products, which stay
// linear even with zero-probability children.
func outsidePass(e *Expr, outside float64, inside map[*Expr]float64, out map[Var]float64) {
	switch e.kind {
	case KindVar:
		out[e.v] += outside
	case KindNot:
		outsidePass(e.children[0], -outside, inside, out)
	case KindAnd, KindOr:
		factor := func(c *Expr) float64 {
			if e.kind == KindAnd {
				return inside[c]
			}
			return 1 - inside[c]
		}
		n := len(e.children)
		prefix := make([]float64, n+1)
		prefix[0] = 1
		for i, c := range e.children {
			prefix[i+1] = prefix[i] * factor(c)
		}
		suffix := 1.0
		for i := n - 1; i >= 0; i-- {
			outsidePass(e.children[i], outside*prefix[i]*suffix, inside, out)
			suffix *= factor(e.children[i])
		}
	}
}
