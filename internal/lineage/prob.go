package lineage

import (
	"errors"
	"fmt"

	"pcqe/internal/conf"
)

// Assignment supplies the probability (confidence) of each base-tuple
// variable. Implementations must return values in [0,1].
type Assignment interface {
	ProbOf(v Var) float64
}

// MapAssignment is an Assignment backed by a map. Missing variables have
// probability 0.
type MapAssignment map[Var]float64

// ProbOf implements Assignment.
func (m MapAssignment) ProbOf(v Var) float64 { return m[v] }

// FuncAssignment adapts a function to the Assignment interface.
type FuncAssignment func(Var) float64

// ProbOf implements Assignment.
func (f FuncAssignment) ProbOf(v Var) float64 { return f(v) }

// ErrTooManyShared is returned by Prob and CompileExact when a formula
// has more shared variables than the limit allows; exact Shannon
// expansion would cost 2^shared evaluations.
var ErrTooManyShared = errors.New("lineage: too many shared variables for exact evaluation")

// DefaultSharedLimit bounds the Shannon-expansion depth of Prob. 2^24 leaf
// evaluations is far beyond anything the workloads here produce; typical
// formulas are read-once or share a handful of variables.
const DefaultSharedLimit = 24

// Prob computes the exact probability that e is true when every variable
// is an independent Bernoulli event with the probability given by assign.
// It is the one production probability path: read-once formulas take the
// linear-time walk, every other formula is compiled at
// DefaultSharedLimit and evaluated by its Machine, which enumerates the
// 2^shared Shannon pivot assignments. pivots reports that enumeration
// (0 for read-once formulas), so callers can classify a formula without
// compiling it a second time. A formula past the limit yields an error
// wrapping ErrTooManyShared.
func Prob(e *Expr, assign Assignment) (p float64, pivots int64, err error) {
	if e.ReadOnce() {
		return probReadOnce(e, assign), 0, nil
	}
	prog, err := CompileExact(e, DefaultSharedLimit)
	if err != nil {
		return 0, 0, err
	}
	m := NewMachine(prog)
	probs := make([]float64, prog.NumSlots())
	for i, v := range prog.Vars() {
		probs[i] = assign.ProbOf(v)
	}
	// Summing 2^shared weighted branches can overshoot [0,1] by an ulp.
	p = clamp01(m.Prob(probs))
	_, pivots = m.Counters()
	return p, pivots, nil
}

// ProbIndependent computes the probability of e under the (generally
// unsound) assumption that all subformulas are independent, i.e. shared
// variables are treated as distinct events. It is linear time, exact for
// read-once formulas, and is the approximation ablated in
// AblationShannon.
func ProbIndependent(e *Expr, assign Assignment) float64 {
	return probReadOnce(e, assign)
}

// probReadOnce evaluates e assuming independence of children (exact when
// the formula is read-once).
func probReadOnce(e *Expr, assign Assignment) float64 {
	switch e.kind {
	case KindFalse:
		return 0
	case KindTrue:
		return 1
	case KindVar:
		return clamp01(assign.ProbOf(e.v))
	case KindNot:
		return 1 - probReadOnce(e.children[0], assign)
	case KindAnd:
		p := 1.0
		for _, c := range e.children {
			p *= probReadOnce(c, assign)
			//lint:allow confrange exact absorbing-zero short-circuit: once the
			// product is exactly 0 no later factor can revive it; an epsilon
			// test would wrongly truncate tiny-but-nonzero products.
			if p == 0 {
				return 0
			}
		}
		return p
	case KindOr:
		q := 1.0
		for _, c := range e.children {
			q *= 1 - probReadOnce(c, assign)
			//lint:allow confrange exact absorbing-zero short-circuit (see KindAnd).
			if q == 0 {
				return 1
			}
		}
		return 1 - q
	}
	panic("lineage: bad kind")
}

// ProbBruteForce enumerates all 2^n assignments of the variables of e and
// sums the probability mass of the satisfying ones. It is exponential and
// exists as a test oracle for Prob. It returns an error when e has more
// than 20 variables.
func ProbBruteForce(e *Expr, assign Assignment) (float64, error) {
	vars := e.Vars()
	if len(vars) > 20 {
		return 0, fmt.Errorf("lineage: brute force over %d variables refused", len(vars))
	}
	total := 0.0
	truth := make(map[Var]bool, len(vars))
	//lint:allow ctxpoll test-only oracle hard-capped at 2^20 assignments by
	// the guard above; it never runs under a solve budget.
	for mask := 0; mask < 1<<len(vars); mask++ {
		mass := 1.0
		for i, v := range vars {
			p := clamp01(assign.ProbOf(v))
			if mask&(1<<i) != 0 {
				truth[v] = true
				mass *= p
			} else {
				truth[v] = false
				mass *= 1 - p
			}
		}
		if mass > 0 && e.Eval(truth) {
			total += mass
		}
	}
	return total, nil
}

// Monotone reports whether e is negation-free, i.e. P(e) is monotonically
// non-decreasing in every variable's probability. Confidence-increment
// planning relies on this property.
func (e *Expr) Monotone() bool {
	switch e.kind {
	case KindFalse, KindTrue, KindVar:
		return true
	case KindNot:
		return false
	case KindAnd, KindOr:
		for _, c := range e.children {
			if !c.Monotone() {
				return false
			}
		}
		return true
	}
	panic("lineage: bad kind")
}

// clamp01 delegates to the shared conf.Clamp so lineage evaluation and
// policy comparison agree on one repair rule for malformed confidences.
func clamp01(p float64) float64 {
	return conf.Clamp(p)
}
