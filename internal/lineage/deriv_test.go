package lineage

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDerivativesMatchPinnedReadOnce(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		e := randomReadOnceExpr(r, 8)
		assign := MapAssignment{}
		for _, v := range e.Vars() {
			assign[v] = r.Float64()
		}
		derivs := treeDerivatives(e, assign)
		for _, v := range e.Vars() {
			want := treeDerivative(e, assign, v)
			if math.Abs(derivs[v]-want) > 1e-9 {
				t.Fatalf("trial %d: d/d%d = %v, want %v (e=%v)", trial, v, derivs[v], want, e)
			}
		}
	}
}

func TestDerivativesSharedVarsFallback(t *testing.T) {
	// (x∧y) ∨ (x∧z): shared x forces the fallback path.
	e := Or(And(NewVar(1), NewVar(2)), And(NewVar(1), NewVar(3)))
	assign := MapAssignment{1: 0.5, 2: 0.4, 3: 0.6}
	derivs := treeDerivatives(e, assign)
	for _, v := range e.Vars() {
		want := treeDerivative(e, assign, v)
		if math.Abs(derivs[v]-want) > 1e-9 {
			t.Fatalf("d/d%d = %v, want %v", v, derivs[v], want)
		}
	}
}

func TestDerivativesWithNegation(t *testing.T) {
	// e = x ∧ ¬y: ∂/∂y = −p(x).
	e := And(NewVar(1), Not(NewVar(2)))
	assign := MapAssignment{1: 0.7, 2: 0.2}
	derivs := treeDerivatives(e, assign)
	if math.Abs(derivs[2]-(-0.7)) > 1e-9 {
		t.Fatalf("∂/∂y = %v, want -0.7", derivs[2])
	}
	if math.Abs(derivs[1]-0.8) > 1e-9 {
		t.Fatalf("∂/∂x = %v, want 0.8", derivs[1])
	}
}

func TestDerivativesZeroProbabilityChildren(t *testing.T) {
	// AND with a zero-probability sibling: prefix/suffix products must
	// not divide by zero.
	e := And(NewVar(1), NewVar(2), NewVar(3))
	assign := MapAssignment{1: 0, 2: 0.5, 3: 0.5}
	derivs := treeDerivatives(e, assign)
	if math.Abs(derivs[1]-0.25) > 1e-9 {
		t.Fatalf("∂/∂x1 = %v, want 0.25", derivs[1])
	}
	if derivs[2] != 0 || derivs[3] != 0 {
		t.Fatalf("siblings of a zero term should have zero derivative: %v", derivs)
	}
}

func TestPropertyDerivativesMatchNumeric(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randomReadOnceExpr(rr, 6)
		assign := MapAssignment{}
		for _, v := range e.Vars() {
			assign[v] = 0.1 + 0.8*rr.Float64()
		}
		derivs := treeDerivatives(e, assign)
		for _, v := range e.Vars() {
			const h = 1e-6
			orig := assign[v]
			assign[v] = orig + h
			up := mustProb(e, assign)
			assign[v] = orig - h
			down := mustProb(e, assign)
			assign[v] = orig
			numeric := (up - down) / (2 * h)
			if math.Abs(derivs[v]-numeric) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

// randomReadOnceExpr builds a random expression in which each variable
// occurs exactly once.
func randomReadOnceExpr(r *rand.Rand, nVars int) *Expr {
	vars := make([]*Expr, nVars)
	for i := range vars {
		e := NewVar(Var(i))
		if r.Intn(5) == 0 {
			e = Not(e)
		}
		vars[i] = e
	}
	r.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
	for len(vars) > 1 {
		var next []*Expr
		for i := 0; i < len(vars); {
			fan := 2 + r.Intn(2)
			if i+fan > len(vars) {
				fan = len(vars) - i
			}
			group := vars[i : i+fan]
			i += fan
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			if r.Intn(2) == 0 {
				next = append(next, And(group...))
			} else {
				next = append(next, Or(group...))
			}
		}
		vars = next
	}
	return vars[0]
}
