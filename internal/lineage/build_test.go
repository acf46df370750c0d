package lineage

import (
	"math/rand"
	"testing"

	"pcqe/internal/conf"
)

// randomTerm builds a small random formula over pool, mixing shared
// leaf pointers with freshly allocated leaves so both pointer and
// structural equality reach the builder's deduplication.
func randomTerm(r *rand.Rand, pool []*Expr, depth int) *Expr {
	k := r.Intn(4)
	if depth == 0 || k == 0 {
		leaf := pool[r.Intn(len(pool))]
		if r.Intn(2) == 0 {
			return NewVar(leaf.Variable())
		}
		return leaf
	}
	n := 2 + r.Intn(2)
	cs := make([]*Expr, n)
	for i := range cs {
		cs[i] = randomTerm(r, pool, depth-1)
	}
	if k == 3 {
		return Or(cs...)
	}
	return And(cs...)
}

// randomGroup is a DISTINCT- or GROUP BY-like group: terms with
// repeated variables, shared conjuncts, nesting and exact repeats.
func randomGroup(r *rand.Rand, pool []*Expr) []*Expr {
	group := make([]*Expr, 1+r.Intn(10))
	for i := range group {
		if i > 0 && r.Intn(5) == 0 {
			group[i] = group[r.Intn(i)]
			continue
		}
		group[i] = randomTerm(r, pool, 1+r.Intn(3))
	}
	return group
}

func leafPool(n int) []*Expr {
	pool := make([]*Expr, n)
	for i := range pool {
		pool[i] = NewVar(Var(i + 1))
	}
	return pool
}

// TestBuilderDifferential: OrAll/AndAll must compute the same Boolean
// function as the incremental Or/And chain the operators used to grow,
// checked through the brute-force probability oracle.
func TestBuilderDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pool := leafPool(9)
	for trial := 0; trial < 600; trial++ {
		group := randomGroup(r, pool)
		for _, kind := range []Kind{KindOr, KindAnd} {
			chain, built := False(), OrAll(group)
			if kind == KindAnd {
				chain, built = True(), AndAll(group)
			}
			for _, e := range group {
				if kind == KindOr {
					chain = Or(chain, e)
				} else {
					chain = And(chain, e)
				}
			}
			assign := randomAssign(r, chain)
			want, err := ProbBruteForce(chain, assign)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ProbBruteForce(built, assign)
			if err != nil {
				t.Fatal(err)
			}
			if !conf.Eq(got, want) {
				t.Fatalf("trial %d %s: builder %s = %v, chain %s = %v", trial, kind, built, got, chain, want)
			}
			if again := build(kind, group); !Equal(again, built) || again.Hash() != built.Hash() {
				t.Fatalf("trial %d %s: builder not deterministic: %s vs %s", trial, kind, built, again)
			}
		}
	}
}

// TestBuilderHierarchicalReadOnce: hierarchical groups — x_i ∧ y_ij
// disjuncts in any order, with repeats, and one level deeper — must
// come out read-once, so their confidence needs no Shannon pivots.
func TestBuilderHierarchicalReadOnce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		next := Var(1)
		fresh := func() *Expr { next++; return NewVar(next) }
		var group []*Expr
		for i := 0; i < 1+r.Intn(6); i++ {
			x := fresh()
			for j := 0; j < 1+r.Intn(5); j++ {
				y := fresh()
				if r.Intn(2) == 0 {
					for k := 0; k < 1+r.Intn(3); k++ {
						group = append(group, And(y, fresh(), x))
					}
				} else {
					group = append(group, And(y, x))
				}
			}
		}
		r.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
		group = append(group, group[:r.Intn(len(group))]...)

		or := OrAll(group)
		if !or.ReadOnce() {
			t.Fatalf("trial %d: OrAll not read-once: %s", trial, or)
		}
		// The unfactored chain shares too many variables for the exact
		// oracles, so check equivalence on random truth assignments.
		chain := Or(group...)
		vars := chain.Vars()
		truth := map[Var]bool{}
		for probe := 0; probe < 64; probe++ {
			for _, v := range vars {
				truth[v] = r.Intn(3) == 0
			}
			if or.Eval(truth) != chain.Eval(truth) {
				t.Fatalf("trial %d: OrAll %s disagrees with %s", trial, or, chain)
			}
		}
		// GROUP BY ANDs the same rows: deduplication alone makes it
		// read-once.
		if and := AndAll(group); !and.ReadOnce() {
			t.Fatalf("trial %d: AndAll not read-once: %s", trial, and)
		}
	}
}

// TestBuilderRules pins the builder's rewrites and its first-occurrence
// output order.
func TestBuilderRules(t *testing.T) {
	x, y, a, b, c := NewVar(1), NewVar(2), NewVar(3), NewVar(4), NewVar(5)
	cases := []struct {
		name string
		got  *Expr
		want string
	}{
		{"factor", OrAll([]*Expr{And(a, x), And(y, b), And(x, c)}), "((t1 & (t3 | t5)) | (t2 & t4))"},
		{"absorb", OrAll([]*Expr{And(x, a), x}), "t1"},
		{"idempotent-and", AndAll([]*Expr{And(x, a), And(x, b), NewVar(1)}), "(t1 & t3 & t4)"},
		{"idempotent-or", OrAll([]*Expr{a, NewVar(3), b}), "(t3 | t4)"},
		{"dual-factor", AndAll([]*Expr{Or(x, a), Or(x, b)}), "(t1 | (t3 & t4))"},
		{"units", OrAll([]*Expr{False(), nil, a}), "t3"},
		{"zero", AndAll([]*Expr{a, False()}), "⊥"},
		{"empty-and", AndAll(nil), "⊤"},
		{"empty-or", OrAll(nil), "⊥"},
		{"most-frequent", OrAll([]*Expr{And(a, x), And(a, y), And(b, y), And(c, y)}), "((t3 & t1) | (t2 & (t3 | t4 | t5)))"},
	}
	for _, tc := range cases {
		if s := tc.got.String(); s != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, s, tc.want)
		}
	}
}

// TestHashStructural: structurally equal formulas built from distinct
// nodes hash alike, and small structural changes (child order, a
// dropped child) change the hash.
func TestHashStructural(t *testing.T) {
	e1 := Or(And(NewVar(1), NewVar(2)), Not(NewVar(3)))
	e2 := Or(And(NewVar(1), NewVar(2)), Not(NewVar(3)))
	if e1 == e2 || e1.Hash() != e2.Hash() || !Equal(e1, e2) {
		t.Fatal("equal structures must share a hash")
	}
	leaf := VarLeaf(1)
	if leaf.Hash() != NewVar(1).Hash() || !Equal(&leaf, NewVar(1)) {
		t.Fatal("VarLeaf must equal NewVar")
	}
	for _, other := range []*Expr{Or(And(NewVar(2), NewVar(1)), Not(NewVar(3))), And(NewVar(1), NewVar(2)), True()} {
		if other.Hash() == e1.Hash() || Equal(other, e1) {
			t.Errorf("%s and %s should differ", other, e1)
		}
	}
}
