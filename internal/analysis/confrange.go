package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
	"regexp"
	"strings"
)

// Confrange returns the confrange analyzer. It enforces the paper's
// probability-semantics contract: confidence values live in [0,1] and
// are never compared with raw float equality.
//
//   - An ==/!= between floats where either side is a confidence
//     expression is flagged: rounding in lineage evaluation (products of
//     probabilities, Shannon pivots) makes exact equality meaningless.
//     Use conf.Eq/conf.Zero/conf.One, or //lint:allow confrange for
//     documented sentinel checks (e.g. MaxP==0 meaning "unset").
//   - A constant outside [0,1] assigned to a confidence-typed field or
//     variable is flagged.
//   - Ordered comparisons with an inline epsilon literal (x >= y-1e-12)
//     are flagged: the tolerance must come from internal/conf so every
//     comparison in the system agrees on it.
func Confrange(scope ...string) *Analyzer {
	return &Analyzer{
		Name:  "confrange",
		Doc:   "confidence values stay in [0,1] and are never compared with raw float equality",
		Scope: scope,
		Run:   runConfrange,
	}
}

// confFieldNames are struct fields holding confidences/probabilities.
var confFieldNames = map[string]bool{
	"Confidence": true, "Conf": true, "MaxConf": true,
	"P": true, "MaxP": true, "NewP": true,
	"Beta": true, "Prob": true, "Probability": true, "Threshold": true,
}

// confCallNames are functions/methods returning a confidence as a
// single float64 (lineage.Prob's three results never reach a
// comparison directly; Machine.Prob's one result does).
var confCallNames = map[string]bool{
	"Prob": true, "ProbOf": true, "Confidence": true,
	"ProbIndependent": true, "maxP": true, "Threshold": true,
}

// confIdentRe matches local variables that carry a probability by
// convention (p/q are the probability and complement-probability
// accumulators throughout the lineage code).
var confIdentRe = regexp.MustCompile(`^(conf|confidence|prob|probability|beta|p|q|newP)$`)

// confEpsLimit bounds what counts as an "epsilon" literal in ordered
// comparisons.
const confEpsLimit = 1e-6

func runConfrange(pass *Pass) error {
	// internal/conf defines the tolerance helpers; its own bodies are the
	// one place epsilon arithmetic is allowed.
	if strings.HasSuffix(pass.Pkg.Path(), "internal/conf") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkConfCompare(pass, n)
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i < len(n.Rhs) {
						checkConfAssign(pass, lhs, n.Rhs[i])
					}
				}
			case *ast.CompositeLit:
				checkConfComposite(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkConfCompare(pass *Pass, be *ast.BinaryExpr) {
	switch be.Op {
	case token.EQL, token.NEQ:
		if !isFloatExpr(pass, be.X) || !isFloatExpr(pass, be.Y) {
			return
		}
		if isConfExpr(pass, be.X) || isConfExpr(pass, be.Y) {
			pass.Reportf(be.OpPos, "raw float %s on confidence value; use conf.Eq/conf.Zero/conf.One (or //lint:allow confrange for a documented sentinel)", be.Op)
		}
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
		if !isFloatExpr(pass, be.X) && !isFloatExpr(pass, be.Y) {
			return
		}
		if hasInlineEpsilon(pass, be.X) || hasInlineEpsilon(pass, be.Y) {
			pass.Reportf(be.OpPos, "inline epsilon in confidence comparison; use conf.GE/GT/LE/LT so every comparison shares one tolerance")
		}
	}
}

// hasInlineEpsilon reports whether e is an additive expression whose
// constant side is a tiny non-zero float — the x±1e-12 idiom.
func hasInlineEpsilon(pass *Pass, e ast.Expr) bool {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || (be.Op != token.ADD && be.Op != token.SUB) {
		return false
	}
	for _, side := range []ast.Expr{be.X, be.Y} {
		if v, ok := constFloat(pass, side); ok && v != 0 && math.Abs(v) <= confEpsLimit {
			return true
		}
	}
	return false
}

func checkConfAssign(pass *Pass, lhs, rhs ast.Expr) {
	if !isConfTarget(pass, lhs) {
		return
	}
	if v, ok := constFloat(pass, rhs); ok && (v < 0 || v > 1 || math.IsNaN(v)) {
		pass.Reportf(rhs.Pos(), "constant %g assigned to confidence value is outside [0,1]", v)
	}
}

func checkConfComposite(pass *Pass, cl *ast.CompositeLit) {
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || !confFieldNames[key.Name] {
			continue
		}
		if v, ok := constFloat(pass, kv.Value); ok && (v < 0 || v > 1 || math.IsNaN(v)) {
			pass.Reportf(kv.Value.Pos(), "constant %g assigned to confidence field %s is outside [0,1]", v, key.Name)
		}
	}
}

// isConfTarget reports whether lhs denotes a confidence slot: a
// conf-named field or a conf-named float variable (possibly indexed, as
// in plan.NewP[i]).
func isConfTarget(pass *Pass, lhs ast.Expr) bool {
	return isFloatExpr(pass, lhs) && hasConfName(ast.Unparen(lhs))
}

// isConfExpr reports whether e reads a confidence value.
func isConfExpr(pass *Pass, e ast.Expr) bool {
	if !isFloatExpr(pass, e) {
		return false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.Ident:
			return confCallNames[fun.Name]
		case *ast.SelectorExpr:
			return confCallNames[fun.Sel.Name]
		}
		return false
	default:
		return hasConfName(e)
	}
}

// hasConfName matches the shape of a confidence reference by name only
// (the caller has already established the value is a float).
func hasConfName(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return confFieldNames[e.Sel.Name]
	case *ast.Ident:
		return confIdentRe.MatchString(e.Name)
	case *ast.IndexExpr:
		return hasConfName(e.X)
	}
	return false
}

func isFloatExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// constFloat returns the constant float value of e, when e is constant
// and numeric.
func constFloat(pass *Pass, e ast.Expr) (float64, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		v, _ := constant.Float64Val(constant.ToFloat(tv.Value))
		return v, true
	}
	return 0, false
}
