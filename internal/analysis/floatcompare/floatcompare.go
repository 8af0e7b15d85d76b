// Package floatcompare enforces the determinism invariant of Sec. III-E: the
// multi-stage maxF reduction returns the identical record under every
// reduction topology only because all comparisons share one canonical total
// order — higher F, ties broken toward the lexicographically smallest gene
// tuple (reduce.Combo.Better). A direct ==, <, or > on an F score outside
// internal/reduce reintroduces topology-dependent winners: two combinations
// with equal F would be ordered by enumeration position, which changes with
// the partition count.
//
// The analyzer flags any comparison operator whose operand selects a
// float64 field named F — the score field of reduce.Combo, the one
// combination record for every hit count. A deliberate canonical
// comparator carries a //lint:allow floatcompare suppression.
package floatcompare

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags direct F-score comparisons outside internal/reduce.
var Analyzer = &analysis.Analyzer{
	Name: "floatcompare",
	Doc:  "flags direct F-score float comparisons outside internal/reduce that break cross-partition determinism",
	// internal/reduce owns the one canonical comparator.
	Exclude: []string{"reduce"},
	Run:     run,
}

// comparisons are the operators that impose an order.
var comparisons = map[token.Token]bool{
	token.EQL: true, token.NEQ: true,
	token.LSS: true, token.GTR: true,
	token.LEQ: true, token.GEQ: true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			expr, ok := n.(*ast.BinaryExpr)
			if !ok || !comparisons[expr.Op] {
				return true
			}
			if isFScore(pass.TypesInfo, expr.X) || isFScore(pass.TypesInfo, expr.Y) {
				pass.Reportf(expr.Pos(),
					"direct %s comparison of an F score; use the canonical tie-breaking comparator (reduce.Combo.Better) so every reduction topology agrees",
					expr.Op)
			}
			return true
		})
	}
	return nil
}

// isFScore reports whether expr selects a float64 field named F.
func isFScore(info *types.Info, expr ast.Expr) bool {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "F" {
		return false
	}
	tv, ok := info.Types[sel]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
