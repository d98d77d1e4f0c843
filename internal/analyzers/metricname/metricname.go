// Package metricname defines an analyzer enforcing the registry's
// metric naming convention: every constant name handed to the obs
// constructors must match
//
//	^[a-z][a-z0-9_.]*$
//
// — lowercase, digits, underscores and dots only. The Prometheus
// exposition sanitizer (obs.PromName) stays trivial exactly because
// every name in the tree already satisfies this grammar; a name that
// needs heavier sanitization would silently collide after '.' and '_'
// both map to '_'. Names built at runtime are not constant expressions
// and are out of scope — the convention is enforced at the call sites
// that mint new literal names.
package metricname

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"

	"hebs/internal/analysis"
)

// Analyzer is the metricname check.
var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc:  "flag obs metric names not matching ^[a-z][a-z0-9_.]*$ (keeps the Prometheus sanitizer collision-free)",
	Run:  run,
}

// namePattern is the grammar the Prometheus sanitizer relies on.
var namePattern = regexp.MustCompile(`^[a-z][a-z0-9_.]*$`)

// constructors maps the obs functions and Registry methods whose first
// argument is a metric name.
var constructors = map[string]bool{
	"hebs/internal/obs.NewCounter":            true,
	"hebs/internal/obs.NewGauge":              true,
	"hebs/internal/obs.NewHistogram":          true,
	"(*hebs/internal/obs.Registry).Counter":   true,
	"(*hebs/internal/obs.Registry).Gauge":     true,
	"(*hebs/internal/obs.Registry).Histogram": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || !constructors[fn.FullName()] {
				return true
			}
			tv, ok := pass.TypesInfo.Types[call.Args[0]]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				// Runtime-built names are checked by the code that
				// builds them, not here.
				return true
			}
			name := constant.StringVal(tv.Value)
			if !namePattern.MatchString(name) {
				pass.Reportf(call.Args[0].Pos(),
					"metric name %q does not match ^[a-z][a-z0-9_.]*$ (lowercase letters, digits, '_', '.')", name)
			}
			return true
		})
	}
	return nil
}

// calleeFunc resolves the called *types.Func, nil for indirect calls.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
