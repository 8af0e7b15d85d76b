// Package ctxflow machine-checks the cancellation invariant of the
// long-running scan path: a loop that drives long-running enumeration must
// observe its context, or a cancelled campaign keeps burning node-hours
// until the current (multi-hour) leg finishes on its own. The durable
// runner's whole design — checkpoint, cancel, resume — assumes every layer
// above the kernels yields within one partition of work.
//
// The check is interprocedural, built on two facts:
//
//   - LongRunning marks a function whose call amounts to a partition-or-more
//     of enumeration work. It is seeded by name in packages with import-path
//     tail "cover" (the kernel entry points and the scan drivers: FindBest,
//     FindBestCtx, Run, RunCtx, ScanPass) and propagates to any
//     function that statically calls a LongRunning function.
//   - CtxAware marks a function that takes a context.Context parameter and
//     observes it: its body references ctx.Done() or ctx.Err(), or passes
//     the context on to a CtxAware callee.
//
// In the scoped packages (cover, cluster, harness — the layers that loop
// over scan legs), every for/range loop whose body statically calls a
// LongRunning function must observe cancellation inside the loop: reference
// Done() or Err() on a context, or pass a context to a CtxAware callee. A
// loop that does neither cannot be stopped between iterations and is
// flagged.
//
// The kernels' own candidate loops are deliberately out of reach: they call
// no LongRunning function, so the analyzer does not flag them — the
// cancellation granularity of this engine is one partition (Sec. III-F),
// and per-candidate ctx checks would put a branch in the innermost loop.
// Function literals are scanned as their own scope: a loop inside a worker
// closure must observe cancellation itself, not rely on a check elsewhere
// in the enclosing function.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// LongRunning marks a function whose call is a partition-or-more of
// enumeration work.
type LongRunning struct{}

// AFact marks LongRunning as a fact.
func (*LongRunning) AFact() {}

func (*LongRunning) String() string { return "long-running" }

// CtxAware marks a function that observes the context it is given.
type CtxAware struct{}

// AFact marks CtxAware as a fact.
func (*CtxAware) AFact() {}

func (*CtxAware) String() string { return "ctx-aware" }

// Analyzer flags loops that drive long-running enumeration without
// observing a context.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "flags loops driving long-running enumeration that never observe ctx.Done/ctx.Err",
	// Facts must be computed for every package; reporting is limited to
	// the looping layers via the scope check in run.
	FactTypes: []analysis.Fact{new(LongRunning), new(CtxAware)},
	Run:       run,
}

// reportScope lists the package tails whose loops are checked.
var reportScope = map[string]bool{
	"cover":     true,
	"cluster":   true,
	"harness":   true,
	"kernelize": true,
	"service":   true,
	"client":    true,
	"chaossoak": true,
}

// longRunningSeeds are the cover functions seeded as LongRunning by name
// (besides the ^kernel entry points). The sparse merge kernels are
// partition-sized work like their dense ^kernel siblings; the other
// sparse* helpers are per-prefix and deliberately not seeded.
var longRunningSeeds = map[string]bool{
	"FindBest":    true,
	"FindBestCtx": true,
	"Run":         true,
	"RunCtx":      true,
	"ScanPass":    true,
	"sparse2x1":   true,
	"sparse3x1":   true,
}

func run(pass *analysis.Pass) error {
	graph := pass.CallGraph()

	longRunning := computeLongRunning(pass, graph)
	ctxAware := computeCtxAware(pass, graph)

	for _, node := range analysis.SortedFuncs(graph) {
		if longRunning[node.Obj] {
			pass.ExportObjectFact(node.Obj, &LongRunning{})
		}
		if ctxAware[node.Obj] {
			pass.ExportObjectFact(node.Obj, &CtxAware{})
		}
	}

	if !reportScope[analysis.PathTail(pass.Pkg.Path())] {
		return nil
	}
	for _, node := range analysis.SortedFuncs(graph) {
		checkScope(pass, node.Decl.Body, longRunning, ctxAware)
	}
	return nil
}

// isLongRunning consults the local fixpoint set and the fact table.
func isLongRunning(pass *analysis.Pass, local map[*types.Func]bool, fn *types.Func) bool {
	if local[fn] {
		return true
	}
	var fact LongRunning
	return pass.ImportObjectFact(fn, &fact)
}

// isCtxAware consults the local fixpoint set and the fact table.
func isCtxAware(pass *analysis.Pass, local map[*types.Func]bool, fn *types.Func) bool {
	if local[fn] {
		return true
	}
	var fact CtxAware
	return pass.ImportObjectFact(fn, &fact)
}

// computeLongRunning seeds by name in cover-tail packages and propagates to
// callers to a fixpoint.
func computeLongRunning(pass *analysis.Pass, graph map[*types.Func]*analysis.FuncNode) map[*types.Func]bool {
	out := make(map[*types.Func]bool)
	if analysis.PathTail(pass.Pkg.Path()) == "cover" {
		for fn := range graph {
			if strings.HasPrefix(fn.Name(), "kernel") || longRunningSeeds[fn.Name()] {
				out[fn] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, node := range graph {
			if out[fn] {
				continue
			}
			for _, call := range node.Callees {
				if isLongRunning(pass, out, call.Fn) {
					out[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return out
}

// computeCtxAware marks functions with a context parameter that observe it
// directly or forward it to a CtxAware callee, to a fixpoint.
func computeCtxAware(pass *analysis.Pass, graph map[*types.Func]*analysis.FuncNode) map[*types.Func]bool {
	out := make(map[*types.Func]bool)
	for fn, node := range graph {
		if analysis.ReceiverOrParamContext(fn) && observesCtx(pass, node.Decl.Body) {
			out[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, node := range graph {
			if out[fn] || !analysis.ReceiverOrParamContext(fn) {
				continue
			}
			for _, call := range node.Callees {
				if isCtxAware(pass, out, call.Fn) && passesContext(pass, call.Site) {
					out[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return out
}

// observesCtx reports whether the node references Done or Err on a
// context-typed expression.
func observesCtx(pass *analysis.Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Done" && sel.Sel.Name != "Err" {
			return true
		}
		if t := pass.TypesInfo.TypeOf(sel.X); t != nil && analysis.IsContextType(t) {
			found = true
			return false
		}
		return true
	})
	return found
}

// passesContext reports whether the call passes a context-typed argument.
func passesContext(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if t := pass.TypesInfo.TypeOf(arg); t != nil && analysis.IsContextType(t) {
			return true
		}
	}
	return false
}

// checkScope walks one function scope (or function-literal scope) and flags
// its unobservant long-running loops. Nested function literals are checked
// as separate scopes and skipped here.
func checkScope(pass *analysis.Pass, body *ast.BlockStmt, longRunning, ctxAware map[*types.Func]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkScope(pass, n.Body, longRunning, ctxAware)
			return false
		case *ast.ForStmt:
			checkLoop(pass, n.Body, longRunning, ctxAware)
		case *ast.RangeStmt:
			checkLoop(pass, n.Body, longRunning, ctxAware)
		}
		return true
	})
}

// checkLoop flags the loop if its body calls a LongRunning function but
// never observes a context.
func checkLoop(pass *analysis.Pass, body *ast.BlockStmt, longRunning, ctxAware map[*types.Func]bool) {
	var culprit *types.Func
	var site ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if culprit != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := analysis.Callee(pass.TypesInfo, call); fn != nil && isLongRunning(pass, longRunning, fn) {
			culprit, site = fn, call
			return false
		}
		return true
	})
	if culprit == nil {
		return
	}
	if observesCtx(pass, body) {
		return
	}
	// Passing a context to a ctx-aware callee inside the loop also counts:
	// the callee yields on cancellation for us.
	handled := false
	ast.Inspect(body, func(n ast.Node) bool {
		if handled {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := analysis.Callee(pass.TypesInfo, call); fn != nil &&
			isCtxAware(pass, ctxAware, fn) && passesContext(pass, call) {
			handled = true
			return false
		}
		return true
	})
	if handled {
		return
	}
	pass.Reportf(site.Pos(),
		"loop drives long-running %s but never observes ctx.Done/ctx.Err; thread a context through so a cancelled campaign stops between partitions", culprit.Name())
}
