// Package allocfree machine-checks the zero-allocation invariant of the
// bound-and-prune engine (Sec. III-C): nothing reachable from a kernel scan
// entry point may heap-allocate. The kernels evaluate billions of candidate
// combinations per partition; a single allocation on that path turns into
// gigabytes per second of garbage and collapses the measured
// combinations/second by an order of magnitude. The benchmark suite pins
// allocs/op, but only for the configurations it runs — this analyzer pins
// the property for every kernel-reachable function on every change.
//
// The check is interprocedural. While visiting each package (in dependency
// order, see analysis.Run) the analyzer decides per function whether any
// allocation is reachable from its body and exports an Allocates fact for
// the ones that do. When it later visits a package containing entry points,
// a call edge into a function carrying the fact is a finding, with the
// fact's reason in the message.
//
// Entry points:
//
//   - in a package with import-path tail "cover": every function whose name
//     begins with "kernel" (kernelPair, kernel2x1, ... kernel4p1),
//     "sparse" or "solveSparse", and the decide and remove methods of the
//     greedy loop's carried support state (supportState), which run on
//     every pass;
//   - in a package with tail "bitmat": the hot word-wise operations, by name
//     prefix (PopAnd*, AndWords*, AndPop*, ComboPop*, ComboVec,
//     RowPopCount).
//
// Direct allocations recognized in a body: make, new, append; slice and map
// composite literals; taking the address of a composite literal; function
// literals (closure allocation); go statements; string concatenation;
// string<->[]byte/[]rune conversions; and calls to variadic functions
// without a spread argument (the argument slice). Calls resolve through the
// package call graph: an intra-package callee is analyzed transitively, a
// module-internal callee is consulted via its fact, and a standard-library
// callee is allowed only from a short allowlist (math, math/bits, sync,
// sync/atomic, unsafe) known not to allocate.
//
// Cold paths are exempt: the arguments of a panic call are skipped, since a
// kernel that is about to die may format its last words. Dynamic calls
// (function values, interface methods) have no edge and are not chased;
// kernels receive their observe callback as a function value, and the
// callback's allocations are charged to whoever built it.
package allocfree

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Allocates is the fact exported for every function from which a heap
// allocation is reachable.
type Allocates struct {
	// Why describes the nearest allocation, e.g. "append" or
	// "calls bitmat.New, which allocates".
	Why string
}

// AFact marks Allocates as a fact.
func (*Allocates) AFact() {}

func (a *Allocates) String() string { return "allocates: " + a.Why }

// Vetted is the package fact exported for every package the analyzer has
// visited. A cross-package callee whose package carries it and which has no
// Allocates fact is known clean; a callee in an unvetted package is trusted
// only via the stdlib allowlist.
type Vetted struct{}

// AFact marks Vetted as a fact.
func (*Vetted) AFact() {}

func (*Vetted) String() string { return "vetted" }

// Analyzer flags heap allocations reachable from kernel scan entry points.
var Analyzer = &analysis.Analyzer{
	Name: "allocfree",
	Doc:  "flags heap allocations reachable from the kernel scan entry points in cover and bitmat",
	// No Scope: the analyzer must see every package to export Allocates
	// facts; reporting is restricted to entry-point packages below.
	FactTypes: []analysis.Fact{new(Allocates), new(Vetted)},
	Run:       run,
}

// stdlibAllowed lists the standard-library packages kernels may call into:
// none of their functions allocate.
var stdlibAllowed = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync":        true,
	"sync/atomic": true,
	"unsafe":      true,
}

// site is one reason a function allocates.
type site struct {
	pos token.Pos
	why string
}

// fnInfo is the per-function allocation summary built for the package under
// analysis.
type fnInfo struct {
	node *analysis.FuncNode
	// direct allocation sites in the body.
	direct []site
	// calls to callees known (by fact or allowlist) to allocate.
	badCalls []site
	// intra-package call edges, for the transitive fixpoint.
	intra []*types.Func
	// allocates is the fixpoint result.
	allocates bool
	// why is the first reason, for the exported fact.
	why string
}

func run(pass *analysis.Pass) error {
	graph := pass.CallGraph()
	infos := make(map[*types.Func]*fnInfo, len(graph))
	for _, node := range analysis.SortedFuncs(graph) {
		info := &fnInfo{node: node}
		scanDirect(pass, node.Decl.Body, info)
		cold := coldRanges(pass, node.Decl.Body)
		for _, call := range node.Callees {
			if cold.contains(call.Site.Pos()) {
				continue // inside panic arguments: the dying path may format
			}
			classifyCall(pass, call, info)
		}
		infos[node.Obj] = info
	}

	// Fixpoint over intra-package edges: a caller of an allocating function
	// allocates.
	for _, info := range infos {
		if len(info.direct) > 0 {
			info.allocates = true
			info.why = info.direct[0].why
		} else if len(info.badCalls) > 0 {
			info.allocates = true
			info.why = info.badCalls[0].why
		}
	}
	for changed := true; changed; {
		changed = false
		for _, info := range infos {
			if info.allocates {
				continue
			}
			for _, callee := range info.intra {
				if ci := infos[callee]; ci != nil && ci.allocates {
					info.allocates = true
					info.why = fmt.Sprintf("calls %s, which allocates", callee.Name())
					changed = true
					break
				}
			}
		}
	}

	for _, node := range analysis.SortedFuncs(graph) {
		if info := infos[node.Obj]; info.allocates {
			pass.ExportObjectFact(node.Obj, &Allocates{Why: info.why})
		}
	}
	pass.ExportPackageFact(&Vetted{})

	// Reporting: walk the intra-package closure of each entry point and
	// report every allocation site and allocating call edge reached.
	// analysis.Run dedups sites shared by several entry points.
	for _, node := range analysis.SortedFuncs(graph) {
		if !isEntryPoint(pass.Pkg.Path(), node.Obj) {
			continue
		}
		reportReachable(pass, infos, node.Obj, make(map[*types.Func]bool))
	}
	return nil
}

// reportReachable reports the allocation sites of fn and everything
// reachable from it within the package.
func reportReachable(pass *analysis.Pass, infos map[*types.Func]*fnInfo, fn *types.Func, seen map[*types.Func]bool) {
	if seen[fn] {
		return
	}
	seen[fn] = true
	info := infos[fn]
	if info == nil {
		return
	}
	for _, s := range info.direct {
		pass.Reportf(s.pos, "%s on the kernel scan path; hoist it out of the per-candidate loop or into scratch set up before the scan", s.why)
	}
	for _, s := range info.badCalls {
		pass.Reportf(s.pos, "%s on the kernel scan path", s.why)
	}
	for _, callee := range info.intra {
		reportReachable(pass, infos, callee, seen)
	}
}

// isEntryPoint reports whether fn is a kernel scan entry point of the
// package at path.
func isEntryPoint(path string, fn *types.Func) bool {
	switch analysis.PathTail(path) {
	case "cover":
		// The sparse merge kernels (sparse2x1 ... sparse3x1) and their
		// prefix helpers share the dense kernels' invariant: setup
		// (newSparseEnv, ensureSparse) may allocate, the scan may not.
		// So do the carried support state's per-pass steps, which walk
		// every record or index entry of a greedy run on every pass; its
		// one-time build may allocate.
		if receiverName(fn) == "supportState" {
			return fn.Name() == "decide" || fn.Name() == "remove"
		}
		return strings.HasPrefix(fn.Name(), "kernel") ||
			strings.HasPrefix(fn.Name(), "sparse") ||
			strings.HasPrefix(fn.Name(), "solveSparse")
	case "kernelize":
		// kernelSubset is the dominance pass's inner word sweep — it runs
		// O(G²) times per reduction and must stay allocation-free like the
		// scan kernels it feeds.
		return strings.HasPrefix(fn.Name(), "kernel")
	case "bitmat":
		for _, prefix := range []string{"PopAnd", "AndWords", "AndPop", "ComboPop", "ComboVec", "RowPopCount"} {
			if strings.HasPrefix(fn.Name(), prefix) {
				return true
			}
		}
	case "sparsemat":
		// The merge kernels the sparse scan engine is built on; FromBitmat
		// and the sizing accessors are per-pass setup and exempt.
		for _, prefix := range []string{"Intersect", "Count", "Filter", "gallop", "Row"} {
			if strings.HasPrefix(fn.Name(), prefix) {
				return true
			}
		}
	}
	return false
}

// receiverName returns the name of the named type fn is a method of, or
// "" for a plain function.
func receiverName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// classifyCall records an intra-package edge or, for cross-package callees,
// whether the callee is known to allocate.
func classifyCall(pass *analysis.Pass, call *analysis.Call, info *fnInfo) {
	fn := call.Fn
	pkg := fn.Pkg()
	if pkg == nil {
		return // builtins are handled by scanDirect
	}
	if pkg == pass.Pkg {
		info.intra = append(info.intra, fn)
		return
	}
	var fact Allocates
	if pass.ImportObjectFact(fn, &fact) {
		info.badCalls = append(info.badCalls, site{call.Site.Pos(),
			fmt.Sprintf("calls %s.%s, which %s", pkg.Name(), fn.Name(), fact.String())})
		return
	}
	// A vetted callee (its package was analyzed earlier in dependency
	// order) without a fact is known clean. Anything else is trusted only
	// via the stdlib allowlist. Interface methods resolve here too: they
	// have no analyzed body, so an interface method of an unvetted package
	// is flagged rather than guessed at.
	var vetted Vetted
	if pass.ImportPackageFact(pkg, &vetted) || stdlibAllowed[pkg.Path()] {
		return
	}
	info.badCalls = append(info.badCalls, site{call.Site.Pos(),
		fmt.Sprintf("calls %s.%s, which is outside the alloc-free allowlist", pkg.Name(), fn.Name())})
}

// scanDirect records the direct allocations in body, skipping panic
// arguments (cold path) — nested function literals are themselves
// allocations and their bodies are charged to the closure, so they are
// still walked.
func scanDirect(pass *analysis.Pass, body *ast.BlockStmt, info *fnInfo) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := builtinName(pass.TypesInfo, n); ok {
				switch name {
				case "make", "new", "append":
					info.direct = append(info.direct, site{n.Pos(), name})
				case "panic":
					return false // cold: don't charge the last words
				}
				return true
			}
			if isAllocatingConversion(pass.TypesInfo, n) {
				info.direct = append(info.direct, site{n.Pos(), "string/slice conversion"})
				return true
			}
			if fn := analysis.Callee(pass.TypesInfo, n); fn != nil {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Variadic() &&
					!n.Ellipsis.IsValid() && len(n.Args) >= sig.Params().Len() {
					info.direct = append(info.direct, site{n.Pos(),
						fmt.Sprintf("variadic call of %s (argument slice)", fn.Name())})
				}
			}
		case *ast.CompositeLit:
			switch pass.TypesInfo.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				info.direct = append(info.direct, site{n.Pos(), "slice literal"})
			case *types.Map:
				info.direct = append(info.direct, site{n.Pos(), "map literal"})
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					info.direct = append(info.direct, site{n.Pos(), "&composite literal"})
				}
			}
		case *ast.FuncLit:
			info.direct = append(info.direct, site{n.Pos(), "function literal (closure)"})
		case *ast.GoStmt:
			info.direct = append(info.direct, site{n.Pos(), "go statement"})
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t, ok := pass.TypesInfo.TypeOf(n).Underlying().(*types.Basic); ok && t.Info()&types.IsString != 0 {
					info.direct = append(info.direct, site{n.Pos(), "string concatenation"})
				}
			}
		}
		return true
	})
}

// posRanges is a set of half-open source ranges.
type posRanges []struct{ lo, hi token.Pos }

func (r posRanges) contains(p token.Pos) bool {
	for _, rng := range r {
		if p >= rng.lo && p < rng.hi {
			return true
		}
	}
	return false
}

// coldRanges collects the argument ranges of panic calls in body — the one
// place formatting and allocation are tolerated, because the goroutine is
// about to die.
func coldRanges(pass *analysis.Pass, body *ast.BlockStmt) posRanges {
	var out posRanges
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := builtinName(pass.TypesInfo, call); ok && name == "panic" {
			out = append(out, struct{ lo, hi token.Pos }{call.Lparen, call.Rparen})
			return false
		}
		return true
	})
	return out
}

// builtinName returns the name of the builtin a call invokes, if any.
func builtinName(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return "", false
	}
	return id.Name, true
}

// isAllocatingConversion reports whether call is a conversion between string
// and []byte/[]rune, which copies.
func isAllocatingConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return false
	}
	to := tv.Type.Underlying()
	from := info.TypeOf(call.Args[0])
	if from == nil {
		return false
	}
	return (isString(to) && isByteOrRuneSlice(from.Underlying())) ||
		(isByteOrRuneSlice(to) && isString(from.Underlying()))
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}
