// Package durawrite machine-checks the durability invariant of the
// checkpoint path (Sec. IV-B of the runner design, docs/INVARIANTS.md): a
// checkpoint either exists completely on disk or not at all. That only
// holds when every checkpoint write goes through ckptstore's atomic publish
// — write to a temp file, fsync the file, rename into place, fsync the
// directory — and when no write or close error is silently dropped (a
// failed Close on a buffered write is a failed write).
//
// Within the scoped packages (ckptstore, cover, harness, multihit,
// service, multihitd — the layers that produce or consume checkpoint
// files and the daemon's job journal), three rules:
//
//  1. Raw file-creation APIs (os.Create, os.WriteFile, os.OpenFile) outside
//     internal/ckptstore are flagged: the checkpoint path has exactly one
//     blessed writer. ckptstore itself is where the temp+fsync+rename dance
//     and the journal's append+fsync live, so its own use of those APIs is
//     the implementation, not a violation. The analyzer exports a
//     DurableWriter fact for the ckptstore functions that make bytes
//     durable — the rename publish, the journal's append and commit — and
//     names them in the diagnostic so the fix is self-evident.
//  2. A discarded error is flagged where it is a lost write: a Close or
//     Sync on an *os.File — a bare `f.Close()` statement, `_ = f.Close()`,
//     or a `defer f.Close()` on a handle opened for writing (a deferred
//     Close on a read-only handle is idiomatic and allowed) — and any
//     call of a DurableWriter whose error result is dropped the same ways
//     (a bare statement, a blank assignment, a defer).
//  3. An unbounded read (io.ReadAll, os.ReadFile) is flagged: checkpoint
//     frames carry a length header with a hard cap, and a truncated or
//     corrupted header must not make the reader attempt an absurd
//     allocation. Bound the read with io.LimitReader or read into a sized
//     buffer.
//
// Everything here is intentionally syntactic and local except the
// DurableWriter fact; the value of the analyzer is that the checkpoint
// write protocol cannot regress silently in any of the packages that
// touch checkpoint or job-state bytes.
package durawrite

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// DurableWriter marks a ckptstore function that makes bytes durable: it
// performs the atomic temp+fsync+rename publish, writes or fsyncs a file
// handle (the journal's append and commit), or calls a function that does.
type DurableWriter struct{}

// AFact marks DurableWriter as a fact.
func (*DurableWriter) AFact() {}

func (*DurableWriter) String() string { return "durable-writer" }

// Analyzer flags checkpoint-path file IO that bypasses the atomic publish
// protocol or drops write errors.
var Analyzer = &analysis.Analyzer{
	Name: "durawrite",
	Doc:  "flags checkpoint-path file IO bypassing ckptstore's atomic publish, discarded Close/Sync errors, and unbounded reads",
	// The packages that produce or consume checkpoint files, plus the
	// discovery daemon whose job specs/results share the same durability
	// contract.
	Scope:     []string{"ckptstore", "cover", "harness", "multihit", "service", "multihitd", "client", "chaossoak"},
	FactTypes: []analysis.Fact{new(DurableWriter)},
	Run:       run,
}

func run(pass *analysis.Pass) error {
	inCkptstore := analysis.PathTail(pass.Pkg.Path()) == "ckptstore"
	if inCkptstore {
		exportDurableWriters(pass)
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, inCkptstore)
		}
	}
	return nil
}

// exportDurableWriters marks the ckptstore functions that make bytes
// durable: those that rename a published file into place or write or
// fsync an *os.File, and, to a fixpoint, those that call a marked one
// (the journal's Commit reaches its fsync through helpers).
func exportDurableWriters(pass *analysis.Pass) {
	type decl struct {
		fn   *types.Func
		body *ast.BlockStmt
	}
	var decls []decl
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls = append(decls, decl{obj, fd.Body})
			}
		}
	}
	marked := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if !marked[d.fn] && writesDurably(pass, d.body, marked) {
				marked[d.fn], changed = true, true
			}
		}
	}
	for _, d := range decls {
		if marked[d.fn] {
			pass.ExportObjectFact(d.fn, &DurableWriter{})
		}
	}
}

// writesDurably reports whether body renames a file into place, writes or
// fsyncs an *os.File, or calls a function already marked.
func writesDurably(pass *analysis.Pass, body *ast.BlockStmt, marked map[*types.Func]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		found = isPkgFunc(fn, "os", "Rename") || marked[fn] ||
			isFileMethod(fn, "Write") || isFileMethod(fn, "WriteAt") || isFileMethod(fn, "Sync")
		return !found
	})
	return found
}

// checkFunc applies the three rules to one function body.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, inCkptstore bool) {
	// writeHandles collects the *os.File variables this function opened
	// for writing, so rule 2 can tell a write-side defer Close from a
	// harmless read-side one.
	writeHandles := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if assign, ok := n.(*ast.AssignStmt); ok {
			recordWriteHandles(pass, assign, writeHandles)
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkRawWrite(pass, n, inCkptstore)
			checkUnboundedRead(pass, n)
		case *ast.ExprStmt:
			// Bare `f.Close()` / `f.Sync()` / durable-writer statement.
			if call, ok := n.X.(*ast.CallExpr); ok {
				if name, ok := discardedFileCall(pass, call); ok {
					pass.Reportf(call.Pos(),
						"%s error discarded on the checkpoint path; a failed %s is a failed write — check it", name, name)
				}
				if name, _, ok := durableWriterCall(pass, call); ok {
					reportDroppedDurable(pass, call, name)
				}
			}
		case *ast.AssignStmt:
			// `t, _ := j.Append(rec)` drops a durable writer's error.
			if len(n.Rhs) == 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
					if name, errIdx, ok := durableWriterCall(pass, call); ok && errIdx < len(n.Lhs) && isBlank(n.Lhs[errIdx]) {
						reportDroppedDurable(pass, call, name)
					}
				}
			}
			// `_ = f.Close()` discards just as silently.
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name != "_" || i >= len(n.Rhs) {
					continue
				}
				if call, ok := n.Rhs[i].(*ast.CallExpr); ok {
					if name, ok := discardedFileCall(pass, call); ok {
						pass.Reportf(call.Pos(),
							"%s error discarded on the checkpoint path; a failed %s is a failed write — check it", name, name)
					}
				}
			}
		case *ast.DeferStmt:
			if name, _, ok := durableWriterCall(pass, n.Call); ok {
				reportDroppedDurable(pass, n.Call, name)
			}
			if name, ok := discardedFileCall(pass, n.Call); ok && name == "Close" {
				if recv := receiverObject(pass, n.Call); recv != nil && writeHandles[recv] {
					pass.Reportf(n.Pos(),
						"deferred Close on a write handle discards the flush error; close explicitly after the last write and check it")
				}
			}
			return false // the deferred call itself was just handled
		}
		return true
	})
}

// durableWriterCall reports whether call invokes a DurableWriter with an
// error result, naming it and giving that result's index.
func durableWriterCall(pass *analysis.Pass, call *ast.CallExpr) (string, int, bool) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || !pass.ImportObjectFact(fn.Origin(), new(DurableWriter)) {
		return "", 0, false
	}
	res := fn.Type().(*types.Signature).Results()
	for i := res.Len() - 1; i >= 0; i-- {
		if types.Identical(res.At(i).Type(), types.Universe.Lookup("error").Type()) {
			return writerName(fn), i, true
		}
	}
	return "", 0, false
}

// reportDroppedDurable flags a durable writer call whose error is dropped.
func reportDroppedDurable(pass *analysis.Pass, call *ast.CallExpr, name string) {
	pass.Reportf(call.Pos(),
		"error from durable writer %s discarded on the checkpoint path; a write that may not have landed must not be reported as done — check it", name)
}

// isBlank reports whether expr is the blank identifier.
func isBlank(expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	return ok && id.Name == "_"
}

// writerName names a durable writer as the diagnostics show it: a plain
// function by its name, a method as Type.Method.
func writerName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// recordWriteHandles notes variables assigned from a write-mode open.
func recordWriteHandles(pass *analysis.Pass, assign *ast.AssignStmt, out map[types.Object]bool) {
	if len(assign.Rhs) != 1 {
		return
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	writeOpen := isPkgFunc(fn, "os", "Create") ||
		(isPkgFunc(fn, "os", "OpenFile") && len(call.Args) >= 2 && mentionsWriteFlag(call.Args[1]))
	if !writeOpen {
		return
	}
	id, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		out[obj] = true
	} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
		out[obj] = true
	}
}

// mentionsWriteFlag reports whether the flag expression references a
// writing open mode.
func mentionsWriteFlag(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "O_WRONLY", "O_RDWR", "O_APPEND", "O_CREATE", "O_TRUNC":
				found = true
			}
		}
		return true
	})
	return found
}

// checkRawWrite flags raw file-creation APIs outside ckptstore.
func checkRawWrite(pass *analysis.Pass, call *ast.CallExpr, inCkptstore bool) {
	if inCkptstore {
		return
	}
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	var raw string
	switch {
	case isPkgFunc(fn, "os", "Create"):
		raw = "os.Create"
	case isPkgFunc(fn, "os", "WriteFile"):
		raw = "os.WriteFile"
	case isPkgFunc(fn, "os", "OpenFile") && len(call.Args) >= 2 && mentionsWriteFlag(call.Args[1]):
		raw = "os.OpenFile(...write...)"
	default:
		return
	}
	pass.Reportf(call.Pos(),
		"raw %s on the checkpoint path; route the write through ckptstore's durable writers (%s) so a crash cannot leave a torn file",
		raw, durableWriterNames(pass))
}

// durableWriterNames lists the fact-carrying ckptstore entry points for the
// diagnostic, or a generic hint when none are in scope (fixtures).
func durableWriterNames(pass *analysis.Pass) string {
	var names []string
	for _, of := range pass.AllObjectFacts() {
		fn, ok := of.Obj.(*types.Func)
		if _, dw := of.Fact.(*DurableWriter); !dw || !ok {
			continue
		}
		if name := writerName(fn); isExportedPath(name) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return "temp+fsync+rename"
	}
	return strings.Join(names, ", ")
}

// isExportedPath reports whether every dot-separated part of a writer
// name (Func or Type.Method) is exported.
func isExportedPath(name string) bool {
	for _, part := range strings.Split(name, ".") {
		if !ast.IsExported(part) {
			return false
		}
	}
	return true
}

// checkUnboundedRead flags io.ReadAll and os.ReadFile. io.ReadAll whose
// argument is a direct io.LimitReader(...) call is the sanctioned bounded
// pattern and passes.
func checkUnboundedRead(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	var what string
	switch {
	case isPkgFunc(fn, "io", "ReadAll"):
		if len(call.Args) == 1 {
			if inner, ok := call.Args[0].(*ast.CallExpr); ok {
				if lr := analysis.Callee(pass.TypesInfo, inner); lr != nil && isPkgFunc(lr, "io", "LimitReader") {
					return
				}
			}
		}
		what = "io.ReadAll"
	case isPkgFunc(fn, "os", "ReadFile"):
		what = "os.ReadFile"
	default:
		return
	}
	pass.Reportf(call.Pos(),
		"unbounded %s on the checkpoint path; a corrupt length header must not drive the allocation — bound it with io.LimitReader or a sized buffer", what)
}

// discardedFileCall reports whether call is Close or Sync on an *os.File
// whose error result is being discarded by the caller context.
func discardedFileCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if sel.Sel.Name != "Close" && sel.Sel.Name != "Sync" {
		return "", false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil || !isOSFile(t) {
		return "", false
	}
	return sel.Sel.Name, true
}

// receiverObject resolves the object of a method call's receiver variable.
func receiverObject(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.Uses[id]
}

// isFileMethod reports whether fn is the named method of *os.File.
func isFileMethod(fn *types.Func, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && isOSFile(recv.Type())
}

// isOSFile reports whether t is *os.File (or os.File).
func isOSFile(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "File" && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}

// isPkgFunc reports whether fn is the named function of the named package.
func isPkgFunc(fn *types.Func, pkg, name string) bool {
	return fn != nil && fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == pkg
}
