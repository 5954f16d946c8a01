package lint

import (
	"go/ast"
	"go/types"
)

// ErrsinkAnalyzer polices the durability surface: in the real-backend
// packages, a discarded error from a file write, fsync, truncate, or
// close is silent data loss — exactly the failure ephemeral logging's
// recovery story cannot tolerate, because the log is the only copy of
// recent history. The check is deliberately narrow (os.File methods and
// the handful of os helpers that move bytes to disk) so that every
// finding is actionable; ordinary dropped errors elsewhere stay a style
// question, not a lint error.
var ErrsinkAnalyzer = &Analyzer{
	Name: "errsink",
	Doc:  "flags discarded errors on the durability path (os.File Write/Sync/Close/Truncate, os.WriteFile, os.Rename, os.Remove)",
	Run:  runErrsink,
}

// errsinkFileMethods is the os.File durability surface.
var errsinkFileMethods = map[string]bool{
	"Write":       true,
	"WriteAt":     true,
	"WriteString": true,
	"Sync":        true,
	"Close":       true,
	"Truncate":    true,
}

// errsinkOsFuncs are package-level os helpers that write to disk.
var errsinkOsFuncs = map[string]bool{
	"WriteFile": true,
	"Rename":    true,
	"Remove":    true,
}

// durabilityCall reports whether call targets the durability surface,
// returning a display name like "(*os.File).Sync".
func durabilityCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := objectOf(info, sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if sig.Recv() == nil {
		if fn.Pkg().Path() == "os" && errsinkOsFuncs[fn.Name()] {
			return "os." + fn.Name(), true
		}
		return "", false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return "", false
	}
	tn := named.Obj()
	if tn.Pkg() != nil && tn.Pkg().Path() == "os" && tn.Name() == "File" && errsinkFileMethods[fn.Name()] {
		return "(*os.File)." + fn.Name(), true
	}
	return "", false
}

func runErrsink(pass *Pass) {
	info := pass.TypesInfo
	flag := func(call *ast.CallExpr, form string) {
		name, ok := durabilityCall(info, call)
		if !ok {
			return
		}
		pass.Reportf(call.Pos(), "%s error from %s on the durability path; a swallowed I/O error here is silent data loss", form, name)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					flag(call, "discarded")
				}
			case *ast.DeferStmt:
				flag(n.Call, "deferred call discards the")
			case *ast.GoStmt:
				flag(n.Call, "goroutine launch discards the")
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
				if !ok {
					return true
				}
				// The error is the final result; flag when that slot is
				// the blank identifier.
				last := ast.Unparen(n.Lhs[len(n.Lhs)-1])
				if id, ok := last.(*ast.Ident); ok && id.Name == "_" {
					flag(call, "blanked")
				}
			}
			return true
		})
	}
}
