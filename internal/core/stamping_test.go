package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unstamped lists the exported *Manager methods that do not act on the
// log and so take no clock reading: set-up calls made before a run, and
// read-only accessors. Stats is here because it reads the clock itself,
// outside any call, for the snapshot's timestamp.
var unstamped = map[string]bool{
	"SetKillHandler": true, "SetInsufficientHook": true, "EnableFaultRetries": true, "SetTracer": true,
	"Params": true, "DB": true, "Device": true, "CheckInvariants": true, "Stats": true,
	"EpochStats": true, "GenSize": true, "NumGenerations": true, "TotalBlocks": true,
	"GenUsed": true, "GenLiveCells": true, "LOTLen": true, "LTTLen": true, "MemBytes": true,
	"Insufficient": true, "CommitCount": true, "AppendedByteCount": true,
	"WriteRetryCount": true, "KilledCount": true,
}

// TestStampingRule checks the manager's clock rule on the source, so a new
// method that breaks it fails here even if no test ever calls it:
//
//   - (a) the only clock reads in core are in enter, which takes each
//     call's one reading, and Stats;
//   - (b) every exported *Manager method puts `defer m.leave(m.enter())`
//     before any statement other than an argument check, or delegates in
//     one statement to a method that does, or is listed in unstamped.
func TestStampingRule(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	methods := make(map[string]*ast.FuncDecl)
	reads := make(map[string]int)
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 0 {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Now" {
						reads[fd.Name.Name]++
						if fd.Name.Name != "enter" && fd.Name.Name != "Stats" {
							t.Errorf("%s: %s reads the clock; only enter and Stats may",
								fset.Position(call.Pos()), fd.Name.Name)
						}
					}
				}
				return true
			})
			if managerRecv(fd) != "" && fd.Name.IsExported() {
				methods[fd.Name.Name] = fd
			}
		}
	}
	if reads["enter"] != 1 {
		t.Errorf("enter reads the clock %d times, want 1", reads["enter"])
	}

	sorted := make([]string, 0, len(methods))
	for name := range methods {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		fd := methods[name]
		if !unstamped[name] && !stamped(fd) && !delegates(fd, methods) {
			t.Errorf("%s: (*Manager).%s neither starts with defer %s.leave(%[3]s.enter()), "+
				"nor delegates to a method that does, nor is listed in unstamped",
				fset.Position(fd.Pos()), name, managerRecv(fd))
		}
	}
	for name := range unstamped {
		if methods[name] == nil {
			t.Errorf("unstamped lists %s, which is not an exported *Manager method", name)
		}
	}
}

// managerRecv returns the receiver name of a *Manager method, or "".
func managerRecv(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return ""
	}
	star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return ""
	}
	if id, ok := star.X.(*ast.Ident); !ok || id.Name != "Manager" {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// stamped reports whether fd's first statement after its argument checks
// (`if cond { panic(...) }`) is `defer m.leave(m.enter())`.
func stamped(fd *ast.FuncDecl) bool {
	recv := managerRecv(fd)
	for _, stmt := range fd.Body.List {
		if isArgCheck(stmt) {
			continue
		}
		d, ok := stmt.(*ast.DeferStmt)
		if !ok || !isMethodCall(d.Call, recv, "leave") || len(d.Call.Args) != 1 {
			return false
		}
		inner, ok := d.Call.Args[0].(*ast.CallExpr)
		return ok && isMethodCall(inner, recv, "enter")
	}
	return false
}

// delegates reports whether fd's body is one call to a stamped method.
func delegates(fd *ast.FuncDecl, methods map[string]*ast.FuncDecl) bool {
	if len(fd.Body.List) != 1 {
		return false
	}
	var e ast.Expr
	switch s := fd.Body.List[0].(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.ReturnStmt:
		if len(s.Results) == 1 {
			e = s.Results[0]
		}
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && isMethodCall(call, managerRecv(fd), sel.Sel.Name) &&
		methods[sel.Sel.Name] != nil && stamped(methods[sel.Sel.Name])
}

func isArgCheck(stmt ast.Stmt) bool {
	ifs, ok := stmt.(*ast.IfStmt)
	if !ok || ifs.Init != nil || ifs.Else != nil || len(ifs.Body.List) != 1 {
		return false
	}
	es, ok := ifs.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// isMethodCall reports whether call is recv.name(...).
func isMethodCall(call *ast.CallExpr, recv, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == recv
}
