package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// Shared AST plumbing for the analyzers: parent links, object resolution,
// and nil-comparison recognition.

// parentMap links every node in a file to its enclosing node.
type parentMap map[ast.Node]ast.Node

func buildParents(files []*ast.File) parentMap {
	parents := make(parentMap)
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if len(stack) > 0 {
				parents[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
	}
	return parents
}

// objectOf resolves an identifier to its object, checking uses then defs.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// declaredWithin reports whether obj's declaration lies inside node's span.
// Analyzers use it to tell loop-local accumulators from outer state.
func declaredWithin(obj types.Object, node ast.Node) bool {
	if obj == nil || !obj.Pos().IsValid() {
		return false
	}
	return obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// pkgFunc resolves a call's callee to a package-level function and returns
// its package path and name, or "" if the callee is something else (method,
// local func value, builtin, conversion).
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return "", ""
	}
	fn, ok := objectOf(info, id).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// isNil reports whether e is the predeclared nil.
func isNil(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := objectOf(info, id).(*types.Nil)
	return isNilObj
}

// nilCompare reports whether e is a comparison of a field selection against
// nil, returning the compared field object and the operator (token.EQL for
// `x == nil`, token.NEQ for `x != nil`). The field object is resolved
// through types.Selections so `p.sink` and `plan.sink` compare equal.
func nilCompare(info *types.Info, e ast.Expr) (types.Object, token.Token) {
	bin, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return nil, token.ILLEGAL
	}
	var other ast.Expr
	switch {
	case isNil(info, bin.X):
		other = bin.Y
	case isNil(info, bin.Y):
		other = bin.X
	default:
		return nil, token.ILLEGAL
	}
	if obj := selectedField(info, other); obj != nil {
		return obj, bin.Op
	}
	return nil, token.ILLEGAL
}

// selectedField resolves e to the struct field it selects (p.sink → sink),
// or nil when e is not a field selection.
func selectedField(info *types.Info, e ast.Expr) types.Object {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil
	}
	return selection.Obj()
}

// condAllows reports whether cond (possibly an && chain) contains a
// `field != nil` test for the given field object.
func condAllows(info *types.Info, cond ast.Expr, field types.Object) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if e.Op == token.LAND {
			return condAllows(info, e.X, field) || condAllows(info, e.Y, field)
		}
	}
	obj, op := nilCompare(info, cond)
	return obj == field && op == token.NEQ
}

// terminatesFlow reports whether the last statement of body unconditionally
// leaves the enclosing flow: return, break, continue, goto, or panic.
func terminatesFlow(body *ast.BlockStmt) bool {
	if body == nil || len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// exprText renders an expression as source text.
func exprText(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}
