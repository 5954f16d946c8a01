package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The nilgate rule guards the "off means byte-identical" contract: optional
// hooks — fault injectors, trace sinks, observability probes — are struct
// fields of func or interface type that stay nil in an unobserved run, and
// every call through them must be behind a nil check so attaching nothing
// costs nothing and changes nothing.
//
// Which fields are "optional" is inferred from the package itself rather
// than from a naming convention: a func- or interface-typed field that is
// compared against nil anywhere in the package is evidently nullable, so
// every direct call through it must be dominated by a guard. Recognized
// guards:
//
//	if p.sink != nil { p.sink.Emit(e) }       // enclosing condition
//	if p.sink == nil { return }               // early return above the call
//	p.sink.Emit(e)
//
// Calls through a local copy (`h := p.hook; if h != nil { h() }`) are not
// flagged — the analyzer only tracks direct field calls. Fields that are
// never nil-compared are assumed required and stay unflagged.

// NilgateAnalyzer implements the nilgate rule.
var NilgateAnalyzer = &Analyzer{
	Name: "nilgate",
	Doc:  "optional hook fields (func- or interface-typed fields the package nil-checks somewhere) must be nil-gated at every call site",
	Run:  runNilgate,
}

func runNilgate(pass *Pass) {
	nullable := nullableFields(pass)
	if len(nullable) == 0 {
		return
	}
	parents := buildParents(pass.Files)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			field, fieldExpr := calledHookField(pass, call)
			if field == nil || !nullable[field] {
				return true
			}
			if guarded(pass, parents, call, field) {
				return true
			}
			text := exprText(pass.Fset, fieldExpr)
			pass.Reportf(fieldExpr.Pos(), "call through optional hook field %s is not nil-gated; the field "+
				"is nil-checked elsewhere in this package, so an unguarded call "+
				"panics when the hook is unset (guard with `if %s != nil`)", text, text)
			return true
		})
	}
}

// nullableFields collects func- or interface-typed struct fields that the
// package compares against nil anywhere.
func nullableFields(pass *Pass) map[types.Object]bool {
	nullable := make(map[types.Object]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			obj, _ := nilCompare(pass.TypesInfo, bin)
			if obj == nil {
				return true
			}
			switch obj.Type().Underlying().(type) {
			case *types.Signature, *types.Interface:
				nullable[obj] = true
			}
			return true
		})
	}
	return nullable
}

// calledHookField resolves a call to the optional field it goes through:
// either a direct call of a func-typed field (x.hook(...)) or a method call
// on an interface-typed field (x.sink.Emit(...)). Returns the field object
// and the selector expression naming the field.
func calledHookField(pass *Pass, call *ast.CallExpr) (types.Object, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	// x.hook(...): the callee itself selects a func-typed field.
	if obj := selectedField(pass.TypesInfo, sel); obj != nil {
		if _, isFunc := obj.Type().Underlying().(*types.Signature); isFunc {
			return obj, sel
		}
		return nil, nil
	}
	// x.sink.Emit(...): a method whose receiver selects an interface field.
	if recv, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		if obj := selectedField(pass.TypesInfo, recv); obj != nil {
			if _, isIface := obj.Type().Underlying().(*types.Interface); isIface {
				return obj, recv
			}
		}
	}
	return nil, nil
}

// guarded reports whether a nil guard for field dominates the call:
// an enclosing if whose condition requires `field != nil` (call in the then
// branch, or in the else branch of `field == nil`), or an earlier statement
// in an enclosing block of the form `if field == nil { return/continue/... }`.
func guarded(pass *Pass, parents parentMap, call ast.Node, field types.Object) bool {
	for n := ast.Node(call); n != nil; n = parents[n] {
		parent := parents[n]
		switch p := parent.(type) {
		case *ast.IfStmt:
			if n == ast.Node(p.Body) && condAllows(pass.TypesInfo, p.Cond, field) {
				return true
			}
			if n == ast.Node(p.Else) {
				if obj, op := nilCompare(pass.TypesInfo, p.Cond); obj == field && op == token.EQL {
					return true
				}
			}
		case *ast.BlockStmt:
			// Scan earlier sibling statements for an early-return guard.
			for _, stmt := range p.List {
				if stmt == n {
					break
				}
				ifStmt, ok := stmt.(*ast.IfStmt)
				if !ok || !terminatesFlow(ifStmt.Body) {
					continue
				}
				if obj, op := nilCompare(pass.TypesInfo, ifStmt.Cond); obj == field && op == token.EQL {
					return true
				}
			}
		}
	}
	return false
}
