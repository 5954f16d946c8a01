package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The maporder rule flags `for ... range m` over a map whose body has
// order-dependent effects: Go randomizes map iteration order per run, so
// any output, accumulation, or event scheduling performed inside the loop
// varies between bit-identical replays. This is exactly the bug class fixed
// by hand in PR 4 (per-type counters printed in elsim -v).
//
// Order-dependent effects recognized in the body:
//   - appending to a slice declared outside the loop
//   - concatenating onto a string declared outside the loop
//   - accumulating into a float declared outside the loop (`sum += v`,
//     -=, *=, /=, or `sum = sum + v`): float arithmetic is not
//     associative, so a different order is a different sum in the low bits
//   - sending on a channel
//   - calling a sink method (Write*, Emit, Encode, Schedule, Print*) or a
//     fmt printing function
//
// The canonical deterministic idiom is exempt: appends into a slice that a
// later statement in an enclosing block passes to sort/slices are
// discounted, because sorting collapses the insertion order. This covers
// both collect-keys-then-sort (e.g. recovery.Recover ordering its winner
// and in-doubt transactions):
//
//	names := make([]string, 0, len(m))
//	for name := range m { names = append(names, name) }
//	sort.Strings(names)
//
// and collect-structs-then-sort (rows sorted by a field afterwards). Loops
// whose body only reads, counts integers, or writes other maps are
// order-independent and not flagged.

// MaporderAnalyzer implements the maporder rule.
var MaporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "flags map iteration with order-dependent effects (appends, string or float accumulation, sink writes, sends): map order is randomized per run",
	Run:  runMaporder,
}

// sinkMethods are method names whose call inside a map-range body is
// treated as an order-dependent effect.
var sinkMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Emit":        true,
	"Encode":      true,
	"Schedule":    true,
	"Print":       true,
	"Printf":      true,
	"Println":     true,
	"Fprint":      true,
	"Fprintf":     true,
	"Fprintln":    true,
}

func runMaporder(pass *Pass) {
	for _, f := range pass.Files {
		parents := buildParents([]*ast.File{f})
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			effects := orderEffects(pass, parents, rng)
			if len(effects) == 0 {
				return true
			}
			pass.Reportf(rng.For, "iteration over map %s has order-dependent effects (%s); map order "+
				"is randomized per run — iterate over sorted keys",
				exprText(pass.Fset, rng.X), strings.Join(effects, ", "))
			return true
		})
	}
}

// appendTarget returns the object a statement `s = append(s, ...)` appends
// to, or nil if stmt is not a self-append. Via selOK it also accepts
// appends through a field selector (outer state by construction).
func appendTarget(pass *Pass, stmt ast.Stmt) (types.Object, ast.Expr) {
	assign, ok := stmt.(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return nil, nil
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil, nil
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return nil, nil
	}
	if _, isBuiltin := objectOf(pass.TypesInfo, fn).(*types.Builtin); !isBuiltin {
		return nil, nil
	}
	switch lhs := ast.Unparen(assign.Lhs[0]).(type) {
	case *ast.Ident:
		return objectOf(pass.TypesInfo, lhs), assign.Lhs[0]
	case *ast.SelectorExpr:
		if obj := selectedField(pass.TypesInfo, lhs); obj != nil {
			return obj, assign.Lhs[0]
		}
	}
	return nil, nil
}

// orderEffects scans the body of a map-range loop for operations whose
// result depends on iteration order, returning human-readable descriptions.
func orderEffects(pass *Pass, parents parentMap, rng *ast.RangeStmt) []string {
	var effects []string
	seen := make(map[string]bool)
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			effects = append(effects, s)
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if obj, lhs := appendTarget(pass, n); obj != nil && !declaredWithin(obj, rng) {
				if !sortedLater(pass, parents, rng, obj) {
					add("appends to " + exprText(pass.Fset, lhs))
				}
				return true
			}
			// String concatenation or float accumulation onto outer state.
			if verb := accumVerb(pass, n); verb != "" {
				if obj := lhsObject(pass, n.Lhs[0]); obj != nil && !declaredWithin(obj, rng) {
					add(verb + exprText(pass.Fset, n.Lhs[0]))
				}
			}
		case *ast.SendStmt:
			add("sends on " + exprText(pass.Fset, n.Chan))
		case *ast.CallExpr:
			if pkg, name := pkgFunc(pass.TypesInfo, n); pkg == "fmt" &&
				(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
				add("calls fmt." + name)
				return true
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if _, isSel := pass.TypesInfo.Selections[sel]; isSel && sinkMethods[sel.Sel.Name] {
					add("calls " + exprText(pass.Fset, sel))
				}
			}
		}
		return true
	})
	return effects
}

// accumVerb describes assign when it folds a value into its target in an
// order-dependent way: string concatenation (x += e, x = x + e) or float
// accumulation (x op= e, x = x op e for + - * /). Otherwise it returns "".
func accumVerb(pass *Pass, assign *ast.AssignStmt) string {
	if len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return ""
	}
	tv, ok := pass.TypesInfo.Types[assign.Lhs[0]]
	if !ok {
		return ""
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return ""
	}
	op := assign.Tok
	if op == token.ASSIGN {
		bin, ok := ast.Unparen(assign.Rhs[0]).(*ast.BinaryExpr)
		if !ok || !sameObjectExpr(pass, assign.Lhs[0], bin.X) {
			return ""
		}
		op = bin.Op
	}
	switch {
	case basic.Info()&types.IsString != 0 && (op == token.ADD || op == token.ADD_ASSIGN):
		return "concatenates onto "
	case basic.Info()&types.IsFloat != 0:
		switch op {
		case token.ADD, token.SUB, token.MUL, token.QUO,
			token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			return "accumulates float into "
		}
	}
	return ""
}

// lhsObject resolves an assignment target to its object (ident or field).
func lhsObject(pass *Pass, e ast.Expr) types.Object {
	switch lhs := ast.Unparen(e).(type) {
	case *ast.Ident:
		return objectOf(pass.TypesInfo, lhs)
	case *ast.SelectorExpr:
		return selectedField(pass.TypesInfo, lhs)
	}
	return nil
}

// sameObjectExpr reports whether a and b are identifiers naming the same
// object.
func sameObjectExpr(pass *Pass, a, b ast.Expr) bool {
	ai, ok := ast.Unparen(a).(*ast.Ident)
	if !ok {
		return false
	}
	bi, ok := ast.Unparen(b).(*ast.Ident)
	if !ok {
		return false
	}
	ao := objectOf(pass.TypesInfo, ai)
	return ao != nil && ao == objectOf(pass.TypesInfo, bi)
}

// sortedLater reports whether slice obj, appended to inside rng, is passed
// to a sort or slices function by a statement that runs after the loop:
// sorting collapses the nondeterministic insertion order, so the append is
// not an order-dependent effect. The search walks outward block by block
// (stopping at the enclosing function) and looks only at statements after
// the one containing the loop.
func sortedLater(pass *Pass, parents parentMap, rng *ast.RangeStmt, obj types.Object) bool {
	for cur := ast.Node(rng); cur != nil; cur = parents[cur] {
		switch parent := parents[cur].(type) {
		case *ast.BlockStmt:
			after := false
			for _, stmt := range parent.List {
				if stmt == cur {
					after = true
					continue
				}
				if after && sortsObject(pass, stmt, obj) {
					return true
				}
			}
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		}
	}
	return false
}

// sortsObject reports whether stmt contains a call to a sort or slices
// package function with obj among its arguments. Calls inside func
// literals do not count: a deferred or returned closure may never run.
func sortsObject(pass *Pass, stmt ast.Stmt, obj types.Object) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pkg, _ := pkgFunc(pass.TypesInfo, call); pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, a := range call.Args {
			ast.Inspect(a, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && objectOf(pass.TypesInfo, id) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
