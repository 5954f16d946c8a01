package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
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
// whose body only reads, counts, or writes other maps are
// order-independent and not flagged. Where the key type is ordered and the
// file imports "sort", the analyzer attaches a suggested fix that rewrites
// the loop to iterate over sorted keys (apply with `ellint -fix`).

// MaporderAnalyzer implements the maporder rule.
var MaporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc: "flag map iteration with order-dependent effects (slice appends, sink " +
		"writes, event scheduling); map order is randomized per run, so such " +
		"loops must iterate over sorted keys to keep replays bit-identical.",
	Run: runMaporder,
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

func runMaporder(pass *Pass) error {
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
			mapType, isMap := tv.Type.Underlying().(*types.Map)
			if !isMap {
				return true
			}
			effects := orderEffects(pass, parents, rng)
			if len(effects) == 0 {
				return true
			}
			d := Diagnostic{
				Pos: rng.For,
				End: rng.X.End(),
				Message: fmt.Sprintf(
					"iteration over map %s has order-dependent effects (%s); map order "+
						"is randomized per run — iterate over sorted keys",
					exprText(pass.Fset, rng.X), strings.Join(effects, ", ")),
			}
			if fix, ok := sortedKeysFix(pass, f, rng, mapType); ok {
				d.SuggestedFixes = []SuggestedFix{fix}
			}
			pass.Report(d)
			return true
		})
	}
	return nil
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
			// String concatenation onto outer state: x += e or x = x + e.
			// (Float accumulation is the floatorder rule's concern.)
			if len(n.Lhs) == 1 && isStringConcat(pass, n) {
				if obj := lhsObject(pass, n.Lhs[0]); obj != nil && !declaredWithin(obj, rng) {
					add("concatenates onto " + exprText(pass.Fset, n.Lhs[0]))
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

// isStringConcat reports whether assign is `x += e` or `x = x + ...` with a
// string-typed left-hand side.
func isStringConcat(pass *Pass, assign *ast.AssignStmt) bool {
	tv, ok := pass.TypesInfo.Types[assign.Lhs[0]]
	if !ok {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsString == 0 {
		return false
	}
	switch assign.Tok {
	case token.ADD_ASSIGN:
		return true
	case token.ASSIGN:
		bin, ok := ast.Unparen(assign.Rhs[0]).(*ast.BinaryExpr)
		return ok && bin.Op == token.ADD && sameObjectExpr(pass, assign.Lhs[0], bin.X)
	}
	return false
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

// sortedKeysFix builds the mechanical rewrite to a sorted-keys loop. It is
// offered only when the rewrite is clearly safe: the key is a fresh ident
// of ordered basic type (string or integer), the map expression is a simple
// ident or selector (evaluated twice by the rewrite), and the file already
// imports "sort".
func sortedKeysFix(pass *Pass, f *ast.File, rng *ast.RangeStmt, mapType *types.Map) (SuggestedFix, bool) {
	if rng.Tok != token.DEFINE {
		return SuggestedFix{}, false
	}
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return SuggestedFix{}, false
	}
	basic, ok := mapType.Key().Underlying().(*types.Basic)
	if !ok || basic.Info()&(types.IsString|types.IsInteger) == 0 {
		return SuggestedFix{}, false
	}
	switch ast.Unparen(rng.X).(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return SuggestedFix{}, false
	}
	if !importsPath(f, "sort") {
		return SuggestedFix{}, false
	}
	body, ok := sourceRange(pass.Fset, rng.Body.Lbrace+1, rng.Body.Rbrace)
	if !ok {
		return SuggestedFix{}, false
	}

	keysName := "keys"
	if identDeclaredInFile(pass, f, keysName) {
		keysName = "sortedKeys"
		if identDeclaredInFile(pass, f, keysName) {
			return SuggestedFix{}, false
		}
	}
	qual := func(p *types.Package) string {
		if p == pass.Pkg {
			return ""
		}
		return p.Name()
	}
	mapText := exprText(pass.Fset, rng.X)
	var b strings.Builder
	fmt.Fprintf(&b, "%s := make([]%s, 0, len(%s))\n", keysName, types.TypeString(mapType.Key(), qual), mapText)
	fmt.Fprintf(&b, "for %s := range %s {\n%s = append(%s, %s)\n}\n", key.Name, mapText, keysName, keysName, key.Name)
	fmt.Fprintf(&b, "sort.Slice(%s, func(i, j int) bool { return %s[i] < %s[j] })\n", keysName, keysName, keysName)
	fmt.Fprintf(&b, "for _, %s := range %s {\n", key.Name, keysName)
	if v, ok := rng.Value.(*ast.Ident); ok && v.Name != "_" {
		fmt.Fprintf(&b, "%s := %s[%s]\n", v.Name, mapText, key.Name)
	}
	b.WriteString(strings.TrimRight(body, "\n\t "))
	b.WriteString("\n}")

	return SuggestedFix{
		Message: "iterate over sorted keys",
		TextEdits: []TextEdit{{
			Pos:     rng.Pos(),
			End:     rng.End(),
			NewText: []byte(b.String()),
		}},
	}, true
}

// importsPath reports whether file f imports the given path.
func importsPath(f *ast.File, path string) bool {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) == path {
			return true
		}
	}
	return false
}

// identDeclaredInFile reports whether name is declared anywhere in f.
func identDeclaredInFile(pass *Pass, f *ast.File, name string) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			if pass.TypesInfo.Defs[id] != nil {
				found = true
			}
		}
		return !found
	})
	return found
}

// sourceRange reads the raw source text between two positions, preserving
// comments that go/printer would drop.
func sourceRange(fset *token.FileSet, from, to token.Pos) (string, bool) {
	file := fset.File(from)
	if file == nil || fset.File(to) != file {
		return "", false
	}
	data, err := os.ReadFile(file.Name())
	if err != nil {
		return "", false
	}
	lo, hi := file.Offset(from), file.Offset(to)
	if lo < 0 || hi > len(data) || lo > hi {
		return "", false
	}
	return string(data[lo:hi]), true
}
