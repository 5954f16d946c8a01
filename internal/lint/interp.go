package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The interprocedural layer: a call graph over the typed loader plus
// per-function summaries, with taint propagated transitively. The local
// analyzers (wallclock, rngsource) flag a forbidden *site*; the summaries
// here record that a *function* reaches such a site through any number of
// call hops, so the flow analyzers (detflow, rngflow) can flag the caller
// that launders the dependency through a wrapper.
//
// Summaries cross package boundaries through one table the driver fills
// in dependency order. The table is keyed by *types.Func: the loader
// shares each module package's *types.Package with its importers, so a
// function is the same key in its own package and in every caller.
//
// Resolution rules, deliberately conservative in opposite directions:
//
//   - Direct calls and method calls on concrete receivers resolve to the
//     declared target (the "declared-type target" — a method value
//     obj.M or a call x.M() where x's static type is not an interface).
//   - References to a function as a value (passing time.Now as a
//     callback) taint the referencing function: we cannot see when it
//     runs, so we assume it does.
//   - Calls through interface methods resolve to nothing. This is not a
//     soundness hole, it is the seam: sim.Clock / sim.Source is exactly
//     the interface determinism-scoped code is supposed to take its
//     clock and randomness through, and an interface call is the one
//     shape replay tooling can re-bind.
//
// An //ellint:allow at a site is an audited decision that the site is
// fine, so it sanitizes the summary too: the allowed root (or call edge)
// contributes no taint, and callers of the annotated function stay
// clean rather than needing annotations all the way up the call chain.

// A TaintPath explains why a function is tainted: the forbidden root it
// reaches and the first call hop on the way there (nil when the root is
// referenced directly in the function's own body).
type TaintPath struct {
	Root string // e.g. "time.Now" or "rand.IntN"
	Via  *types.Func
}

// A FuncSummary is what one function's body means to its callers.
type FuncSummary struct {
	// Wallclock is non-nil when the function transitively reaches a
	// wall-clock read or timer (the wallclockForbidden set).
	Wallclock *TaintPath
	// Rng is non-nil when the function transitively reaches the global
	// math/rand source or ad-hoc generator construction.
	Rng *TaintPath
}

// taint returns the summary's wall-clock or RNG path; nil-safe, since
// functions without a body in the module (stdlib, interface methods)
// have no summary.
func (s *FuncSummary) taint(wallclock bool) *TaintPath {
	switch {
	case s == nil:
		return nil
	case wallclock:
		return s.Wallclock
	}
	return s.Rng
}

// An edge is one resolved call (or function-value reference) site.
type edge struct {
	callee *types.Func
	pos    token.Pos
	isRef  bool // referenced as a value rather than called
}

// Interp is one package's interprocedural context: its call edges, its
// allow annotations, and the run's shared summary table.
type Interp struct {
	fset    *token.FileSet
	files   []*ast.File
	info    *types.Info
	sealRng bool

	funcs []*types.Func // declared functions, source order
	sums  map[*types.Func]*FuncSummary
	edges map[*types.Func][]edge

	allows    map[string]allowSet
	badAllows []Diagnostic // allows naming no rule in Ruleset
}

// NewInterp builds the call graph for one type-checked package and adds
// its functions' summaries to sums, which must already hold the
// summaries of every module package it imports (nil starts a fresh
// table). sealRng marks the packages that own seeded-generator
// construction (the Ruleset's RngSealPackages): they are the PCG seam, so
// they record no RNG taint and calling into them is how everyone else is
// SUPPOSED to obtain randomness. Wall-clock taint is never sealed — the
// legitimate route to the clock is the sim.Clock interface, not a
// concrete call into an exempt package.
func NewInterp(fset *token.FileSet, files []*ast.File, info *types.Info, sums map[*types.Func]*FuncSummary, sealRng bool) *Interp {
	if sums == nil {
		sums = make(map[*types.Func]*FuncSummary)
	}
	in := &Interp{
		fset:    fset,
		files:   files,
		info:    info,
		sealRng: sealRng,
		sums:    sums,
		edges:   make(map[*types.Func][]edge),
	}
	in.allows, in.badAllows = collectAllows(fset, files)
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			in.funcs = append(in.funcs, fn)
			sums[fn] = &FuncSummary{}
			in.walkBody(fn, fd)
		}
	}
	in.propagate()
	return in
}

// allowedAt reports whether any of the rule names is allowed on the
// line of pos.
func (in *Interp) allowedAt(pos token.Pos, rules ...string) bool {
	p := in.fset.Position(pos)
	set := in.allows[p.Filename]
	if set == nil {
		return false
	}
	for _, r := range rules {
		if set[p.Line][r] {
			return true
		}
	}
	return false
}

// walkBody collects taint roots and call edges from one function body.
// Function literals inside the body are attributed to the enclosing
// declaration: a root inside a closure taints the function that built the
// closure, which is the conservative direction.
func (in *Interp) walkBody(fn *types.Func, fd *ast.FuncDecl) {
	sum := in.sums[fn]
	seen := make(map[*ast.Ident]bool) // idents consumed as part of a SelectorExpr
	called := make(map[ast.Node]bool) // expressions in call-operand position
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			called[ast.Unparen(n.Fun)] = true
		case *ast.SelectorExpr:
			seen[n.Sel] = true
			if sel, ok := in.info.Selections[n]; ok {
				// Method value or method expression on a value. Interface
				// receivers are the seam; concrete receivers resolve to
				// the declared-type target.
				if sel.Kind() == types.MethodVal || sel.Kind() == types.MethodExpr {
					if m, ok := sel.Obj().(*types.Func); ok && !types.IsInterface(sel.Recv()) {
						in.addEdge(fn, m, n, called[n])
					}
				}
				return true
			}
			in.addRootOrEdge(fn, sum, n, objectOf(in.info, n.Sel), called[n])
		case *ast.Ident:
			if seen[n] {
				return true
			}
			// Unqualified references: same-package functions (and
			// dot-imported ones, which the module does not use).
			if m, ok := in.info.Uses[n].(*types.Func); ok {
				if m.Type().(*types.Signature).Recv() == nil {
					in.addRootOrEdge(fn, sum, n, m, called[n])
				}
			}
		}
		return true
	})
}

// addRootOrEdge classifies one function reference: a forbidden stdlib
// root, a call-graph edge, or nothing (unknown stdlib, builtins).
func (in *Interp) addRootOrEdge(fn *types.Func, sum *FuncSummary, site ast.Node, obj types.Object, isCall bool) {
	m, ok := obj.(*types.Func)
	if !ok || m.Pkg() == nil {
		return
	}
	switch m.Pkg().Path() {
	case "time":
		if wallclockForbidden[m.Name()] && sum.Wallclock == nil &&
			!in.allowedAt(site.Pos(), "wallclock", "detflow") {
			sum.Wallclock = &TaintPath{Root: "time." + m.Name()}
		}
		return
	case "math/rand", "math/rand/v2":
		if !in.sealRng && sum.Rng == nil && !in.allowedAt(site.Pos(), "rngsource", "rngflow") {
			sum.Rng = &TaintPath{Root: "rand." + m.Name()}
		}
		return
	}
	in.addEdge(fn, m, site, isCall)
}

func (in *Interp) addEdge(fn *types.Func, callee *types.Func, site ast.Node, isCall bool) {
	in.edges[fn] = append(in.edges[fn], edge{
		callee: callee,
		pos:    site.Pos(),
		isRef:  !isCall,
	})
}

// propagate runs the transitive-taint fixpoint over the package's call
// edges. Cross-package callees resolve through the shared table; recursion
// converges because taint only ever turns on.
func (in *Interp) propagate() {
	for changed := true; changed; {
		changed = false
		for _, fn := range in.funcs {
			sum := in.sums[fn]
			for _, e := range in.edges[fn] {
				cs := in.sums[e.callee]
				if cs == nil {
					continue
				}
				if sum.Wallclock == nil && cs.Wallclock != nil && !in.allowedAt(e.pos, "detflow") {
					sum.Wallclock = &TaintPath{Root: cs.Wallclock.Root, Via: e.callee}
					changed = true
				}
				if !in.sealRng && sum.Rng == nil && cs.Rng != nil && !in.allowedAt(e.pos, "rngflow") {
					sum.Rng = &TaintPath{Root: cs.Rng.Root, Via: e.callee}
					changed = true
				}
			}
		}
	}
}

// chain renders the call path from a tainted callee down to its root,
// e.g. "realdev.Run → (*realdev.Device).syncer → time.Now". Names are
// trimmed to their package base for readability.
func (in *Interp) chain(fn *types.Func, wallclock bool) string {
	var parts []string
	for depth := 0; depth < 8; depth++ {
		parts = append(parts, shortFuncName(fn.FullName()))
		tp := in.sums[fn].taint(wallclock)
		if tp == nil {
			break
		}
		if tp.Via == nil {
			parts = append(parts, tp.Root)
			break
		}
		fn = tp.Via
	}
	return strings.Join(parts, " → ")
}

// shortFuncName trims the package path of a FullName to its base:
// "ellog/internal/realdev.Run" → "realdev.Run",
// "(*ellog/internal/realdev.Device).syncer" → "(*realdev.Device).syncer".
func shortFuncName(full string) string {
	trim := func(s string) string {
		if i := strings.LastIndex(s, "/"); i >= 0 {
			return s[i+1:]
		}
		return s
	}
	if rest, ok := strings.CutPrefix(full, "(*"); ok {
		if i := strings.Index(rest, ")"); i >= 0 {
			return "(*" + trim(rest[:i]) + rest[i:]
		}
	}
	if rest, ok := strings.CutPrefix(full, "("); ok {
		if i := strings.Index(rest, ")"); i >= 0 {
			return "(" + trim(rest[:i]) + rest[i:]
		}
	}
	return trim(full)
}
