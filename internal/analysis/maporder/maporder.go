package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/contract"
	"repro/internal/analysis/framework"
)

// Analyzer flags map iteration whose order can leak into outputs in the
// deterministic packages. See the package documentation for the contract
// and the recognized order-insensitive forms.
var Analyzer = &framework.Analyzer{
	Name: "maporder",
	Doc:  "flag range-over-map in deterministic packages unless the body is provably order-insensitive",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if !contract.Deterministic(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if contract.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		waivers := contract.FileWaivers(pass.Fset, f)
		c := &checker{pass: pass}
		ast.Inspect(f, func(n ast.Node) bool {
			// Track enclosing statement lists (blocks and the bodies of
			// switch and select clauses) so collect-then-sort can look at
			// the statement following a range.
			switch s := n.(type) {
			case *ast.BlockStmt:
				c.lists = append(c.lists, s.List)
				return true
			case *ast.CaseClause:
				c.lists = append(c.lists, s.Body)
				return true
			case *ast.CommClause:
				c.lists = append(c.lists, s.Body)
				return true
			}
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.Types[rng.X].Type
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if c.orderInsensitive(rng) {
				return true
			}
			if d, ok := waivers.At(rng.Pos(), "orderok"); ok {
				if d.Reason == "" {
					pass.Reportf(rng.Pos(), "freelunch:orderok waiver needs a justification")
				}
				return true
			}
			pass.Reportf(rng.Pos(), "range over map in deterministic package: iteration order may leak into outputs (emit via a sorted slice, or waive with //freelunch:orderok <why>)")
			return true
		})
	}
	return nil
}

// checker carries the per-file state for order-insensitivity analysis.
type checker struct {
	pass  *framework.Pass
	lists [][]ast.Stmt
}

// orderInsensitive reports whether the range statement's effect provably
// does not depend on iteration order.
func (c *checker) orderInsensitive(rng *ast.RangeStmt) bool {
	key := c.rangeVar(rng.Key)
	if c.sinkBody(rng.Body.List, key) {
		return true
	}
	return c.collectThenSort(rng)
}

// rangeVar resolves a range clause variable to its object (nil for _ or
// absent variables).
func (c *checker) rangeVar(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Uses[id]
}

// sinkBody reports whether every statement is a commutative sink with
// respect to the map range keyed by key.
func (c *checker) sinkBody(stmts []ast.Stmt, key types.Object) bool {
	for _, s := range stmts {
		if !c.sinkStmt(s, key) {
			return false
		}
	}
	return true
}

func (c *checker) sinkStmt(s ast.Stmt, key types.Object) bool {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		// x++ / x-- on integers commutes. (Pointers cannot be incremented in
		// Go, and float ++ is rare enough to reject with the float rule.)
		return c.isInteger(s.X)
	case *ast.AssignStmt:
		return c.sinkAssign(s, key)
	case *ast.ExprStmt:
		// delete(m, k) commutes (keys are unique per iteration).
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					return true
				}
			}
		}
		return false
	case *ast.IfStmt:
		if s.Init != nil && !c.sinkStmt(s.Init, key) {
			return false
		}
		if !c.pureCond(s.Cond) {
			return false
		}
		if !c.sinkBody(s.Body.List, key) {
			return false
		}
		if s.Else != nil {
			return c.sinkStmt(s.Else, key)
		}
		return true
	case *ast.BlockStmt:
		return c.sinkBody(s.List, key)
	case *ast.RangeStmt:
		// A nested loop over the iteration value is fine as long as its own
		// body still only feeds commutative sinks.
		return c.sinkBody(s.Body.List, key)
	case *ast.BranchStmt:
		// continue skips commutatively; break makes the result depend on
		// which keys were visited first.
		return s.Tok == token.CONTINUE && s.Label == nil
	default:
		// break, sends, calls, returns, plain assignments, go, defer, ...:
		// all can expose order.
		return false
	}
}

// sinkAssign classifies one assignment as a commutative sink.
func (c *checker) sinkAssign(s *ast.AssignStmt, key types.Object) bool {
	switch s.Tok {
	case token.DEFINE:
		// := introduces per-iteration locals that cannot escape the body; a
		// pure RHS (no calls or receives) has no order-visible effect.
		for _, rhs := range s.Rhs {
			if !c.pureCond(rhs) {
				return false
			}
		}
		return true
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN,
		token.XOR_ASSIGN, token.MUL_ASSIGN:
		// Integer accumulation commutes; float accumulation rounds
		// per-order; string += concatenates in order.
		for _, lhs := range s.Lhs {
			if !c.isInteger(lhs) {
				return false
			}
		}
		for _, rhs := range s.Rhs {
			if !c.pureCond(rhs) {
				return false
			}
		}
		return true
	case token.ASSIGN:
		if len(s.Lhs) != len(s.Rhs) {
			return false
		}
		for i, lhs := range s.Lhs {
			ix, ok := lhs.(*ast.IndexExpr)
			if !ok {
				return false
			}
			rhs := s.Rhs[i]
			if !c.pureCond(rhs) {
				return false
			}
			// Idempotent set write: constant RHS means colliding keys write
			// equal values, so order cannot matter.
			if c.pass.TypesInfo.Types[rhs].Value != nil {
				continue
			}
			// Keyed write: the index involves the (unique) range key and the
			// RHS does not read the written container back (rejecting
			// accumulators like m2[k] = append(m2[k], v)).
			if key != nil && c.mentions(ix.Index, key) && !c.mentionsExpr(rhs, ix.X) {
				continue
			}
			return false
		}
		return true
	default:
		return false
	}
}

// pureCond reports whether an expression is free of calls (len, cap, and
// type conversions excepted) and channel receives. A call could consume
// shared mutable state — an RNG stream, an atomic — making even a
// set-write body order-dependent.
func (c *checker) pureCond(e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := c.pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "len", "cap", "min", "max":
						return true
					}
				}
			}
			pure = false
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pure = false
				return false
			}
		case *ast.FuncLit:
			pure = false
			return false
		}
		return true
	})
	return pure
}

// isInteger reports whether e has an integer type.
func (c *checker) isInteger(e ast.Expr) bool {
	t := c.pass.TypesInfo.Types[e].Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// mentions reports whether obj is referenced anywhere in e.
func (c *checker) mentions(e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}

// mentionsExpr reports whether the root object of container (an ident, or
// the base ident of a selector/index chain) is referenced in e — the
// self-reference test that rejects m[k] = append(m[k], v).
func (c *checker) mentionsExpr(e ast.Expr, container ast.Expr) bool {
	obj := c.rootObj(container)
	if obj == nil {
		return true // unresolvable container: be conservative
	}
	return c.mentions(e, obj)
}

// rootObj peels selectors, indexes, derefs, and slices down to the base
// identifier's object.
func (c *checker) rootObj(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return c.pass.TypesInfo.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// collectThenSort recognizes the append-into-slice idiom whose order
// dependence a directly following sort erases:
//
//	for k := range m { s = append(s, k) }
//	slices.Sort(s)
func (c *checker) collectThenSort(rng *ast.RangeStmt) bool {
	target := c.appendOnlyTarget(rng.Body.List)
	if target == nil {
		return false
	}
	next := c.stmtAfter(rng)
	if next == nil {
		return false
	}
	call, ok := nodeExpr(next)
	if !ok {
		return false
	}
	fn, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := fn.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := c.pass.TypesInfo.Uses[pkg].(*types.PkgName)
	if !ok {
		return false
	}
	switch pkgName.Imported().Path() {
	case "sort", "slices":
	default:
		return false
	}
	return len(call.Args) > 0 && c.rootObj(call.Args[0]) == target
}

// nodeExpr unwraps an expression statement to its call.
func nodeExpr(s ast.Stmt) (*ast.CallExpr, bool) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	call, ok := es.X.(*ast.CallExpr)
	return call, ok
}

// appendOnlyTarget returns the single local slice variable the body appends
// to (s = append(s, ...)), possibly under pure-condition ifs; nil if the
// body does anything else.
func (c *checker) appendOnlyTarget(stmts []ast.Stmt) types.Object {
	var target types.Object
	var walk func([]ast.Stmt) bool
	walk = func(list []ast.Stmt) bool {
		for _, s := range list {
			switch s := s.(type) {
			case *ast.BranchStmt:
				if s.Tok != token.CONTINUE || s.Label != nil {
					return false
				}
			case *ast.IfStmt:
				if s.Init != nil || !c.pureCond(s.Cond) {
					return false
				}
				if !walk(s.Body.List) {
					return false
				}
				if s.Else != nil {
					if blk, ok := s.Else.(*ast.BlockStmt); !ok || !walk(blk.List) {
						return false
					}
				}
			case *ast.AssignStmt:
				if s.Tok != token.ASSIGN || len(s.Lhs) != 1 || len(s.Rhs) != 1 {
					return false
				}
				lhs, ok := s.Lhs[0].(*ast.Ident)
				if !ok {
					return false
				}
				call, ok := s.Rhs[0].(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return false
				}
				fid, ok := call.Fun.(*ast.Ident)
				if !ok || fid.Name != "append" {
					return false
				}
				if _, ok := c.pass.TypesInfo.Uses[fid].(*types.Builtin); !ok {
					return false
				}
				first, ok := call.Args[0].(*ast.Ident)
				if !ok || first.Name != lhs.Name {
					return false
				}
				obj := c.pass.TypesInfo.Uses[lhs]
				if obj == nil {
					obj = c.pass.TypesInfo.Defs[lhs]
				}
				if obj == nil || (target != nil && target != obj) {
					return false
				}
				target = obj
			default:
				return false
			}
		}
		return true
	}
	if !walk(stmts) {
		return nil
	}
	return target
}

// stmtAfter finds the statement immediately following s in its enclosing
// block or clause body, if any.
func (c *checker) stmtAfter(s ast.Stmt) ast.Stmt {
	for _, list := range c.lists {
		for i, st := range list {
			if st == s && i+1 < len(list) {
				return list[i+1]
			}
		}
	}
	return nil
}
