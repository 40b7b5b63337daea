package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// SliceRetain flags self-reslice retention: an assignment that advances
// a slice over its own backing array, `q = q[1:]` and friends. The
// popped prefix stays reachable through the backing array for the
// queue's whole lifetime — the PR 4 defect class, found live in four
// queues (sched FIFO, router.FirstSeen's user-eviction order, PP stage
// handoff, host-tier eviction). internal/ringbuf.Ring is the one
// sanctioned pattern (bounded by peak depth, shrinks on drain, zeroes
// vacated slots), so that package is exempt.
var SliceRetain = &Analyzer{
	Name: "sliceretain",
	Doc: "flag q = q[1:] self-reslices that retain the backing array; " +
		"use internal/ringbuf.Ring for FIFO queues",
	Run: runSliceRetain,
}

func runSliceRetain(pass *Pass) {
	if InRingbuf(pass.PkgPath()) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != len(assign.Rhs) {
				return true
			}
			for i, rhs := range assign.Rhs {
				slice, ok := ast.Unparen(rhs).(*ast.SliceExpr)
				if !ok || slice.Low == nil || isZeroConst(pass.TypesInfo, slice.Low) {
					continue
				}
				lhs := assign.Lhs[i]
				if types.ExprString(lhs) != types.ExprString(slice.X) {
					continue
				}
				if !isSliceType(pass.TypesInfo, lhs) {
					continue // strings and arrays don't pin popped elements
				}
				pass.Reportf(assign.Pos(),
					"%s = %s advances the slice over its own backing array, retaining every popped element (PR 4 defect class); use internal/ringbuf.Ring",
					types.ExprString(lhs), types.ExprString(rhs))
			}
			return true
		})
	}
}

func isZeroConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	return ok && v == 0
}

func isSliceType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isSlice := tv.Type.Underlying().(*types.Slice)
	return isSlice
}
