// Package sleepatomic implements the classic might_sleep check over
// the simulated kernel's own primitives: no path may sleep while a
// kbase.SpinLock is held. Sleeping means acquiring a sleeping lock
// (KMutex.Lock/LockNested, RWSem.DownRead/DownWrite), waiting on a
// journal gate (Begin/Commit/Checkpoint), submitting or waiting on kio
// I/O (Batch.Submit, Ticket.Wait), any channel operation, or the standard
// library's blocking synchronization — transitively, through the
// per-package call graph, with dynamic dispatch (interface methods,
// function values) treated as conservative may-sleep.
//
// Lock tracking is intraprocedural over the shared CFG: a spinlock is
// held from its Lock call to its Unlock call on the same receiver
// expression, or to function exit when the Unlock is deferred. A
// critical section that spans function boundaries (lock in one
// function, unlock in another) is outside the model; the tree has no
// such spinlock section and lockdep rejects the shape at runtime.
package sleepatomic

import (
	"fmt"
	"go/ast"
	"go/types"

	"safelinux/internal/analysis"
	"safelinux/internal/analysis/flow"
)

const spinLockType = "safelinux/internal/linuxlike/kbase.SpinLock"

// Analyzer flags possible sleeps under a held spinlock.
var Analyzer = &analysis.Analyzer{
	Name: "sleepatomic",
	Doc: "flags paths that can sleep (sleeping locks, journal gates, kio waits, " +
		"channel ops) while a kbase.SpinLock is held — the might_sleep discipline: " +
		"spinlock sections must be short and non-blocking",
	Run: run,
}

func run(pass *analysis.Pass) error {
	cg := flow.NewCallGraph(pass.Info, pass.Files)
	oracle := flow.NewSleepOracle(cg)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, oracle, fd)
		}
	}
	return nil
}

// lockEvent classifies one call against the spinlock primitives.
type lockEvent int

const (
	evNone lockEvent = iota
	evLock
	evUnlock
)

// spinEvent reports whether call is (*kbase.SpinLock).Lock or .Unlock
// and, if so, the printed receiver expression identifying the lock.
func spinEvent(info *types.Info, call *ast.CallExpr) (lockEvent, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return evNone, ""
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return evNone, ""
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return evNone, ""
	}
	if named.Obj().Pkg().Path()+"."+named.Obj().Name() != spinLockType {
		return evNone, ""
	}
	switch sel.Sel.Name {
	case "Lock":
		return evLock, types.ExprString(sel.X)
	case "Unlock":
		return evUnlock, types.ExprString(sel.X)
	}
	return evNone, ""
}

// checkFunc runs the held-lock dataflow over one function and reports
// every possibly-sleeping operation inside a spinlock section.
func checkFunc(pass *analysis.Pass, oracle *flow.SleepOracle, fd *ast.FuncDecl) {
	cfg := flow.NewCFG(fd.Body)

	// Forward may-held analysis: in[b] = union of out[preds].
	in := make([]map[string]bool, len(cfg.Blocks))
	out := make([]map[string]bool, len(cfg.Blocks))
	preds := make([][]int, len(cfg.Blocks))
	for i := range cfg.Blocks {
		in[i] = map[string]bool{}
		out[i] = map[string]bool{}
	}
	for _, b := range cfg.Blocks {
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], b.Index)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.Blocks {
			newIn := map[string]bool{}
			for _, p := range preds[b.Index] {
				for k := range out[p] {
					newIn[k] = true
				}
			}
			newOut := transfer(pass, oracle, b, newIn, false)
			if !sameSet(newIn, in[b.Index]) || !sameSet(newOut, out[b.Index]) {
				in[b.Index] = newIn
				out[b.Index] = newOut
				changed = true
			}
		}
	}
	// Reporting pass with stabilized in-states.
	for _, b := range cfg.Blocks {
		transfer(pass, oracle, b, in[b.Index], true)
	}
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// transfer walks one block's nodes in order, updating the held set
// and (when report is set) emitting diagnostics for sleeps under a
// held lock. It returns the out-state.
func transfer(pass *analysis.Pass, oracle *flow.SleepOracle, b *flow.Block, held map[string]bool, report bool) map[string]bool {
	cur := make(map[string]bool, len(held))
	for k := range held {
		cur[k] = true
	}
	sleepf := func(n ast.Node, what string) {
		if !report || len(cur) == 0 {
			return
		}
		pass.Reportf(n.Pos(), "sleepatomic",
			"possible sleep while holding spinlock %s: %s", heldNames(cur), what)
	}
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// A deferred Unlock keeps the lock held to exit; a
			// deferred sleeper runs after the section (at return).
			// Neither changes the in-section state, so skip, but a
			// deferred Lock with no matching path is left to lockdep.
			continue
		case *ast.GoStmt:
			// The goroutine blocks its own stack, not this one; its
			// argument expressions still evaluate here.
			for _, a := range n.Call.Args {
				walkExpr(pass, oracle, a, cur, sleepf)
			}
			continue
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					sleepf(n, "receive from ranged-over channel")
				}
			}
			if n.Key != nil {
				walkExpr(pass, oracle, n.Key, cur, sleepf)
			}
			if n.Value != nil {
				walkExpr(pass, oracle, n.Value, cur, sleepf)
			}
			walkExpr(pass, oracle, n.X, cur, sleepf)
			continue
		case *ast.SelectStmt:
			if flow.BlockingSelect(n) {
				sleepf(n, "blocking select")
			}
			continue
		case *ast.SendStmt:
			sleepf(n, "channel send")
			walkExpr(pass, oracle, n.Chan, cur, sleepf)
			walkExpr(pass, oracle, n.Value, cur, sleepf)
			continue
		}
		walkNode(pass, oracle, n, cur, sleepf)
	}
	return cur
}

// walkNode processes one simple node: lock events mutate the held
// set, sleeping calls and channel ops report.
func walkNode(pass *analysis.Pass, oracle *flow.SleepOracle, n ast.Node, held map[string]bool, sleepf func(ast.Node, string)) {
	flow.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Handled by the enclosing call's may-sleep summary.
			return false
		case *ast.CallExpr:
			if ev, key := spinEvent(pass.Info, n); ev != evNone {
				switch ev {
				case evLock:
					held[key] = true
				case evUnlock:
					delete(held, key)
				}
				return true // still walk args
			}
			callee, dynamic := flow.ResolveCall(pass.Info, n)
			if dynamic {
				sleepf(n, "dynamic call (unknown callee, assumed to sleep)")
			} else if callee != nil && oracle.MaySleep(callee) {
				what := callee.Name() + " may sleep"
				if r := oracle.SleepReason(callee); r != "" {
					what = fmt.Sprintf("%s may sleep (%s)", callee.Name(), r)
				}
				sleepf(n, what)
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				sleepf(n, "channel receive")
			}
		case *ast.SendStmt:
			sleepf(n, "channel send")
		}
		return true
	})
}

// walkExpr is walkNode for sub-expressions.
func walkExpr(pass *analysis.Pass, oracle *flow.SleepOracle, e ast.Expr, held map[string]bool, sleepf func(ast.Node, string)) {
	walkNode(pass, oracle, e, held, sleepf)
}

// heldNames formats the held set deterministically.
func heldNames(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	if len(names) == 1 {
		return names[0]
	}
	sortStrings(names)
	s := names[0]
	for _, n := range names[1:] {
		s += ", " + n
	}
	return s
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
