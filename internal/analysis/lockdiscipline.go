package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Lockdiscipline checks the two mutex invariants the serving and
// fan-out layers rely on (DESIGN.md §8). First, a held mutex may not
// cross a blocking operation — channel send/receive, select without a
// default, WaitGroup or single-flight waits, http Flush — because one
// stalled peer then wedges every caller of the lock (the serve tree's
// single-flight builds exist precisely so waiting happens outside
// t.mu). sync.Cond.Wait is exempt: releasing its mutex is its contract.
// Second, struct fields annotated //m5:guardedby <mu> may only be read
// or written while that sibling mutex is held on the same receiver;
// functions whose callers hold the lock declare it with //m5:locked
// <mu> in their doc comment.
//
// The analysis is a per-function abstract walk (branch states merge:
// may-hold as union for blocking checks, must-hold as intersection for
// guarded access), not interprocedural: a locked function calling an
// unannotated blocking helper is out of reach, which is why the
// blocking vocabulary is the short list of primitives above.
var Lockdiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "no blocking ops under a held mutex; //m5:guardedby fields only touched locked",
	Run:  runLockdiscipline,
}

// lockScopePkgs are the concurrent layers: the serve frontend + tree,
// the experiment fan-out engine, and the shared tape pool.
var lockScopePkgs = []string{
	"m5/internal/serve",
	"m5/internal/parallel",
	"m5/internal/workload/tape",
}

func inLockScope(path string) bool {
	for _, p := range lockScopePkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// lockState is the abstract lock set at one program point. may is the
// union over paths (a blocking op under may-hold is already a hazard);
// must is the intersection (guarded access needs a guarantee).
type lockState struct {
	may  map[string]bool
	must map[string]bool
}

func newLockState() lockState {
	return lockState{may: map[string]bool{}, must: map[string]bool{}}
}

func (st lockState) clone() lockState {
	c := newLockState()
	for k := range st.may {
		c.may[k] = true
	}
	for k := range st.must {
		c.must[k] = true
	}
	return c
}

func (st *lockState) acquire(key string) {
	st.may[key] = true
	st.must[key] = true
}

func (st *lockState) release(key string) {
	delete(st.may, key)
	delete(st.must, key)
}

// mergeStates folds branch exit states: may = union, must = intersection.
func mergeStates(states []lockState) lockState {
	if len(states) == 0 {
		return newLockState()
	}
	out := states[0].clone()
	for _, st := range states[1:] {
		for k := range st.may {
			out.may[k] = true
		}
		for k := range out.must {
			if !st.must[k] {
				delete(out.must, k)
			}
		}
	}
	return out
}

func (st lockState) heldList() string {
	var keys []string
	for k := range st.may {
		keys = append(keys, k)
	}
	sortStrings(keys)
	return strings.Join(keys, ", ")
}

func runLockdiscipline(pass *Pass) error {
	if !inLockScope(pass.Pkg.Path()) {
		return nil
	}
	guarded := pass.collectGuardedFields()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &lockWalker{pass: pass, guarded: guarded}
			st := newLockState()
			for _, mu := range declMarkers(fd, markLocked) {
				if mu == "" {
					pass.Reportf(fd.Pos(), "//m5:locked needs a mutex name: //m5:locked <mu>")
					continue
				}
				if recv := recvName(fd); recv != "" {
					st.acquire(recv + "." + mu)
				} else {
					st.acquire(mu)
				}
			}
			w.stmts(fd.Body.List, st)
		}
	}
	return nil
}

// recvName returns the receiver's binding name, or "" for functions and
// anonymous receivers.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// collectGuardedFields maps struct-field objects to the mutex name from
// their //m5:guardedby annotation, validating that the named mutex is a
// sibling field.
func (p *Pass) collectGuardedFields() map[*types.Var]string {
	guarded := map[*types.Var]string{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			fieldNames := map[string]bool{}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					fieldNames[name.Name] = true
				}
			}
			for _, field := range st.Fields.List {
				arg, ok := p.markerAt(field, markGuardedBy)
				if !ok {
					continue
				}
				if arg == "" {
					p.Reportf(field.Pos(), "//m5:guardedby needs a mutex name: //m5:guardedby <mu>")
					continue
				}
				mu := strings.Fields(arg)[0]
				if !fieldNames[mu] {
					p.Reportf(field.Pos(), "//m5:guardedby %s: no sibling field named %q in this struct", mu, mu)
					continue
				}
				for _, name := range field.Names {
					if v, ok := p.TypesInfo.Defs[name].(*types.Var); ok {
						guarded[v] = mu
					}
				}
			}
			return true
		})
	}
	return guarded
}

// lockWalker performs the per-function abstract walk.
type lockWalker struct {
	pass    *Pass
	guarded map[*types.Var]string
	// suppressBlocking is set while scanning a select's comm clauses:
	// the select statement itself owns the blocking classification.
	suppressBlocking bool
}

func (w *lockWalker) stmts(list []ast.Stmt, st lockState) lockState {
	for _, s := range list {
		st = w.stmt(s, st)
	}
	return st
}

func (w *lockWalker) stmt(s ast.Stmt, st lockState) lockState {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, op := w.lockOp(call); key != "" {
				switch op {
				case "Lock", "RLock":
					st.acquire(key)
				default:
					st.release(key)
				}
				return st
			}
		}
		w.scan(s.X, &st)
	case *ast.SendStmt:
		w.scan(s.Chan, &st)
		w.scan(s.Value, &st)
		w.blockingOp(s.Pos(), "channel send", &st)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scan(e, &st)
		}
		for _, e := range s.Lhs {
			w.scan(e, &st)
		}
	case *ast.IncDecStmt:
		w.scan(s.X, &st)
	case *ast.DeclStmt:
		w.scan(s.Decl, &st)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scan(e, &st)
		}
	case *ast.DeferStmt:
		if key, _ := w.lockOp(s.Call); key != "" {
			// defer mu.Unlock(): the lock stays held to function exit.
			return st
		}
		for _, arg := range s.Call.Args {
			w.scan(arg, &st)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.stmts(fl.Body.List, newLockState())
		}
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			w.scan(arg, &st)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.stmts(fl.Body.List, newLockState())
		}
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.IfStmt:
		return w.ifStmt(s, st)
	case *ast.ForStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			w.scan(s.Cond, &st)
		}
		body := w.stmts(s.Body.List, st.clone())
		if s.Post != nil {
			body = w.stmt(s.Post, body)
		}
		return mergeStates([]lockState{st, body})
	case *ast.RangeStmt:
		w.scan(s.X, &st)
		if tv, ok := w.pass.TypesInfo.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.blockingOp(s.Pos(), "range over channel", &st)
			}
		}
		body := w.stmts(s.Body.List, st.clone())
		return mergeStates([]lockState{st, body})
	case *ast.SelectStmt:
		return w.selectStmt(s, st)
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			w.scan(s.Tag, &st)
		}
		return w.caseClauses(s.Body.List, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		w.scan(s.Assign, &st)
		return w.caseClauses(s.Body.List, st)
	}
	return st
}

func (w *lockWalker) ifStmt(s *ast.IfStmt, st lockState) lockState {
	if s.Init != nil {
		st = w.stmt(s.Init, st)
	}
	w.scan(s.Cond, &st)
	var exits []lockState
	thenSt := w.stmts(s.Body.List, st.clone())
	if !terminates(s.Body.List) {
		exits = append(exits, thenSt)
	}
	switch e := s.Else.(type) {
	case nil:
		exits = append(exits, st)
	case *ast.BlockStmt:
		elseSt := w.stmts(e.List, st.clone())
		if !terminates(e.List) {
			exits = append(exits, elseSt)
		}
	case *ast.IfStmt:
		exits = append(exits, w.ifStmt(e, st.clone()))
	}
	if len(exits) == 0 {
		// Both branches terminate; anything after is unreachable.
		return st
	}
	return mergeStates(exits)
}

func (w *lockWalker) selectStmt(s *ast.SelectStmt, st lockState) lockState {
	hasDefault := false
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		w.blockingOp(s.Pos(), "select without default", &st)
	}
	var exits []lockState
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		cst := st.clone()
		if cc.Comm != nil {
			// The comm op's blocking nature belongs to the select as a
			// whole; still check guarded-field access inside it.
			w.suppressBlocking = true
			cst = w.stmt(cc.Comm, cst)
			w.suppressBlocking = false
		}
		cst = w.stmts(cc.Body, cst)
		if !terminates(cc.Body) {
			exits = append(exits, cst)
		}
	}
	if len(exits) == 0 {
		return st
	}
	return mergeStates(exits)
}

func (w *lockWalker) caseClauses(list []ast.Stmt, st lockState) lockState {
	exits := []lockState{st}
	for _, c := range list {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		cst := st.clone()
		for _, e := range cc.List {
			w.scan(e, &cst)
		}
		cst = w.stmts(cc.Body, cst)
		if !terminates(cc.Body) {
			exits = append(exits, cst)
		}
	}
	return mergeStates(exits)
}

// terminates reports whether a statement list definitely leaves the
// enclosing flow (return, branch, or panic as its last statement).
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s.List)
	}
	return false
}

// scan inspects an expression (or a declaration statement) for blocking
// operations and guarded-field accesses. Function literals are walked
// as separate goroutine bodies with an empty lock state; keys of keyed
// composite literals are field names, not accesses.
func (w *lockWalker) scan(n ast.Node, st *lockState) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.stmts(n.Body.List, newLockState())
			return false
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					w.scan(kv.Value, st)
				} else {
					w.scan(elt, st)
				}
			}
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.blockingOp(n.Pos(), "channel receive", st)
			}
		case *ast.CallExpr:
			if kind, blocking := w.blockingCall(n); blocking {
				w.blockingOp(n.Pos(), kind, st)
			}
		case *ast.SelectorExpr:
			w.checkGuarded(n, st)
		}
		return true
	})
}

// blockingOp reports a blocking operation reached while any mutex may
// be held.
func (w *lockWalker) blockingOp(pos token.Pos, kind string, st *lockState) {
	if w.suppressBlocking || len(st.may) == 0 {
		return
	}
	w.pass.Reportf(pos, "blocking op (%s) while holding %s; one stalled peer wedges every user of the lock — release it first (single-flight pending nodes are the pattern) or make the op non-blocking", kind, st.heldList())
}

// lockOp classifies X.Lock/Unlock/RLock/RUnlock calls on sync mutexes,
// returning the lock key (the rendered receiver expression) and the op.
func (w *lockWalker) lockOp(call *ast.CallExpr) (key, op string) {
	se, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch se.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	sel, ok := w.pass.TypesInfo.Selections[se]
	if !ok {
		return "", ""
	}
	if name, pkg := namedRecv(sel.Recv()); pkg != "sync" || (name != "Mutex" && name != "RWMutex") {
		return "", ""
	}
	return types.ExprString(se.X), se.Sel.Name
}

// blockingCall classifies the blocking call vocabulary: WaitGroup.Wait,
// http Flush (Flusher or ResponseController), and time.Sleep.
// sync.Cond.Wait is exempt by contract.
func (w *lockWalker) blockingCall(call *ast.CallExpr) (string, bool) {
	se, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if id, ok := se.X.(*ast.Ident); ok {
		if pn, ok := w.pass.TypesInfo.Uses[id].(*types.PkgName); ok {
			if pn.Imported().Path() == "time" && se.Sel.Name == "Sleep" {
				return "time.Sleep", true
			}
			return "", false
		}
	}
	sel, ok := w.pass.TypesInfo.Selections[se]
	if !ok {
		return "", false
	}
	name, pkg := namedRecv(sel.Recv())
	switch {
	case pkg == "sync" && name == "WaitGroup" && se.Sel.Name == "Wait":
		return "WaitGroup.Wait", true
	case pkg == "net/http" && se.Sel.Name == "Flush":
		return "http " + name + ".Flush", true
	}
	return "", false
}

// namedRecv resolves a receiver type (possibly behind a pointer) to its
// type name and defining package path.
func namedRecv(t types.Type) (name, pkgPath string) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() != nil {
		pkgPath = obj.Pkg().Path()
	}
	return obj.Name(), pkgPath
}

// checkGuarded verifies that an access to a //m5:guardedby field
// happens with the declared mutex must-held on the same receiver.
func (w *lockWalker) checkGuarded(se *ast.SelectorExpr, st *lockState) {
	sel, ok := w.pass.TypesInfo.Selections[se]
	if !ok || sel.Kind() != types.FieldVal {
		return
	}
	obj, ok := sel.Obj().(*types.Var)
	if !ok {
		return
	}
	mu, guarded := w.guarded[obj]
	if !guarded {
		return
	}
	key := types.ExprString(se.X) + "." + mu
	if st.must[key] {
		return
	}
	w.pass.Reportf(se.Pos(), "field %s is //m5:guardedby %s but %s is not held here; lock it, or mark the enclosing accessor //m5:locked %s if callers hold it", se.Sel.Name, mu, key, mu)
}
