package lint

import (
	"go/ast"
	"go/token"
)

// LockHeld flags blocking operations performed while a sync.Mutex or
// sync.RWMutex is held: channel sends and receives, selects without a
// default case, time.Sleep, WaitGroup.Wait, net dials and socket
// reads/writes, and round trips through the internal/memcache
// transports. Holding a mutex across any of these turns one slow peer
// into a pile-up of every goroutine that touches the lock — the
// pooled transport, breaker, and hotspot controller all depend on
// their critical sections staying O(memory access).
//
// The analysis is intraprocedural (the interprocedural complement is
// lockorder, which follows lock acquisitions through call chains) and
// rides lockFlow on the shared statement walker: lock state flows
// through straight-line code, branches (a path that unlocks and
// returns does not poison the code after the branch), and loops.
// sync.Cond.Wait is deliberately not a violation: it releases the
// mutex while waiting — that is its contract.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc:  "no blocking call (I/O, channel op, sleep, transport round trip) while a sync mutex is held",
	Run:  runLockHeld,
}

func runLockHeld(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		lh := &lockHeld{pkg: pkg, report: pass.Report}
		w := &lockFlow{pkg: pkg, hooks: lh}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
					walkBlock(w, fn.Body.List, heldSet{})
				}
			}
		}
	}
}

// lockHeld implements lockHooks: report any blocking event whose held
// set is non-empty.
type lockHeld struct {
	pkg    *Package
	report ReportFunc
}

func (l *lockHeld) acquire(recv ast.Expr, op string, call *ast.CallExpr, held heldSet) {}

func (l *lockHeld) blocking(pos token.Pos, label string, held heldSet) {
	if len(held) > 0 {
		l.reportBlocked(pos, held, label)
	}
}

func (l *lockHeld) call(call *ast.CallExpr, held heldSet, inLoop bool) {
	if len(held) == 0 {
		return
	}
	if what, ok := l.blockingCall(call); ok {
		l.reportBlocked(call.Pos(), held, what)
	}
}

// netBlockingMethods are socket operations that park the goroutine on
// the network (Close is quick and deliberately absent).
var netBlockingMethods = map[string]bool{
	"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true,
	"ReadFromUDP": true, "WriteToUDP": true, "ReadMsgUDP": true,
	"Accept": true, "AcceptTCP": true,
}

// memcacheBlockingMethods are the internal/memcache transport entry
// points — each is a full network round trip, or its send half (which
// may read replies owed on the connection first) or its collect half.
var memcacheBlockingMethods = map[string]bool{
	"Get": true, "GetMulti": true, "GetsMulti": true,
	"TracedGetMulti": true, "SendGet": true, "Collect": true,
	"Set": true, "SetPinned": true, "Add": true, "Replace": true,
	"CompareAndSwap": true, "Append": true, "Prepend": true,
	"Incr": true, "Decr": true, "Delete": true, "Touch": true,
	"FlushAll": true, "Version": true, "Stats": true,
}

// blockingCall classifies a call as blocking, returning a short label
// for the diagnostic.
func (l *lockHeld) blockingCall(call *ast.CallExpr) (string, bool) {
	info := l.pkg.Info
	if isPkgFunc(info, call, "time", "Sleep") {
		return "time.Sleep", true
	}
	for _, fn := range []string{"Dial", "DialTimeout", "DialTCP", "DialUDP", "DialIP", "DialUnix", "Listen", "ListenTCP", "ListenUDP", "ListenPacket"} {
		if isPkgFunc(info, call, "net", fn) {
			return "net." + fn, true
		}
	}
	recv, name, ok := callReceiver(info, call)
	if !ok {
		return "", false
	}
	if isNamedType(recv, "sync", "WaitGroup") && name == "Wait" {
		return "WaitGroup.Wait", true
	}
	if isNamedType(recv, "net", "Dialer") && (name == "Dial" || name == "DialContext") {
		return "Dialer." + name, true
	}
	// namedTypePkgPath resolves concrete and interface receivers alike
	// (net.Conn methods included).
	pkgPath := namedTypePkgPath(recv)
	if pkgPath == "net" && netBlockingMethods[name] {
		return "net conn " + name, true
	}
	if pkgPath == "rnb/internal/memcache" && memcacheBlockingMethods[name] {
		return "memcache transport " + name, true
	}
	return "", false
}

func (l *lockHeld) reportBlocked(pos token.Pos, held heldSet, what string) {
	// Name one held mutex (deterministically: the smallest printed
	// form) so the message reads concretely.
	var mu string
	for k := range held {
		if mu == "" || k < mu {
			mu = k
		}
	}
	l.report(l.pkg, pos, "%s while %s is held", what, mu)
}
