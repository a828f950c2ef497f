// Package lint is the perm repository's invariant-checking suite: five
// analyzers over type-checked packages, run by cmd/permlint and by the
// fixture tests in this package. The analyzers encode the concurrency,
// cancellation, error-handling and release disciplines the engine relies on
// but the compiler cannot enforce.
//
// Two invariants are measured at run time instead of proved here. That a
// published plan is never written is the strict plan check's frozen-plan
// fingerprint (see package perm's planned and internal/plancheck's
// Fingerprint); that the executor's per-row paths stay cheap is the
// allocation-slope table of internal/eval (TestAllocSlopes).
//
// # Annotation vocabulary
//
// The analyzers read a small set of comment directives:
//
//	// guarded-by: mu      (struct field)  lockcheck: accesses require mu
//	// permlint:held mu    (function doc)  lockcheck: caller holds mu
//	//permlint:ignore <analyzer> <reason>  suppress a finding on this or the next line
//
// # Framework
//
// The Analyzer/Pass/Diagnostic types mirror golang.org/x/tools/go/analysis
// so the suite can migrate to the real framework wholesale; the build
// environment has no module cache or network, so the loader (load.go)
// instead shells out to `go list -deps -json` and type-checks the module
// plus its standard-library closure from source with go/parser and
// go/types. `go list` never lists _test.go files, so test code is never
// analyzed — which is exactly the exemption ctxflow wants.
//
// On top of the per-package passes sits a flow-sensitive tier (cfg.go): a
// dependency-free control-flow graph over function bodies — basic blocks
// for if/for/range/switch/select/goto, a virtual exit block, panic-path
// marking, recorded defers — and a generic forward-dataflow worklist
// solver (Flow[F]) parameterized by an analyzer's fact lattice. Analyzers
// never report during the fixpoint; they re-play the solved block-entry
// facts deterministically and report on the replay. A run-wide cache
// (callgraph.go) shares the expensive artifacts across analyzers within
// one permlint invocation: the static call graph (Ident/Selector calls
// only; calls through function values and interfaces stay unresolved),
// memoized per-function CFGs and the lock-order graph. cmd/permlint -v
// reports the load and per-analyzer wall time this caching buys.
//
// Findings are suppressed line by line with
//
//	//permlint:ignore <analyzer> <reason>
//
// on the offending line or the line above; omitting the analyzer name
// suppresses every analyzer on that line. The reason is free text but
// should say why the invariant does not apply.
//
// # ctxflow
//
// The service attributes every query to a request context: cancellation
// (client gone, deadline expired, server draining) must propagate from the
// HTTP layer through the session to the evaluator's per-tuple cancellation
// checkpoints. A context.Background() or context.TODO() anywhere on that
// path silently severs the chain — the query keeps running after the
// client gave up, holding its admission token. ctxflow therefore forbids
// both constructors outside main packages (the process entry point owns
// the root context) and test files, requires context.Context parameters to
// come first, and rejects explicit nil contexts.
//
// # lockcheck
//
// The engine's shared state (the published state of a catalog.Layer —
// tables and views alike — the evaluator's sublink memos, the service
// session table) follows one discipline: replaced wholesale, never mutated
// in place, always under its mutex. The compiler cannot see which mutex
// guards which field, so the struct field says so:
//
//	// guarded-by: mu
//	state atomic.Pointer[State[V]]
//
// A field of a generic struct is annotated once, on its declaration; every
// instantiation shares the annotation and the lock identity.
//
// lockcheck is flow-sensitive: it solves a per-function dataflow problem
// over the hold state of each lock (not held < maybe held < held, per
// write/read side) and requires every access to an annotated field to sit
// at a program point where the guard is held on ALL incoming paths — a
// lock held on only some paths ("Lock under if") is its own finding, as
// is a Lock/Unlock imbalance on any path to return, an Unlock without a
// matching hold, and a write-Lock taken while already held
// (self-deadlock). Deferred unlocks are credited on every exit path;
// panic-only paths are exempt from balance (deferred releases run during
// unwinding). `// permlint:held mu` still declares the caller-holds
// convention (the *Locked naming made checkable), and composite-literal
// initialization is exempt (the value is not shared yet). Known
// approximations: lock identities conflate instances per receiver type;
// closures inherit every lock their creator acquires anywhere (sink
// closures run synchronously under the creator's locks, and the analysis
// cannot see call time), so their bodies are checked leniently.
//
// # lockorder
//
// lockcheck proves each function's locking is locally sane; lockorder
// proves the functions compose. It derives the whole-program
// lock-acquisition-order graph — an edge A -> B wherever some function
// acquires B (directly, or transitively through statically resolvable
// calls) at a point where the flow analysis proves A is held — and
// reports every cycle as a potential deadlock: two goroutines taking
// {A then B} and {B then A} deadlock under the right interleaving without
// either path being wrong in isolation, which is exactly the bug class
// -race cannot see until it fires in production. Re-acquiring a lock
// already held (directly or via a callee) is a self-deadlock finding,
// except read-under-read, which RWMutex permits. Acquisitions inside go
// statements are excluded (a goroutine does not hold its creator's
// locks). Approximations: instance conflation can produce false cycles for
// deliberate same-type ordering (address order, parent before child) —
// such sites carry a //permlint:ignore with the ordering argument — and
// calls through function values or interfaces do not propagate.
//
// # errclass
//
// The service maps engine errors onto stable error classes (timeout,
// canceled, budget, compile, ...) that tests and the load harness key on.
// That mapping works only if errors keep their identity on the way up:
// sentinels must be compared with errors.Is (a fmt.Errorf-wrapped
// eval.ErrCanceled fails ==), wrapping must use %w (a %v flattens the
// chain to a string), and HTTP handlers must route errors through the
// classifier rather than calling http.Error or writing 4xx/5xx statuses
// ad hoc.
//
// # deferclose
//
// Sessions, HTTP bodies, CSV files and per-request timeout contexts are
// all acquire/release pairs, and a release that is not deferred is a
// release that an early return or panic skips. deferclose finds short
// variable declarations whose call produces a releasable value — anything
// with a niladic Close method, or a context.CancelFunc — and flags
// functions that discard it, never release it (the classic
// context.WithTimeout `_ = cancel` leak, which keeps the timer goroutine
// alive), or release it only through a plain non-deferred call. Values
// handed off — passed along, returned, stored, captured by a goroutine —
// move the obligation elsewhere and are not flagged.
package lint
