package service

import (
	"context"
	"errors"
	"net/http"
	"regexp"
	"strconv"
	"strings"

	"perm/internal/eval"
	"perm/internal/rewrite"
	"perm/internal/types"
)

// ErrorJSON is the error body of every failed request. Class is stable
// across releases (tests and permload key on it); Message is the engine's
// error text verbatim, so differential replays can compare it with direct
// library execution; Position, when present, is the 1-based byte position
// the compiler reported.
type ErrorJSON struct {
	Class    string `json:"class"`
	Message  string `json:"message"`
	Position int    `json:"position,omitempty"`
}

// ErrorBody is the top-level JSON shape of a failed request.
type ErrorBody struct {
	Error ErrorJSON `json:"error"`
}

// Error classes.
const (
	ClassCompile  = "compile"   // parse / semantic analysis / translation ("sql:" errors)
	ClassRewrite  = "rewrite"   // provenance strategy not applicable
	ClassRuntime  = "runtime"   // evaluation errors: division by zero, overflow
	ClassCatalog  = "catalog"   // unknown relation at execution time
	ClassRequest  = "request"   // malformed request: bad JSON, unknown strategy/mode
	ClassStmt     = "statement" // statement-level errors from the perm layer
	ClassTimeout  = "timeout"   // request deadline expired
	ClassCanceled = "canceled"  // client went away
	ClassBudget   = "budget"    // row budget exceeded
	ClassOverload = "overload"  // admission control shed this request
	ClassDraining = "draining"  // server is shutting down
	ClassInternal = "internal"
)

var positionRE = regexp.MustCompile(`position (-?\d+)`)

// classify maps an engine error onto (error class, source position, HTTP
// status). ctx is the request context: a deadline that expired while the
// query ran turns the evaluator's generic cancellation into class
// "timeout".
func classify(ctx context.Context, err error) (ErrorJSON, int) {
	msg := err.Error()
	out := ErrorJSON{Message: msg}
	switch {
	case errors.Is(err, eval.ErrCanceled):
		if ctx != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			out.Class = ClassTimeout
			return out, http.StatusGatewayTimeout
		}
		out.Class = ClassCanceled
		// 499 is the de-facto "client closed request" status.
		return out, 499
	case errors.Is(err, eval.ErrBudget):
		out.Class = ClassBudget
		return out, http.StatusBadRequest
	case errors.Is(err, rewrite.ErrNotApplicable):
		out.Class = ClassRewrite
		return out, http.StatusBadRequest
	case errors.Is(err, types.ErrDivisionByZero), errors.Is(err, types.ErrNumericOutOfRange):
		out.Class = ClassRuntime
		return out, http.StatusBadRequest
	case strings.HasPrefix(msg, "sql:"):
		out.Class = ClassCompile
		if m := positionRE.FindStringSubmatch(msg); m != nil {
			if p, err := strconv.Atoi(m[1]); err == nil {
				out.Position = p
			}
		}
		return out, http.StatusBadRequest
	case strings.HasPrefix(msg, "catalog:"):
		out.Class = ClassCatalog
		return out, http.StatusBadRequest
	case strings.HasPrefix(msg, "perm:"):
		out.Class = ClassStmt
		return out, http.StatusBadRequest
	case strings.HasPrefix(msg, "types:"):
		out.Class = ClassRuntime
		return out, http.StatusBadRequest
	default:
		out.Class = ClassInternal
		return out, http.StatusInternalServerError
	}
}
