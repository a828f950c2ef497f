package rewrite

import (
	"errors"
	"fmt"
)

// Strategy selects how sublinks are rewritten.
type Strategy uint8

// The rewrite strategies of the paper plus Auto, which picks the cheapest
// applicable strategy per operator (Unn, then Move, then Gen).
const (
	Gen Strategy = iota
	Left
	Move
	Unn
	Auto
	// UnnX is this reproduction's extension of the Unn strategy to ALL,
	// negated and scalar sublinks (the paper's §3.6 future-work
	// direction); see internal/rewrite/unnx.go.
	UnnX
)

// String names the strategy as in the paper.
func (s Strategy) String() string {
	switch s {
	case Gen:
		return "Gen"
	case Left:
		return "Left"
	case Move:
		return "Move"
	case Unn:
		return "Unn"
	case UnnX:
		return "UnnX"
	case Auto:
		return "Auto"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// ParseStrategy parses a strategy name (case-sensitive, as printed).
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "Gen", "gen":
		return Gen, nil
	case "Left", "left":
		return Left, nil
	case "Move", "move":
		return Move, nil
	case "Unn", "unn":
		return Unn, nil
	case "UnnX", "unnx":
		return UnnX, nil
	case "Auto", "auto":
		return Auto, nil
	default:
		return Gen, fmt.Errorf("rewrite: unknown strategy %q", name)
	}
}

// ErrNotApplicable reports that the requested strategy cannot rewrite the
// query: Left and Move refuse correlated sublinks; Unn requires its exact
// U1/U2 patterns. The paper's Figure 6 reports such strategy/query
// combinations as n/a.
var ErrNotApplicable = errors.New("rewrite: strategy not applicable")
