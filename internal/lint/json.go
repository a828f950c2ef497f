package lint

import (
	"encoding/json"
	"io"
)

// jsonDiagnostic is the machine-readable shape of one finding, consumed by
// editor integrations and the CI annotation step. The field set is part of
// the tool's interface: additions are fine, renames are not.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	// Severity is always "error": every finding fails the run. The field
	// stays for the consumers that read it.
	Severity string `json:"severity"`
}

// WriteJSON encodes the findings as an indented JSON array (never null:
// zero findings encode as []), preserving the caller's ordering.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
			Severity: "error",
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
