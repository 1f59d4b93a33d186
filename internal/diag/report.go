package diag

import (
	"encoding/json"
	"fmt"
	"io"
)

// Report gathers the findings of one checker run over one or more input
// files: the shared front end of fluidlint, aisverify and fluidc -lint.
// The zero value is an empty report without warning promotion.
type Report struct {
	// Werror promotes warnings to errors as findings are added.
	Werror bool

	findings []fileFinding
	failed   bool
}

type fileFinding struct {
	file string
	d    Diagnostic
}

// record is the JSON shape of one finding.
type record struct {
	File       string   `json:"file"`
	Line       int      `json:"line,omitempty"`
	Col        int      `json:"col,omitempty"`
	Severity   Severity `json:"severity"`
	Code       string   `json:"code,omitempty"`
	Message    string   `json:"message"`
	Suggestion string   `json:"suggestion,omitempty"`
}

// Add records file's findings in order, promoting warnings to errors
// under Werror.
func (r *Report) Add(file string, findings List) {
	for _, d := range findings {
		if r.Werror && d.Severity == Warning {
			d.Severity = Error
		}
		if d.Severity == Error {
			r.failed = true
		}
		r.findings = append(r.findings, fileFinding{file: file, d: d})
	}
}

// Failed reports whether any added finding has error severity, after
// promotion.
func (r *Report) Failed() bool { return r.failed }

// WriteText prints one finding per line as
// "file:line:col: severity[CODE]: message; suggestion".
func (r *Report) WriteText(w io.Writer) {
	for _, f := range r.findings {
		fmt.Fprintf(w, "%s:%s\n", f.file, f.d.Error())
	}
}

// writeJSON emits the findings as an indented JSON array (empty, not
// null, when there are none).
func (r *Report) writeJSON(w io.Writer) error {
	records := make([]record, 0, len(r.findings))
	for _, f := range r.findings {
		records = append(records, record{
			File: f.file, Line: f.d.Pos.Line, Col: f.d.Pos.Col,
			Severity: f.d.Severity, Code: f.d.Code,
			Message: f.d.Msg, Suggestion: f.d.Suggestion,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

// Finish writes the report to stdout, as JSON when asJSON and as text
// otherwise, and returns the checker exit status: 1 if any finding is an
// error, 0 if none is, and 2 if the JSON could not be written (the cause
// goes to stderr, prefixed with the command name prog).
func (r *Report) Finish(prog string, stdout, stderr io.Writer, asJSON bool) int {
	if asJSON {
		if err := r.writeJSON(stdout); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", prog, err)
			return 2
		}
	} else {
		r.WriteText(stdout)
	}
	if r.failed {
		return 1
	}
	return 0
}
