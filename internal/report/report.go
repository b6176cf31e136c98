// Package report defines the typed result model of the experiment
// harness. An experiment produces a Report — named tables of labelled
// float64 rows plus free-form notes — instead of pre-rendered text, so
// downstream tools can compare, plot, and diff results programmatically.
//
// Three renderers serialize a Report:
//
//   - Text writes the fixed-width tables the CLI has always printed
//     (byte-identical to the pre-report string API; the golden tests in
//     internal/experiments pin this).
//   - JSON writes the report as one structured object.
//   - CSV writes tidy long-format rows (one value per line), the shape
//     spreadsheet and dataframe tooling ingests directly.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Report is the typed outcome of one experiment.
type Report struct {
	// Name is the experiment identifier ("fig2", "table3", ...).
	Name string `json:"name"`
	// Title is the human-readable experiment title.
	Title string `json:"title"`
	// Tables holds the report's data tables in display order.
	Tables []*Table `json:"tables"`
	// Notes are free-form summary lines printed after the tables
	// (for example the "SHREC penalty vs SS1" headlines).
	Notes []string `json:"notes,omitempty"`
	// Meta records run provenance (run lengths, extra context).
	Meta map[string]string `json:"meta,omitempty"`
}

// Table is one rectangular data series: Columns[0] names the row-label
// column and Columns[1:] name the value columns of each Row.
type Table struct {
	Title   string   `json:"title"`
	Columns []string `json:"columns"`
	Rows    []Row    `json:"rows"`

	// Verb is the fmt verb rendering Values in text ("%.2f" when empty).
	Verb string `json:"-"`
	// ClassColumn switches the layout to lead with each row's Class
	// (blanked in text when it repeats the previous row's), then Label,
	// then Values — the layout of the paper's Table 3. Columns[0] then
	// names the class column and Columns[1] the label column, so Values
	// align with Columns[2:] instead of Columns[1:]. Encoded in JSON so
	// structured consumers can align values with columns.
	ClassColumn bool `json:"class_column,omitempty"`
	// rules are row indices before which the text renderer draws a
	// horizontal rule (len(Rows) means after the final row). Kept out of
	// the structured encodings: rules are presentation, not data.
	rules []int
}

// Row is one labelled series of values aligned with the parent table's
// value columns.
type Row struct {
	Label string `json:"label"`
	// Class tags the row's grouping (benchmark class, factor class).
	Class string `json:"class,omitempty"`
	// High marks a high-IPC benchmark row (rendered as "name [high]").
	High bool `json:"high,omitempty"`
	// Aggregate marks summary rows (harmonic means) as opposed to
	// per-benchmark data rows.
	Aggregate bool      `json:"aggregate,omitempty"`
	Values    []float64 `json:"values"`
}

// jsonFloat is a float64 whose JSON encoding tolerates non-finite
// values: finite values are ordinary JSON numbers, while NaN and ±Inf —
// which encoding/json rejects outright — encode as the strings "NaN",
// "+Inf", and "-Inf". Reports legitimately carry both (the Pareto
// exploration report renders NaN coverage for points without fault
// injection and +Inf protection odds for fully covered ones), and a
// report that cannot be serialized would take the whole shrecd response
// down with it.
type jsonFloat float64

// MarshalJSON encodes the value as a number, or as a string when
// non-finite.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON decodes a number or one of the non-finite strings.
func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"NaN"`:
		*f = jsonFloat(math.NaN())
		return nil
	case `"+Inf"`:
		*f = jsonFloat(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = jsonFloat(math.Inf(-1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

// rowEncoding mirrors Row for JSON with non-finite-safe values. Field
// names and order match Row exactly, so reports without non-finite cells
// encode byte-identically to the plain struct encoding.
type rowEncoding struct {
	Label     string      `json:"label"`
	Class     string      `json:"class,omitempty"`
	High      bool        `json:"high,omitempty"`
	Aggregate bool        `json:"aggregate,omitempty"`
	Values    []jsonFloat `json:"values"`
}

// MarshalJSON encodes the row with non-finite values as strings (see
// jsonFloat).
func (r Row) MarshalJSON() ([]byte, error) {
	enc := rowEncoding{Label: r.Label, Class: r.Class, High: r.High,
		Aggregate: r.Aggregate, Values: make([]jsonFloat, len(r.Values))}
	for i, v := range r.Values {
		enc.Values[i] = jsonFloat(v)
	}
	return json.Marshal(enc)
}

// UnmarshalJSON is the inverse of MarshalJSON, so structured consumers
// round-trip reports containing non-finite cells.
func (r *Row) UnmarshalJSON(b []byte) error {
	var enc rowEncoding
	if err := json.Unmarshal(b, &enc); err != nil {
		return err
	}
	r.Label, r.Class, r.High, r.Aggregate = enc.Label, enc.Class, enc.High, enc.Aggregate
	r.Values = make([]float64, len(enc.Values))
	for i, v := range enc.Values {
		r.Values[i] = float64(v)
	}
	return nil
}

// New builds an empty report.
func New(name, title string) *Report {
	return &Report{Name: name, Title: title}
}

// AddTable appends an empty table with the given title and column
// headers and returns it for row building.
func (r *Report) AddTable(title string, columns ...string) *Table {
	t := &Table{Title: title, Columns: columns}
	r.Tables = append(r.Tables, t)
	return t
}

// AddNote appends a formatted summary line.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// SetMeta records one provenance key.
func (r *Report) SetMeta(key, value string) {
	if r.Meta == nil {
		r.Meta = map[string]string{}
	}
	r.Meta[key] = value
}

// Add appends one row.
func (t *Table) Add(row Row) {
	t.Rows = append(t.Rows, row)
}

// AddRow appends a plain labelled row.
func (t *Table) AddRow(label string, values ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// AddRule draws a horizontal rule (text rendering only) after the rows
// added so far.
func (t *Table) AddRule() {
	t.rules = append(t.rules, len(t.Rows))
}

// verb returns the table's value format verb.
func (t *Table) verb() string {
	if t.Verb == "" {
		return "%.2f"
	}
	return t.Verb
}

// label returns the row's display label (" [high]" suffix included).
func (r Row) label() string {
	if r.High {
		return r.Label + " [high]"
	}
	return r.Label
}

// Text renders the report as fixed-width tables followed by the notes —
// the exact output of the pre-report string API.
func (r *Report) Text(w io.Writer) error {
	var b strings.Builder
	for i, t := range r.Tables {
		if i > 0 {
			b.WriteByte('\n')
		}
		t.text(&b)
	}
	if len(r.Notes) > 0 {
		b.WriteByte('\n')
		for _, n := range r.Notes {
			b.WriteString(n)
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the report as text.
func (r *Report) String() string {
	var b strings.Builder
	_ = r.Text(&b) // strings.Builder never errors
	return b.String()
}

// text renders one table through the shared fixed-width layout engine.
func (t *Table) text(b *strings.Builder) {
	tb := stats.NewTable(t.Title, t.Columns...)
	rule := 0
	prevClass := "\x00" // matches no real class, so the first row prints its class
	for i, row := range t.Rows {
		for rule < len(t.rules) && t.rules[rule] <= i {
			tb.AddSeparator()
			rule++
		}
		cells := make([]string, 0, len(row.Values)+2)
		if t.ClassColumn {
			class := row.Class
			if class == prevClass {
				class = ""
			} else {
				prevClass = row.Class
			}
			cells = append(cells, class)
		}
		cells = append(cells, row.label())
		for _, v := range row.Values {
			cells = append(cells, fmt.Sprintf(t.verb(), v))
		}
		tb.AddRow(cells...)
	}
	for rule < len(t.rules) {
		tb.AddSeparator()
		rule++
	}
	b.WriteString(tb.String())
}

// Format names one of the three report renderings.
type Format string

// The report renderings: Text, JSON, and CSV.
const (
	FormatText Format = "text"
	FormatJSON Format = "json"
	FormatCSV  Format = "csv"
)

// ParseFormat validates a rendering name ("text", "json", or "csv").
// Callers parse before simulating anything, so a bad name costs no work.
func ParseFormat(s string) (Format, error) {
	switch f := Format(s); f {
	case FormatText, FormatJSON, FormatCSV:
		return f, nil
	}
	return "", fmt.Errorf("unknown format %q (have text, json, csv)", s)
}

// JSON writes the report as one indented JSON object.
func (r *Report) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteJSONArray writes any number of reports as one indented JSON
// array, the multi-experiment analogue of Report.JSON.
func WriteJSONArray(w io.Writer, reports ...*Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if reports == nil {
		reports = []*Report{} // encode as [], not null
	}
	return enc.Encode(reports)
}

// csvHeader is the tidy long-format CSV column set shared by every
// report: one (experiment, table, row, column) value per line. The
// label column carries the raw Label (matching the JSON encoding and
// workload names); the high flag has its own column.
var csvHeader = []string{"experiment", "table", "label", "class", "high", "aggregate", "column", "value"}

// CSV writes the report in tidy long format, header included.
func (r *Report) CSV(w io.Writer) error {
	return WriteCSV(w, r)
}

// WriteCSV writes any number of reports as one tidy CSV stream with a
// single header row, so multi-experiment runs concatenate cleanly.
func WriteCSV(w io.Writer, reports ...*Report) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, r := range reports {
		for _, t := range r.Tables {
			// The value columns: all headers past the label column (and
			// past the class column in Table 3-style layouts).
			first := 1
			if t.ClassColumn {
				first = 2
			}
			for _, row := range t.Rows {
				for i, v := range row.Values {
					col := ""
					if first+i < len(t.Columns) {
						col = t.Columns[first+i]
					}
					rec := []string{
						r.Name, t.Title, row.Label, row.Class,
						strconv.FormatBool(row.High),
						strconv.FormatBool(row.Aggregate), col,
						strconv.FormatFloat(v, 'g', -1, 64),
					}
					if err := cw.Write(rec); err != nil {
						return err
					}
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
