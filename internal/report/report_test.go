package report

import (
	"encoding/json"
	"strings"
	"testing"
)

// demo builds a small two-table report exercising every layout feature:
// high-IPC labels, aggregate rows with a rule, a class-grouped table,
// and notes.
func demo() *Report {
	r := New("demo", "Demo report")
	tb := r.AddTable("Per-benchmark", "benchmark", "SS1", "SS2")
	tb.Add(Row{Label: "gap", Class: "int", Values: []float64{1.25, 0.9}})
	tb.Add(Row{Label: "gcc", Class: "int", High: true, Values: []float64{2, 1.5}})
	tb.AddRule()
	tb.Add(Row{Label: "Average", Aggregate: true, Values: []float64{1.5, 1.1}})

	t3 := r.AddTable("Effects", "class", "factor", "effect %")
	t3.Verb = "%.1f"
	t3.ClassColumn = true
	t3.Add(Row{Class: "Integer", Label: "C", Values: []float64{16.07}})
	t3.Add(Row{Class: "Integer", Label: "X", Values: []float64{4.2}})
	t3.AddRule()
	t3.AddRule() // empty group renders consecutive rules
	r.AddNote("penalty: %d%%", 28)
	r.SetMeta("measure_instrs", "100")
	return r
}

func TestTextRendering(t *testing.T) {
	got := demo().String()
	want := `Per-benchmark
benchmark    SS1   SS2
----------------------
gap         1.25  0.90
gcc [high]  2.00  1.50
----------------------
Average     1.50  1.10

Effects
class    factor  effect %
-------------------------
Integer       C      16.1
              X       4.2
-------------------------
-------------------------

penalty: 28%
`
	if got != want {
		t.Errorf("text rendering:\ngot:\n%q\nwant:\n%q", got, want)
	}
}

func TestJSONShape(t *testing.T) {
	var b strings.Builder
	if err := demo().JSON(&b); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "demo" || len(back.Tables) != 2 || len(back.Notes) != 1 {
		t.Fatalf("round trip = %+v", back)
	}
	if back.Meta["measure_instrs"] != "100" {
		t.Fatalf("meta lost: %+v", back.Meta)
	}
	r0 := back.Tables[0].Rows[1]
	if r0.Label != "gcc" || !r0.High || r0.Values[0] != 2 {
		t.Fatalf("row = %+v", r0)
	}
	if !back.Tables[0].Rows[2].Aggregate {
		t.Fatal("aggregate flag lost")
	}
	// ClassColumn is part of the data contract: JSON consumers need it to
	// know Values align with Columns[2:] rather than Columns[1:].
	if back.Tables[0].ClassColumn || !back.Tables[1].ClassColumn {
		t.Fatal("class_column flag lost")
	}
	// Rules and verbs are presentation-only: they must not leak into JSON.
	if strings.Contains(b.String(), "rules") || strings.Contains(b.String(), "Verb") {
		t.Fatalf("presentation state leaked into JSON:\n%s", b.String())
	}
}

func TestCSVTidyFormat(t *testing.T) {
	var b strings.Builder
	if err := demo().CSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "experiment,table,label,class,high,aggregate,column,value" {
		t.Fatalf("header = %q", lines[0])
	}
	// 3 rows x 2 values in table 1, 2 rows x 1 value in table 2.
	if len(lines) != 1+6+2 {
		t.Fatalf("%d lines:\n%s", len(lines), b.String())
	}
	// Labels stay raw (no " [high]" suffix): the high flag is a column,
	// so CSV rows join against JSON output and workload names.
	for _, want := range []string{
		"demo,Per-benchmark,gap,int,false,false,SS1,1.25",
		"demo,Per-benchmark,gcc,int,true,false,SS2,1.5",
		"demo,Per-benchmark,Average,,false,true,SS2,1.1",
		"demo,Effects,C,Integer,false,false,effect %,16.07",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("CSV missing %q", want)
		}
	}
}

func TestWriteJSONArray(t *testing.T) {
	var b strings.Builder
	if err := WriteJSONArray(&b, demo(), demo()); err != nil {
		t.Fatal(err)
	}
	var back []Report
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("array len = %d", len(back))
	}
	b.Reset()
	if err := WriteJSONArray(&b); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "[]" {
		t.Fatalf("empty array = %q", b.String())
	}
}

func TestEmptyReport(t *testing.T) {
	r := New("empty", "")
	if got := r.String(); got != "" {
		t.Fatalf("empty report renders %q", got)
	}
	var b strings.Builder
	if err := r.CSV(&b); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != strings.Join(csvHeader, ",") {
		t.Fatalf("empty CSV = %q", b.String())
	}
}

func TestParseFormat(t *testing.T) {
	for _, s := range []string{"text", "json", "csv"} {
		f, err := ParseFormat(s)
		if err != nil || string(f) != s {
			t.Fatalf("ParseFormat(%q) = %q, %v", s, f, err)
		}
	}
	for _, s := range []string{"", "yaml", "JSON", " csv"} {
		if f, err := ParseFormat(s); err == nil {
			t.Fatalf("ParseFormat(%q) = %q, want an error", s, f)
		}
	}
}
