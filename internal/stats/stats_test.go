package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean(nil); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	if got := HarmonicMean([]float64{2, 2, 2}); !approx(got, 2, 1e-12) {
		t.Fatalf("constant = %v", got)
	}
	// H(1,2) = 2/(1+0.5) = 4/3.
	if got := HarmonicMean([]float64{1, 2}); !approx(got, 4.0/3, 1e-12) {
		t.Fatalf("H(1,2) = %v", got)
	}
}

func TestHarmonicMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero value")
		}
	}()
	HarmonicMean([]float64{1, 0})
}

// Harmonic mean of IPCs equals instructions/total-cycles when every
// benchmark runs the same instruction count — the reason the paper uses it.
func TestHarmonicMeanIsCPIAdditive(t *testing.T) {
	ipcs := []float64{0.5, 1.25, 4.0}
	const instrs = 1e6
	var cycles float64
	for _, ipc := range ipcs {
		cycles += instrs / ipc
	}
	want := 3 * instrs / cycles
	if got := HarmonicMean(ipcs); !approx(got, want, 1e-9) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// TestHarmonicLEGeoLEArith pins the mean inequality H <= G <= A over
// random positive samples, with the geometric and arithmetic means
// computed inline.
func TestHarmonicLEGeoLEArith(t *testing.T) {
	f := func(a, b, c uint16) bool {
		xs := []float64{float64(a%100) + 1, float64(b%100) + 1, float64(c%100) + 1}
		var logSum, sum float64
		for _, x := range xs {
			logSum += math.Log(x)
			sum += x
		}
		h, g, m := HarmonicMean(xs), math.Exp(logSum/3), sum/3
		return h <= g+1e-9 && g <= m+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPctChange(t *testing.T) {
	if got := PctChange(2, 3); !approx(got, 50, 1e-12) {
		t.Fatalf("PctChange(2,3) = %v", got)
	}
	if got := PctChange(4, 3); !approx(got, -25, 1e-12) {
		t.Fatalf("PctChange(4,3) = %v", got)
	}
	if got := PctPenalty(4, 3); !approx(got, 25, 1e-12) {
		t.Fatalf("PctPenalty(4,3) = %v", got)
	}
}

func TestPctChangePanicsOnZeroBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	PctChange(0, 1)
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "bench", "SS1", "SS2")
	tb.AddRowf("gap", "%.2f", 1.0, 0.9)
	tb.AddSeparator()
	tb.AddRow("avg", "1.00", "0.90")
	out := tb.String()
	if !strings.Contains(out, "Demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "gap") || !strings.Contains(out, "0.90") {
		t.Errorf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, rule, row, rule, row
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	for _, l := range lines {
		if strings.TrimRight(l, " ") != l {
			t.Error("trailing whitespace in table output")
		}
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x")
	tb.AddRow("y", "1", "2") // extends beyond header
	out := tb.String()
	if !strings.Contains(out, "x") || !strings.Contains(out, "2") {
		t.Errorf("ragged rows mishandled:\n%s", out)
	}
}
