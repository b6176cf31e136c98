// Package experiments regenerates every table and figure of the paper's
// evaluation: Figure 2 (SS1 vs SS2), Table 2 (the sixteen factor
// combinations), Table 3 (2-k factorial analysis), Figure 3 (C-factor),
// Figure 4 (S-factor), Figure 5 (stagger sweep), Figure 7 (SHREC), and
// Figure 8 (X-scaling), plus two extensions (ablation, o3rs).
//
// Each experiment builds a typed report.Report — tables of labelled
// float64 rows — that downstream tools render as text, JSON, or CSV.
// The text rendering is byte-identical to the historical string API
// (pinned by the golden tests). Simulations are cached in a sim.Suite,
// so experiments that share configurations (most of them) reuse runs.
package experiments

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/config"
	"repro/internal/factorial"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Suite evaluates experiments over the full workload set.
type Suite struct {
	sims     *sim.Suite
	ints     []trace.Profile
	fps      []trace.Profile
	profiles []trace.Profile
}

// NewSuite builds an experiment suite over a simulation suite, sharing
// its result cache (and any attached persistent store) with other users
// — the shrecd server serves /simulate and /experiments/{name} from one
// cache this way.
func NewSuite(sims *sim.Suite) *Suite {
	return &Suite{
		sims:     sims,
		ints:     workload.Integer(),
		fps:      workload.FloatingPoint(),
		profiles: workload.All(),
	}
}

// Sims exposes the underlying simulation cache.
func (s *Suite) Sims() *sim.Suite { return s.sims }

// Info describes one runnable experiment.
type Info struct {
	Name  string `json:"name"`
	Title string `json:"title"`
	// Doc is a short prose description of what the experiment measures
	// and what result to expect — the source of the generated
	// docs/EXPERIMENTS.md catalog, so it can never drift from dispatch.
	Doc string `json:"doc"`
}

// registry is the single source of truth for experiment names, titles,
// and docs, in paper order: Names, Catalog, Run, the repro facade docs,
// the shrecd catalog endpoint, the cmd/experiments flag help, and the
// generated docs/EXPERIMENTS.md all derive from it.
var registry = []Info{
	{"fig2", "Figure 2: IPC of SS2 vs SS1",
		"Per-benchmark IPC of the plain symmetric redundant machine (SS2, lockstep " +
			"duplication) against the SS1 baseline, over all 25 workloads with the paper's " +
			"harmonic-mean aggregates. Establishes the headline cost of naive redundancy: " +
			"roughly a one-third IPC loss, worst on high-IPC benchmarks."},
	{"table2", "Table 2: % IPC increase of the sixteen factor combinations",
		"The full 2^4 factorial sweep of the X (issue/FU bandwidth), S (elastic dispatch " +
			"stagger), C (doubled ISQ/ROB), and B (doubled decode/retire) factors on SS2, " +
			"reported as % IPC gain over plain SS2 for integer and floating-point classes. " +
			"Shows which resources buy back redundant-execution loss."},
	{"table3", "Table 3: significant 2-k factorial effects on CPI",
		"A 2^k factorial analysis of mean CPI over the sixteen SS2 configurations: main " +
			"effects and interactions ranked by significance. Reproduces the paper's " +
			"finding that X dominates, with S and C the useful cheap factors."},
	{"fig3", "Figure 3: the C factor (doubled ISQ/ROB, ~O3RS)",
		"Isolates the C factor: SS2 with doubled window structures, the approximation of " +
			"Mendelson & Suri's O3RS. Window capacity alone recovers little at fixed issue " +
			"bandwidth."},
	{"fig4", "Figure 4: the S factor (256-instruction elastic stagger, ~SRT)",
		"Isolates the S factor: elastic dispatch stagger between the two redundant " +
			"threads, the mechanism SRT-style designs rely on. Stagger converts redundant " +
			"fetch into slack that hides structural conflicts."},
	{"fig5", "Figure 5: IPC of SS2+S+C vs maximum stagger",
		"Sweeps the maximum dispatch stagger of SS2+S+C from 0 to 512 instructions, " +
			"locating the knee where additional slack stops paying."},
	{"fig7", "Figure 7: SHREC vs SS2, SS2+SCB, and SS1",
		"The paper's headline result: SHREC's asymmetric in-order checker, sharing issue " +
			"bandwidth and functional units with the out-of-order pipeline, tracks SS1 " +
			"within a few percent — matching SS2+SCB at none of its hardware cost."},
	{"fig8", "Figure 8: IPC vs issue/FU scaling (0.5X-2X)",
		"Scales issue width, functional units, and memory ports from 0.5X to 2X for SS1, " +
			"SS2, and SHREC, showing how each design's penalty responds to raw bandwidth."},
	{"ablation", "Ablation (extension): shared vs dedicated checker units",
		"Extension beyond the paper: gives the SHREC checker dedicated functional units " +
			"(the DIVA design point) and compares against resource sharing, isolating the " +
			"contention cost that SHREC's scheduling hides."},
	{"o3rs", "O3RS validation (extension): real mechanism vs SS2+CB approximation",
		"Extension beyond the paper: implements O3RS's actual double-execution-from-" +
			"shared-entries mechanism and validates the paper's claim that SS2+C+B " +
			"approximates it."},
}

// runners maps each registry entry to its implementation. Populated in
// init (not in the declaration) because the methods reference the
// registry through newReport, which would otherwise be an
// initialization cycle; init also asserts the two stay in sync.
var runners map[string]func(*Suite, context.Context) (*report.Report, error)

func init() {
	runners = map[string]func(*Suite, context.Context) (*report.Report, error){
		"fig2":     (*Suite).Figure2,
		"table2":   (*Suite).Table2,
		"table3":   (*Suite).Table3,
		"fig3":     (*Suite).Figure3,
		"fig4":     (*Suite).Figure4,
		"fig5":     (*Suite).Figure5,
		"fig7":     (*Suite).Figure7,
		"fig8":     (*Suite).Figure8,
		"ablation": (*Suite).Ablation,
		"o3rs":     (*Suite).O3RS,
	}
	if len(runners) != len(registry) {
		panic("experiments: registry and runners disagree")
	}
	for _, e := range registry {
		if runners[e.Name] == nil {
			panic("experiments: no runner for " + e.Name)
		}
	}
}

// Names lists the runnable experiments in paper order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	return out
}

// Catalog lists every experiment with its title, in paper order.
func Catalog() []Info {
	out := make([]Info, len(registry))
	copy(out, registry)
	return out
}

// Known reports whether name is a runnable experiment.
func Known(name string) bool {
	_, ok := runners[name]
	return ok
}

// Run dispatches one experiment by name. The context cancels or
// deadline-bounds every simulation the experiment triggers.
func (s *Suite) Run(ctx context.Context, name string) (*report.Report, error) {
	if run, ok := runners[name]; ok {
		return run(s, ctx)
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
}

// newReport starts a report for the named experiment, stamped with the
// registry title and the suite's run lengths.
func (s *Suite) newReport(name string) *report.Report {
	title := ""
	for _, e := range registry {
		if e.Name == name {
			title = e.Title
		}
	}
	r := report.New(name, title)
	opt := s.sims.Options()
	r.SetMeta("warmup_instrs", strconv.FormatUint(opt.WarmupInstrs, 10))
	r.SetMeta("measure_instrs", strconv.FormatUint(opt.MeasureInstrs, 10))
	return r
}

// batch runs every machine on every profile through one sim.Suite.Batch
// and returns each machine's results, in profile order.
func (s *Suite) batch(ctx context.Context, machines []config.Machine, profiles []trace.Profile) ([][]sim.Result, error) {
	res, err := s.sims.Batch(ctx, machines, profiles)
	if err != nil {
		return nil, err
	}
	rows := make([][]sim.Result, len(machines))
	for i := range rows {
		rows[i] = res[i*len(profiles) : (i+1)*len(profiles)]
	}
	return rows, nil
}

// classMeans are one machine's aggregates over the results of one
// benchmark class: the harmonic-mean IPC over all of them and over the
// paper's high- and low-IPC groups, and each group's arithmetic-mean CPI
// (CPI is additive across equal instruction counts, so arithmetic means
// are the right response for factorial analysis, as in the paper).
type classMeans struct {
	All, High, Low  float64
	CPIHigh, CPILow float64
}

// means aggregates rs, one machine's results in profile order, over the
// results of class cls. Walking rs in profile order fixes the order of
// every floating-point sum.
func means(rs []sim.Result, cls trace.Class) classMeans {
	var all, high, low []float64
	var cpiHigh, cpiLow float64
	for _, r := range rs {
		if r.Class != cls {
			continue
		}
		all = append(all, r.IPC())
		if r.HighIPC {
			high = append(high, r.IPC())
			cpiHigh += r.CPI()
		} else {
			low = append(low, r.IPC())
			cpiLow += r.CPI()
		}
	}
	return classMeans{
		All:     stats.HarmonicMean(all),
		High:    stats.HarmonicMean(high),
		Low:     stats.HarmonicMean(low),
		CPIHigh: cpiHigh / float64(len(high)),
		CPILow:  cpiLow / float64(len(low)),
	}
}

// addPerBenchmarkTable appends one of the paper's per-benchmark IPC bar
// charts (Figures 2, 3, 4, 7) as a table: one row per benchmark of
// profiles, all of one class, plus the three harmonic-mean aggregate
// rows, one column per machine. It returns each machine's means.
func (s *Suite) addPerBenchmarkTable(ctx context.Context, rep *report.Report, title string, machines []config.Machine, profiles []trace.Profile) ([]classMeans, error) {
	rows, err := s.batch(ctx, machines, profiles)
	if err != nil {
		return nil, err
	}
	tb := rep.AddTable(title, append([]string{"benchmark"}, machineNames(machines)...)...)
	for j, p := range profiles {
		row := report.Row{
			Label:  p.Name,
			Class:  p.Class.String(),
			High:   p.HighIPC,
			Values: make([]float64, len(machines)),
		}
		for i := range machines {
			row.Values[i] = rows[i][j].IPC()
		}
		tb.Add(row)
	}
	tb.AddRule()
	av := make([]classMeans, len(machines))
	all, low, high := make([]float64, len(machines)), make([]float64, len(machines)), make([]float64, len(machines))
	for i := range machines {
		av[i] = means(rows[i], profiles[0].Class)
		all[i], low[i], high[i] = av[i].All, av[i].Low, av[i].High
	}
	tb.Add(report.Row{Label: "Average", Aggregate: true, Values: all})
	tb.Add(report.Row{Label: "Average (Low only)", Aggregate: true, Values: low})
	tb.Add(report.Row{Label: "Average (High only)", Aggregate: true, Values: high})
	return av, nil
}

func machineNames(ms []config.Machine) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// addPenaltyNotes appends the headline "SS2 loses N% vs SS1" lines:
// machines[m] against machines[base], from the integer and
// floating-point means of addPerBenchmarkTable.
func addPenaltyNotes(rep *report.Report, machines []config.Machine, ints, fps []classMeans, base, m int) {
	for _, cls := range []struct {
		name string
		av   []classMeans
	}{{"integer", ints}, {"floating-point", fps}} {
		rep.AddNote("%s penalty vs %s on %s: %.0f%%", machines[m].Name, machines[base].Name,
			cls.name, stats.PctPenalty(cls.av[base].All, cls.av[m].All))
	}
}

// Figure2 reproduces the SS1-versus-SS2 IPC comparison.
func (s *Suite) Figure2(ctx context.Context) (*report.Report, error) {
	rep := s.newReport("fig2")
	machines := []config.Machine{config.SS2(config.Factors{}), config.SS1()}
	ints, err := s.addPerBenchmarkTable(ctx, rep, "Figure 2(a): Integer IPC, SS2 vs SS1", machines, s.ints)
	if err != nil {
		return nil, err
	}
	fps, err := s.addPerBenchmarkTable(ctx, rep, "Figure 2(b): Floating-point IPC, SS2 vs SS1", machines, s.fps)
	if err != nil {
		return nil, err
	}
	addPenaltyNotes(rep, machines, ints, fps, 1, 0)
	return rep, nil
}

// Table2 reproduces the sixteen-configuration factor study: percentage IPC
// increase relative to plain SS2 for integer and floating-point benchmark
// classes, overall and split by high/low IPC.
func (s *Suite) Table2(ctx context.Context) (*report.Report, error) {
	combos := config.AllFactorCombinations()
	machines := make([]config.Machine, len(combos))
	for i, f := range combos {
		machines[i] = config.SS2(f)
	}
	rows, err := s.batch(ctx, machines, s.profiles)
	if err != nil {
		return nil, err
	}
	// rows[0] is plain SS2.
	baseInt, baseFP := means(rows[0], trace.IntClass), means(rows[0], trace.FPClass)

	rep := s.newReport("table2")
	tb := rep.AddTable("Table 2: % IPC increase relative to SS2",
		"X S C B", "Int All", "Int High", "Int Low", "FP All", "FP High", "FP Low")
	tb.Verb = "%.0f"
	for i, row := range rows {
		avInt, avFP := means(row, trace.IntClass), means(row, trace.FPClass)
		tb.AddRow(combos[i].String(),
			stats.PctChange(baseInt.All, avInt.All),
			stats.PctChange(baseInt.High, avInt.High),
			stats.PctChange(baseInt.Low, avInt.Low),
			stats.PctChange(baseFP.All, avFP.All),
			stats.PctChange(baseFP.High, avFP.High),
			stats.PctChange(baseFP.Low, avFP.Low),
		)
	}
	return rep, nil
}

// Table3 reproduces the 2-k factorial analysis: the main factors and
// interactions whose CPI effect exceeds 3%, per benchmark class.
func (s *Suite) Table3(ctx context.Context) (*report.Report, error) {
	combos := config.AllFactorCombinations()
	machines := make([]config.Machine, len(combos))
	for i, f := range combos {
		machines[i] = config.SS2(f)
	}
	rows, err := s.batch(ctx, machines, s.profiles)
	if err != nil {
		return nil, err
	}

	factors := []string{"X", "S", "C", "B"}
	rep := s.newReport("table3")
	tb := rep.AddTable("Table 3: significant factorial effects on CPI (>3% decrease shown)",
		"class", "factor", "effect %")
	tb.Verb = "%.1f"
	tb.ClassColumn = true
	for _, cls := range []struct {
		name  string
		class trace.Class
		high  bool
	}{
		{"Integer: High", trace.IntClass, true},
		{"Integer: Low", trace.IntClass, false},
		{"Floating-point: High", trace.FPClass, true},
		{"Floating-point: Low", trace.FPClass, false},
	} {
		// Build the 16 responses indexed by factor bitmask.
		resp := make([]float64, 16)
		for i, f := range combos {
			var mask uint
			if f.X {
				mask |= 1
			}
			if f.S {
				mask |= 2
			}
			if f.C {
				mask |= 4
			}
			if f.B {
				mask |= 8
			}
			av := means(rows[i], cls.class)
			resp[mask] = av.CPILow
			if cls.high {
				resp[mask] = av.CPIHigh
			}
		}
		an, err := factorial.Analyze(factors, resp)
		if err != nil {
			return nil, err
		}
		for _, eff := range an.Significant(3) {
			tb.Add(report.Row{
				Class:  cls.name,
				Label:  eff.Name,
				Values: []float64{eff.PctDecrease},
			})
		}
		tb.AddRule()
	}
	return rep, nil
}

// Figure3 reproduces the C-factor study (SS2 with doubled ISQ/ROB ~ O3RS).
func (s *Suite) Figure3(ctx context.Context) (*report.Report, error) {
	rep := s.newReport("fig3")
	machines := []config.Machine{
		config.SS2(config.Factors{}),
		config.SS2(config.Factors{C: true}),
		config.SS1(),
	}
	if _, err := s.addPerBenchmarkTable(ctx, rep, "Figure 3(a): Integer IPC, C-factor", machines, s.ints); err != nil {
		return nil, err
	}
	if _, err := s.addPerBenchmarkTable(ctx, rep, "Figure 3(b): Floating-point IPC, C-factor", machines, s.fps); err != nil {
		return nil, err
	}
	return rep, nil
}

// Figure4 reproduces the S-factor study (SS2 with a 256-instruction
// elastic stagger ~ SRT).
func (s *Suite) Figure4(ctx context.Context) (*report.Report, error) {
	rep := s.newReport("fig4")
	machines := []config.Machine{
		config.SS2(config.Factors{}),
		config.SS2(config.Factors{S: true}),
		config.SS1(),
	}
	if _, err := s.addPerBenchmarkTable(ctx, rep, "Figure 4(a): Integer IPC, S-factor", machines, s.ints); err != nil {
		return nil, err
	}
	if _, err := s.addPerBenchmarkTable(ctx, rep, "Figure 4(b): Floating-point IPC, S-factor", machines, s.fps); err != nil {
		return nil, err
	}
	return rep, nil
}

// Figure5 reproduces the stagger-degree sweep on SS2+S+C: maximum staggers
// of 0, 256, 1K, and 1M instructions over the four benchmark classes.
func (s *Suite) Figure5(ctx context.Context) (*report.Report, error) {
	staggers := []int{0, 256, 1024, 1 << 20}
	labels := []string{"0 Stagger", "256 Stagger", "1K Stagger", "1M Stagger"}
	machines := make([]config.Machine, len(staggers))
	for i, n := range staggers {
		machines[i] = config.SS2(config.Factors{S: true, C: true}).WithStagger(n)
	}
	rows, err := s.batch(ctx, machines, s.profiles)
	if err != nil {
		return nil, err
	}
	rep := s.newReport("fig5")
	tb := rep.AddTable("Figure 5: IPC of SS2+S+C vs maximum stagger",
		append([]string{"class"}, labels...)...)
	for _, cls := range []struct {
		name  string
		class trace.Class
		high  bool
	}{
		{"Integer Low", trace.IntClass, false},
		{"Integer High", trace.IntClass, true},
		{"Floating-point Low", trace.FPClass, false},
		{"Floating-point High", trace.FPClass, true},
	} {
		row := make([]float64, len(machines))
		for i := range machines {
			av := means(rows[i], cls.class)
			row[i] = av.Low
			if cls.high {
				row[i] = av.High
			}
		}
		tb.AddRow(cls.name, row...)
	}
	return rep, nil
}

// Figure7 reproduces the headline SHREC comparison: SS2, SHREC, the
// idealized SS2+S+C+B, and SS1.
func (s *Suite) Figure7(ctx context.Context) (*report.Report, error) {
	rep := s.newReport("fig7")
	machines := []config.Machine{
		config.SS2(config.Factors{}),
		config.SHREC(),
		config.SS2(config.Factors{S: true, C: true, B: true}),
		config.SS1(),
	}
	ints, err := s.addPerBenchmarkTable(ctx, rep, "Figure 7(a): Integer IPC, SHREC", machines, s.ints)
	if err != nil {
		return nil, err
	}
	fps, err := s.addPerBenchmarkTable(ctx, rep, "Figure 7(b): Floating-point IPC, SHREC", machines, s.fps)
	if err != nil {
		return nil, err
	}
	addPenaltyNotes(rep, machines, ints, fps, 3, 1)
	return rep, nil
}

// Figure8 reproduces the X-scaling sweep: IPC of SHREC and SS2 with 0.5X
// to 2X issue bandwidth and functional units, per benchmark class.
func (s *Suite) Figure8(ctx context.Context) (*report.Report, error) {
	scales := []float64{0.5, 1, 1.5, 2}
	bases := []config.Machine{config.SHREC(), config.SS2(config.Factors{})}
	all := []struct {
		label string
		base  int // index into bases
		class trace.Class
		high  bool
	}{
		{"SHREC - Int High", 0, trace.IntClass, true},
		{"SS2 - Int High", 1, trace.IntClass, true},
		{"SHREC - Int Low", 0, trace.IntClass, false},
		{"SS2 - Int Low", 1, trace.IntClass, false},
		{"SHREC - FP High", 0, trace.FPClass, true},
		{"SS2 - FP High", 1, trace.FPClass, true},
		{"SHREC - FP Low", 0, trace.FPClass, false},
		{"SS2 - FP Low", 1, trace.FPClass, false},
	}
	// Scale-major: machines[i*len(bases)+b] is bases[b] at scales[i].
	var machines []config.Machine
	for _, sc := range scales {
		for _, b := range bases {
			machines = append(machines, b.WithXScale(sc))
		}
	}
	rows, err := s.batch(ctx, machines, s.profiles)
	if err != nil {
		return nil, err
	}
	rep := s.newReport("fig8")
	tb := rep.AddTable("Figure 8: IPC vs issue/FU scaling (0.5X-2X)",
		"series", "0.5X", "1X", "1.5X", "2X")
	for _, sr := range all {
		row := make([]float64, len(scales))
		for i := range scales {
			av := means(rows[i*len(bases)+sr.base], sr.class)
			row[i] = av.Low
			if sr.high {
				row[i] = av.High
			}
		}
		tb.AddRow(sr.label, row...)
	}
	return rep, nil
}

// Ablation is an extension beyond the paper's figures: it compares SS1,
// SHREC (shared functional units), DIVA (dedicated checker pipeline,
// Section 4.1), and SS2+X+C (which the paper's Table 2 notes approximates
// both SS1 and DIVA). It quantifies exactly what SHREC's unit sharing
// costs and confirms the paper's claim that DIVA tracks SS1.
func (s *Suite) Ablation(ctx context.Context) (*report.Report, error) {
	rep := s.newReport("ablation")
	machines := []config.Machine{
		config.SS1(),
		config.DIVA(),
		config.SHREC(),
		config.SS2(config.Factors{X: true, C: true}),
	}
	if _, err := s.addPerBenchmarkTable(ctx, rep, "Ablation (extension): shared vs dedicated checker units, integer", machines, s.ints); err != nil {
		return nil, err
	}
	if _, err := s.addPerBenchmarkTable(ctx, rep, "Ablation (extension): shared vs dedicated checker units, floating-point", machines, s.fps); err != nil {
		return nil, err
	}
	return rep, nil
}

// O3RS is an extension beyond the paper's figures: it runs the real
// Mendelson & Suri double-execution mechanism next to the SS2+C+B
// configuration the paper uses to approximate it (Table 2's note), plus
// the SS2 and SS1 anchors. If the approximation is sound, the O3RS and
// SS2+CB columns should track each other.
func (s *Suite) O3RS(ctx context.Context) (*report.Report, error) {
	rep := s.newReport("o3rs")
	machines := []config.Machine{
		config.SS2(config.Factors{}),
		config.O3RS(),
		config.SS2(config.Factors{C: true, B: true}),
		config.SS1(),
	}
	if _, err := s.addPerBenchmarkTable(ctx, rep, "O3RS validation (extension): real mechanism vs SS2+CB approximation, integer", machines, s.ints); err != nil {
		return nil, err
	}
	if _, err := s.addPerBenchmarkTable(ctx, rep, "O3RS validation (extension): real mechanism vs SS2+CB approximation, floating-point", machines, s.fps); err != nil {
		return nil, err
	}
	return rep, nil
}
