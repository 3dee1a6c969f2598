package experiments

import (
	"fmt"
	"strings"

	"writeavoid/internal/costmodel"
	"writeavoid/internal/machine"
)

// Options are the run parameters the sections read.
type Options struct {
	Quick     bool              // reduced problem sizes
	HW        costmodel.HW      // analytic preset of the Table 1/2 and LU model columns
	Sockets   int               // numa's socket count
	Placement machine.Placement // numa's rank-to-socket mapping
}

// Section is one part of the paper's evaluation: a name and a run that
// returns the section's rendered text.
type Section struct {
	Name string
	Run  func(*Session, Options) string
	// inAll reports whether "all" includes the section under the given
	// options; nil means always.
	inAll func(Options) bool
}

// sections is the evaluation in run order: wabench runs what it selects in
// this order, whatever the order of its arguments.
var sections = []Section{
	{Name: "sec2", Run: func(s *Session, _ Options) string { return s.Sec2Report() }},
	{Name: "sec3", Run: func(s *Session, o Options) string { return FormatSec3(s.Sec3(o.Quick)) }},
	{Name: "sec4", Run: func(s *Session, o Options) string { return FormatSec4(s.Sec4(o.Quick)) }},
	{Name: "sec5", Run: func(s *Session, o Options) string { return FormatSec5(s.Sec5(o.Quick)) }},
	{Name: "fig2", Run: func(s *Session, o Options) string { return FormatPanels(s.Fig2(o.Quick)) }},
	{Name: "fig5", Run: func(s *Session, o Options) string { return FormatPanels(s.Fig5(o.Quick)) }},
	{Name: "realcache", Run: func(s *Session, _ Options) string {
		wa, co := s.RealCacheCrossCheck()
		return fmt.Sprintf("== Set-associative CLOCK3 cross-check (250 x 128 x 250, 16-way)\n"+
			"WA order victims.M = %d, CO order victims.M = %d (ordering preserved: %v)\n",
			wa, co, wa < co)
	}},
	// The analytic halves of Tables 1 and 2 price the paper's problem sizes
	// and replication factors, not the measured scaled-down runs.
	{Name: "table1", Run: func(s *Session, o Options) string {
		return FormatTable1(s.Table1(o.Quick), o.HW, 1<<14, 1<<10, 2, 8)
	}},
	{Name: "table2", Run: func(s *Session, o Options) string {
		return FormatTable2(s.Table2(o.Quick), o.HW, 1<<20, 256, 4)
	}},
	{Name: "lu", Run: func(s *Session, o Options) string { return FormatLU(s.LU(o.Quick), o.HW) }},
	{Name: "krylov", Run: func(s *Session, o Options) string { return FormatKrylov(s.Krylov(o.Quick)) }},
	{Name: "sec9", Run: func(s *Session, o Options) string { return s.Sec9Report(o.Quick) }},
	{Name: "smp", Run: func(s *Session, o Options) string { return s.SMPReport(o.Quick) }},
	{Name: "multilevel", Run: func(s *Session, o Options) string { return FormatMultiLevel(s.MultiLevel(o.Quick)) }},
	{Name: "omega", Run: func(s *Session, o Options) string { return FormatOmega(s.Omega(o.Quick)) }},
	// numa joins "all" only with two or more sockets, so that a default
	// run's output, and every counter behind it, stays the flat machine's.
	// Named, it always runs, with at least two sockets (NUMA clamps).
	{
		Name: "numa",
		Run: func(s *Session, o Options) string {
			return FormatNUMA(s.NUMA(o.Quick, o.Sockets, o.Placement))
		},
		inAll: func(o Options) bool { return o.Sockets >= 2 },
	},
}

// SectionNames returns every section name in run order.
func SectionNames() []string {
	names := make([]string, len(sections))
	for i, sec := range sections {
		names[i] = sec.Name
	}
	return names
}

// SelectSections returns the sections that names select, in run order and
// each once: "all" selects every section that opts admit to it, any other
// name the section of that name. An unknown name is an error that lists the
// valid ones.
func SelectSections(names []string, opts Options) ([]Section, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []Section
	for _, sec := range sections {
		if want[sec.Name] || (want["all"] && (sec.inAll == nil || sec.inAll(opts))) {
			out = append(out, sec)
		}
		delete(want, sec.Name)
	}
	delete(want, "all")
	for _, n := range names {
		if want[n] {
			return nil, fmt.Errorf("unknown section %q (valid: %s all)", n, strings.Join(SectionNames(), " "))
		}
	}
	return out, nil
}
