package experiments

import (
	"strings"
	"testing"
)

// The section table is the one list of the evaluation's sections: its names
// are unique, non-empty and never "all"; a selection comes out in table
// order, each section once; "all" expands to the evaluation's order, with
// numa only on a multi-socket machine; and an unknown name is an error.
func TestSectionTable(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range SectionNames() {
		if name == "" || name == "all" || seen[name] {
			t.Errorf("section name %q is empty, reserved or repeated", name)
		}
		seen[name] = true
	}

	flat := "sec2 sec3 sec4 sec5 fig2 fig5 realcache table1 table2 lu krylov sec9 smp multilevel omega"
	for _, tc := range []struct {
		args []string
		opts Options
		want string
	}{
		{[]string{"all"}, Options{}, flat},
		{[]string{"all"}, Options{Sockets: 1}, flat},
		{[]string{"all"}, Options{Sockets: 2}, flat + " numa"},
		{[]string{"all"}, Options{Sockets: 4}, flat + " numa"},
		{[]string{"numa"}, Options{Sockets: 1}, "numa"},
		{[]string{"numa", "all"}, Options{Sockets: 1}, flat + " numa"},
		{[]string{"omega", "sec2", "omega"}, Options{}, "sec2 omega"},
		{nil, Options{}, ""},
	} {
		secs, err := SelectSections(tc.args, tc.opts)
		if err != nil {
			t.Fatalf("SelectSections(%q, %+v): %v", tc.args, tc.opts, err)
		}
		got := make([]string, len(secs))
		for i, sec := range secs {
			got[i] = sec.Name
		}
		if strings.Join(got, " ") != tc.want {
			t.Errorf("SelectSections(%q, sockets %d) = %q, want %q",
				tc.args, tc.opts.Sockets, strings.Join(got, " "), tc.want)
		}
	}

	for _, args := range [][]string{{"nosuch"}, {"sec2", "nosuch"}, {""}} {
		secs, err := SelectSections(args, Options{})
		if err == nil || secs != nil {
			t.Errorf("SelectSections(%q) = %d sections, %v; want an error", args, len(secs), err)
		}
	}
}
