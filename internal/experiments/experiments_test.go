package experiments

import (
	"strings"
	"testing"
)

// Every experiment must run in quick mode and report a passing shape. These
// are the repository's end-to-end regression tests for the paper's claims.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are minutes-scale")
	}
	for _, ex := range All() {
		ex := ex
		t.Run(ex.ID, func(t *testing.T) {
			t.Parallel()
			rep := ex.Run(true)
			if rep.ID != ex.ID {
				t.Fatalf("report ID %q under experiment %q", rep.ID, ex.ID)
			}
			if !rep.Pass {
				t.Fatalf("experiment failed its shape check:\n%s", rep)
			}
			if rep.Table == "" {
				t.Fatal("no table rendered")
			}
		})
	}
}

func TestReportString(t *testing.T) {
	r := Report{ID: "EX", Title: "t", Claim: "c", Table: "tbl\n", Notes: []string{"n"}, Pass: true}
	s := r.String()
	for _, want := range []string{"EX", "PASS", "tbl", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in %q", want, s)
		}
	}
}

// TestE2RowsDeterministic renders quick E2 twice. Its rows must come out in
// the same order both times: a table built by ranging over a map would
// shuffle them from run to run.
func TestE2RowsDeterministic(t *testing.T) {
	a, b := E2Stretch(true).String(), E2Stretch(true).String()
	if a != b {
		t.Fatalf("two quick E2 runs rendered different reports:\n%s\n%s", a, b)
	}
}
