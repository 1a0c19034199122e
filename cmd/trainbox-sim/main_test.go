package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trainbox/internal/experiments"
)

// TestAllMatchesGolden pins every deterministic table of `-exp all` to
// testdata/all.txt byte for byte, one experiment at a time; a Timed
// experiment's tables hold wall-clock measurements, so only their count
// is checked. Fig 5 trains on the real image kernels, so a kernel change
// that moves its channel-averaged features fails here too; a channel
// swap does not.
// After a change that moves a figure on purpose, regenerate it with
//
//	go run ./cmd/trainbox-sim -exp all > cmd/trainbox-sim/testdata/all.txt
func TestAllMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := tables(string(golden))
	for _, e := range experiments.All {
		var out bytes.Buffer
		if code := run([]string{"-exp", e.Name}, &out); code != 0 {
			t.Fatalf("-exp %s exited %d", e.Name, code)
		}
		got := tables(out.String())
		if len(got) > len(want) {
			t.Fatalf("%s: the golden ends before its %d tables", e.Name, len(got))
		}
		section := strings.Join(want[:len(got)], "")
		want = want[len(got):]
		if g := strings.Join(got, ""); !e.Timed && g != section {
			t.Errorf("%s differs from the golden:\n--- got\n%s--- want\n%s", e.Name, g, section)
		}
	}
	if len(want) > 0 {
		t.Errorf("the golden holds %d tables no experiment printed", len(want))
	}
}

// tables splits printed output into its tables, each running from its
// "== title ==" line to the next one.
func tables(s string) []string {
	var out []string
	for s != "" {
		n := strings.Index(s[1:], "\n== ")
		if n < 0 {
			return append(out, s)
		}
		out = append(out, s[:n+2])
		s = s[n+2:]
	}
	return out
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-exp", "nope"},
		{"-exp", "fig19", "-workload", "nope"},
		{"-bogus"},
	} {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 {
			t.Errorf("%q exited %d, want 2", args, code)
		}
		if strings.Contains(out.String(), "== ") {
			t.Errorf("%q printed a table", args)
		}
	}
}
