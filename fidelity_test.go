package repro_test

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFidelityTableNamesTests keeps DESIGN.md's "Fidelity to the paper"
// table and its experiment index honest. Every Test…, Benchmark… or
// Fuzz… name they give must be declared by a _test.go file of this
// module (a trailing * matches a prefix; TestPaperClaims/E<n> must be a
// row of paperClaims), every other name in the index's benchmark column
// must be a BENCHMARK.json workload or metric, and every id E1–E30 must
// name a tier-1 test or a bench metric.
func TestFidelityTableNamesTests(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	declared := declaredTestFuncs(t)
	metrics := benchMetricNames(t)
	claims := make(map[string]bool)
	for _, c := range paperClaims {
		claims[c.id] = true
	}
	// known reports whether a Go test function name exists.
	known := func(name string) bool {
		if base, sub, ok := strings.Cut(name, "/"); ok {
			return base == "TestPaperClaims" && claims[sub]
		}
		if prefix, ok := strings.CutSuffix(name, "*"); ok {
			for d := range declared {
				if strings.HasPrefix(d, prefix) {
					return true
				}
			}
			return false
		}
		return declared[name]
	}

	fidelity := tableRows(t, string(design), "## Fidelity to the paper")
	if len(fidelity) == 0 {
		t.Fatal("DESIGN.md has no fidelity table")
	}
	for _, row := range fidelity {
		for _, name := range codeSpans(strings.Join(row, "|")) {
			if goTestName.MatchString(name) && !known(name) {
				t.Errorf("fidelity row %q names %s, which no _test.go file declares", row[0], name)
			}
		}
	}

	index := tableRows(t, string(design), "## Experiment index")
	covered := make(map[string]bool)
	for _, row := range index {
		if len(row) != 4 {
			t.Errorf("experiment index row %q: %d cells, want 4 (id, what, tier-1 test, benchmark)", row[0], len(row))
			continue
		}
		id := row[0]
		for _, name := range codeSpans(row[2]) {
			if !goTestName.MatchString(name) || !known(name) {
				t.Errorf("%s names tier-1 test %s, which no _test.go file declares", id, name)
			} else if strings.HasPrefix(name, "Test") {
				covered[id] = true
			}
		}
		for _, name := range codeSpans(row[3]) {
			switch {
			case goTestName.MatchString(name):
				if !known(name) {
					t.Errorf("%s names benchmark %s, which no _test.go file declares", id, name)
				}
			case metrics[name]:
				covered[id] = true
			default:
				t.Errorf("%s names %s, which is neither a Go benchmark nor a BENCHMARK.json name", id, name)
			}
		}
	}
	for i := 1; i <= 30; i++ {
		if id := fmt.Sprintf("E%d", i); !covered[id] {
			t.Errorf("%s names no tier-1 test and no bench metric in DESIGN.md's experiment index", id)
		}
	}
}

// goTestName matches a Go test, benchmark or fuzz function name, with an
// optional /subtest or trailing * wildcard.
var goTestName = regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Za-z0-9_]*(\*|/[A-Za-z0-9_]+)?$`)

// codeSpan matches a markdown `code` span.
var codeSpan = regexp.MustCompile("`([^`]+)`")

// codeSpans returns the `code` spans of a markdown fragment.
func codeSpans(s string) []string {
	var out []string
	for _, m := range codeSpan.FindAllStringSubmatch(s, -1) {
		out = append(out, m[1])
	}
	return out
}

// tableRows returns the cells of every body row of the first markdown
// table after the heading line, skipping the header and rule rows.
func tableRows(t *testing.T, doc, heading string) [][]string {
	t.Helper()
	_, rest, ok := strings.Cut(doc, "\n"+heading+"\n")
	if !ok {
		t.Fatalf("DESIGN.md has no %q section", heading)
	}
	var rows [][]string
	inTable := false
	for _, line := range strings.Split(rest, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	if len(rows) < 2 {
		return nil
	}
	return rows[2:]
}

// declaredTestFuncs returns the Test…, Benchmark… and Fuzz… functions
// declared by the module's _test.go files (nested modules excluded).
func declaredTestFuncs(t *testing.T) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
	names := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// benchMetricNames returns the workload and metric names BENCHMARK.json
// declares.
func benchMetricNames(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, list := range [][]struct{ Name string }{spec.Workloads, spec.EndToEnd, spec.PerLayer} {
		for _, e := range list {
			names[e.Name] = true
		}
	}
	return names
}
