package lint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// loadFixture loads the standalone fixture module under testdata once per
// test binary. The fixture is a real module (its own go.mod) so the loader
// path under test is exactly the one cmd/sthlint uses.
func loadFixture(t *testing.T) []*Package {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading fixture module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("fixture module loaded no packages")
	}
	return pkgs
}

var wantRe = regexp.MustCompile(`// want ([a-z ]+)$`)

// collectWants scans the fixture sources for "// want <check>..." comments.
// A trailing comment expects the diagnostics on its own line; a standalone
// comment line expects them on the line above (for diagnostics positioned on
// full-line comments, e.g. malformed directives). Returns a map from
// "file:line" to the sorted list of expected check names.
func collectWants(t *testing.T, pkgs []*Package) map[string][]string {
	t.Helper()
	wants := make(map[string][]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(bytes.NewReader(src))
			line := 0
			for sc.Scan() {
				line++
				m := wantRe.FindStringSubmatch(sc.Text())
				if m == nil {
					continue
				}
				target := line
				if strings.HasPrefix(strings.TrimSpace(sc.Text()), "//") {
					target = line - 1 // standalone comment: expectation is for the line above
				}
				key := fmt.Sprintf("%s:%d", name, target)
				wants[key] = append(wants[key], strings.Fields(m[1])...)
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, w := range wants {
		sort.Strings(w)
	}
	return wants
}

// TestFixtureDiagnostics runs the full suite over the fixture module and
// requires the reported diagnostics to match the // want expectations
// exactly — every known-bad snippet caught, every known-good snippet
// accepted, every escape hatch honored.
func TestFixtureDiagnostics(t *testing.T) {
	pkgs := loadFixture(t)
	wants := collectWants(t, pkgs)

	got := make(map[string][]string)
	for _, d := range Run(pkgs, Analyzers()) {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		got[key] = append(got[key], d.Check)
	}
	for _, g := range got {
		sort.Strings(g)
	}

	for key, w := range wants {
		g := got[key]
		if strings.Join(g, " ") != strings.Join(w, " ") {
			t.Errorf("%s: want checks %v, got %v", key, w, g)
		}
	}
	for key, g := range got {
		if _, ok := wants[key]; !ok {
			t.Errorf("%s: unexpected diagnostics %v", key, g)
		}
	}
}

// TestFixtureRegressions pins the regression the CI gate must catch: the
// WritePrometheus map-iteration exposition race, in both of its aspects.
func TestFixtureRegressions(t *testing.T) {
	pkgs := loadFixture(t)
	diags := Run(pkgs, Analyzers())

	find := func(file, check, fragment string) bool {
		for _, d := range diags {
			if filepath.Base(d.File) == file && d.Check == check && strings.Contains(d.Message, fragment) {
				return true
			}
		}
		return false
	}
	if !find("telemetry.go", "lockcheck", "r.fams") {
		t.Error("WritePrometheus regression: unlocked read of the family map not caught by lockcheck")
	}
	if !find("telemetry.go", "determinism", "map range") {
		t.Error("WritePrometheus regression: map-iteration-ordered exposition not caught by determinism")
	}
}

// TestDiagnosticOrdering checks Run's output is sorted by position, so runs
// are diffable in CI.
func TestDiagnosticOrdering(t *testing.T) {
	pkgs := loadFixture(t)
	diags := Run(pkgs, Analyzers())
	if len(diags) < 2 {
		t.Fatalf("fixture produced %d diagnostics; expected several", len(diags))
	}
	if !sort.SliceIsSorted(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column <= b.Column
	}) {
		t.Error("diagnostics are not sorted by file/line/column")
	}
}

// TestRepoIsClean lints the repository itself: go test ./... enforces the
// same gate as make lint, so a diagnostic can't land without a fix or a
// reasoned ignore directive.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide lint skipped in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	for _, d := range Run(pkgs, Analyzers()) {
		t.Errorf("finding: %s", d)
	}
}

// TestSARIFOutput checks the SARIF 2.1.0 envelope: every analyzer appears
// as a rule even on a clean run, results carry repo-relative URIs with the
// %SRCROOT% base, and the output parses as JSON.
func TestSARIFOutput(t *testing.T) {
	root := t.TempDir()
	diags := []Diagnostic{{Check: "walorder", File: filepath.Join(root, "x", "y.go"), Line: 4, Column: 2, Message: "m"}}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, root, Analyzers(), diags); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("want one SARIF 2.1.0 run, got version %q runs %d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if len(run.Tool.Driver.Rules) < len(Analyzers()) {
		t.Errorf("want every analyzer listed as a rule, got %d rules", len(run.Tool.Driver.Rules))
	}
	if len(run.Results) != 1 {
		t.Fatalf("want 1 result, got %d", len(run.Results))
	}
	res := run.Results[0]
	loc := res.Locations[0].PhysicalLocation
	if res.RuleID != "walorder" || loc.ArtifactLocation.URI != "x/y.go" ||
		loc.ArtifactLocation.URIBaseID != "%SRCROOT%" || loc.Region.StartLine != 4 {
		t.Errorf("result mismatch: %+v", res)
	}
}

// TestApplyFixes copies a broken source tree into a temp module, applies the
// suggested fixes, and re-lints: the fixed tree must come back clean. This
// is the -fix pipeline end to end, on the exact rewrites shipped to users.
func TestApplyFixes(t *testing.T) {
	dir := t.TempDir()
	src := `package wal

import "os"

func Persist(f *os.File) {
	f.Sync()
	defer f.Close()
}
`
	writeFixModule(t, dir, src)
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, Analyzers())
	if len(diags) != 2 {
		t.Fatalf("want 2 errflow findings before fixing, got %v", diags)
	}
	if Fixable(diags) != 2 {
		t.Fatalf("want both findings fixable, got %d", Fixable(diags))
	}
	changed, err := ApplyFixes(diags)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 {
		t.Fatalf("want 1 changed file, got %v", changed)
	}
	pkgs, err = Load(dir, "./...")
	if err != nil {
		t.Fatalf("fixed tree does not load: %v", err)
	}
	if diags := Run(pkgs, Analyzers()); len(diags) != 0 {
		t.Fatalf("fixed tree still reports %v", diags)
	}
	fixed, err := os.ReadFile(filepath.Join(dir, "wal.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"_ = f.Sync()", "defer func() { _ = f.Close() }()"} {
		if !strings.Contains(string(fixed), want) {
			t.Errorf("fixed source missing %q:\n%s", want, fixed)
		}
	}
}

// writeFixModule lays out a one-file module named after the durability path
// so the errflow scope applies.
func writeFixModule(t *testing.T, dir, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module wal\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}
