package analysis

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
)

// This file is the fixture-test harness, modelled on
// golang.org/x/tools/go/analysis/analysistest: fixture packages under
// testdata/src/<name> carry expectations as trailing comments of the
// form
//
//	expr // want "regexp" "another regexp"
//
// and RunFixture checks that the analyzer reports exactly the expected
// diagnostics on exactly the expected lines. Fixtures are loaded with
// the shared module world, so they may import the real rakis packages
// (e.g. rakis/internal/mem) and their annotations behave as in
// production.

// TB is the subset of *testing.T the harness needs (avoids importing
// testing into non-test code).
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

var (
	worldOnce sync.Once
	worldVal  *World
	worldErr  error
)

// sharedWorld loads the module once per test binary.
func sharedWorld() (*World, error) {
	worldOnce.Do(func() {
		worldVal, worldErr = LoadModule(".")
	})
	return worldVal, worldErr
}

// expectation is one // want entry.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"|` + "`[^`]*`")

// RunFixture loads testdata/src/<name> as a package and diffs the
// analyzer's diagnostics against its // want comments.
func RunFixture(t TB, a *Analyzer, name string) {
	t.Helper()
	world, err := sharedWorld()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	dir := filepath.Join("testdata", "src", name)
	pkg, err := world.LoadDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	diags := Run(world, []*Package{pkg}, []*Analyzer{a})

	// Collect expectations from every comment in the fixture.
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := world.Fset.Position(c.Pos())
				for _, q := range quotedRe.FindAllString(m[1], -1) {
					pattern := q
					if strings.HasPrefix(q, `"`) {
						if unq, err := strconv.Unquote(q); err == nil {
							pattern = unq
						}
					} else {
						pattern = strings.Trim(q, "`")
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					wants = append(wants, &expectation{
						file: filepath.Base(pos.Filename), line: pos.Line, re: re, raw: pattern,
					})
				}
			}
		}
	}

	// Every diagnostic must match a pending expectation on its line.
	for _, d := range diags {
		pos := world.Fset.Position(d.Pos)
		if !consume(wants, pos, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s (%s)", pos, d.Message, d.Analyzer)
		}
	}
	// Every expectation must have been matched.
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// consume marks the first unmatched expectation that fits.
func consume(wants []*expectation, pos token.Position, msg string) bool {
	base := filepath.Base(pos.Filename)
	for _, w := range wants {
		if !w.matched && w.file == base && w.line == pos.Line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}
