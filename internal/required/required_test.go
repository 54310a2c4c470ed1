// Package required checks the module's list of tests CI requires to
// pass. It holds only this test, so a change that leaves another test
// package unbuildable cannot stop the checker.
package required

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// root is the module root, where the manifest and every package directory
// it names are found.
const root = "../.."

// requiredTest is one line of testdata/required_tests.txt.
type requiredTest struct {
	line       int
	dir        string // package directory, relative to the module root
	name       string // Test or Test/subtest; a prefix when min > 0
	min        int    // passing subtests a prefix needs; 0 for one test
	raceExempt bool
}

// key is the entry as `go test -json` names it: import path, space, test.
func (r requiredTest) key() string { return path.Join("webmlgo", r.dir) + " " + r.name }

func (r requiredTest) String() string {
	s := r.key()
	if r.min > 0 {
		s += "* >=" + strconv.Itoa(r.min)
	}
	return s
}

// readRequiredTests parses the manifest.
func readRequiredTests(t *testing.T) []requiredTest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "testdata", "required_tests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out []requiredTest
	for i, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		r := requiredTest{line: i + 1, dir: f[0], name: f[1]}
		for _, opt := range f[2:] {
			switch {
			case opt == "race-exempt":
				r.raceExempt = true
			case strings.HasPrefix(opt, ">="):
				r.min, err = strconv.Atoi(opt[2:])
				if err != nil || r.min < 1 {
					t.Fatalf("required_tests.txt:%d: bad count %q", r.line, opt)
				}
			default:
				t.Fatalf("required_tests.txt:%d: unknown option %q", r.line, opt)
			}
		}
		prefix := strings.HasSuffix(r.name, "*")
		r.name = strings.TrimSuffix(r.name, "*")
		if prefix != (r.min > 0) || strings.Contains(r.name, "*") {
			t.Fatalf("required_tests.txt:%d: a name ending in * needs >=N, and only it", r.line)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		t.Fatal("required_tests.txt lists no test")
	}
	return out
}

// TestRequiredTests checks testdata/required_tests.txt. On every run it
// checks that each entry's package declares the test and that each
// corpus floor holds. Given the files `go test -json ./...` and `go test
// -race -json ./...` wrote, after -args, it also checks that each entry
// passed in the run the manifest names, and it prints the output of every
// test that failed in either run:
//
//	go test -run '^TestRequiredTests$' ./internal/required -args plain.json race.json
//
// Each run says which it was through this test's own log line.
func TestRequiredTests(t *testing.T) {
	t.Logf("race detector: %v", raceEnabled)
	required := readRequiredTests(t)
	tests := map[string]map[string]bool{} // package dir -> its top-level Test and Fuzz functions
	for _, r := range required {
		if tests[r.dir] == nil {
			tests[r.dir] = declaredTests(t, r.dir)
		}
		checkDeclared(t, r, tests[r.dir])
	}
	if flag.NArg() == 0 {
		return
	}
	var plain, race []testRun
	for _, file := range flag.Args() {
		run := readTestRun(t, file)
		for _, key := range run.failed {
			t.Errorf("%s: %s failed:\n%s", file, strings.TrimSpace(key), run.output[key])
		}
		switch run.race {
		case "true":
			race = append(race, run)
		case "false":
			plain = append(plain, run)
		default:
			t.Errorf("%s: no %q line from TestRequiredTests: not the output of `go test -json ./...`", file, "race detector")
		}
	}
	if len(plain) == 0 || len(race) == 0 {
		t.Fatalf("give the output of both `go test -json ./...` and `go test -race -json ./...` (%d plain, %d race)", len(plain), len(race))
	}
	for _, r := range required {
		runs, which := race, "the race run"
		if r.raceExempt {
			runs, which = plain, "the plain run"
		}
		for _, run := range runs {
			if msg := run.verdict(r); msg != "" {
				t.Errorf("required_tests.txt:%d: %s %s in %s (%s)", r.line, r, msg, which, run.file)
			}
		}
	}
}

// declaredTests returns the names of the functions the test files of dir
// declare.
func declaredTests(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(root, dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				names[fn.Name.Name] = true
			}
		}
	}
	return names
}

// checkDeclared checks that r's package declares its test and, for a
// fuzz target's corpus entry or prefix, that the corpus has it.
func checkDeclared(t *testing.T, r requiredTest, declared map[string]bool) {
	t.Helper()
	top, sub, hasSub := strings.Cut(r.name, "/")
	if !declared[top] {
		t.Errorf("required_tests.txt:%d: %s is not declared in %s", r.line, r, r.dir)
		return
	}
	if !hasSub || !strings.HasPrefix(top, "Fuzz") {
		return
	}
	corpus := filepath.Join(r.dir, "testdata", "fuzz", top)
	entries, _ := os.ReadDir(filepath.Join(root, corpus))
	n := 0
	for _, e := range entries {
		if r.min > 0 && strings.HasPrefix(e.Name(), sub) || e.Name() == sub {
			n++
		}
	}
	switch {
	case r.min > 0 && n < r.min:
		t.Errorf("required_tests.txt:%d: %s: %s holds %d entries", r.line, r, corpus, n)
	case r.min == 0 && n == 0:
		t.Errorf("required_tests.txt:%d: %s: %s lacks %s", r.line, r, corpus, sub)
	}
}

// testRun is what one `go test -json` output file says.
type testRun struct {
	file   string
	race   string            // "true" or "false", from TestRequiredTests' log line
	result map[string]string // "pkg test" -> pass, fail or skip
	output map[string]string // "pkg test" -> its output lines
	failed []string          // tests and packages that failed, in order
}

// readTestRun reads one `go test -json` output file.
func readTestRun(t *testing.T, file string) testRun {
	t.Helper()
	name := file
	if !filepath.IsAbs(name) {
		name = filepath.Join(root, name) // as named from the module root
	}
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	run := testRun{file: file, result: map[string]string{}, output: map[string]string{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var ev struct{ Action, Package, Test, Output string }
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue // a build error outside the event stream
		}
		key := ev.Package + " " + ev.Test
		switch ev.Action {
		case "output":
			run.output[key] += ev.Output
			if ev.Package == "webmlgo/internal/required" && ev.Test == "TestRequiredTests" {
				if _, v, ok := strings.Cut(ev.Output, "race detector: "); ok {
					run.race = strings.TrimSpace(v)
				}
			}
		case "pass", "skip":
			run.result[key] = ev.Action
		case "fail":
			run.result[key] = ev.Action
			run.failed = append(run.failed, key)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return run
}

// verdict returns "" if r passed in run, or what happened to it.
func (run testRun) verdict(r requiredTest) string {
	key := r.key()
	if r.min == 0 {
		switch run.result[key] {
		case "pass":
			return ""
		case "":
			return "did not run"
		case "skip":
			return "was skipped"
		default:
			return "failed"
		}
	}
	passed := 0
	for k, res := range run.result {
		if res == "pass" && strings.HasPrefix(k, key) {
			passed++
		}
	}
	if passed >= r.min {
		return ""
	}
	return fmt.Sprintf("passed %d subtests", passed)
}
