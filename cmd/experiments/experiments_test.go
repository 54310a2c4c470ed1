package main

import (
	"os"
	"testing"
)

// TestMain serves E12's crash child: e12RunChild re-executes
// os.Args[0], which under go test is this test binary.
func TestMain(m *testing.M) {
	if os.Getenv("WEBML_E12_DIR") != "" {
		e12Child()
		return
	}
	os.Exit(m.Run())
}

// verdicts runs one experiment and fails on each of its checks that
// read false, by name.
func verdicts(t *testing.T, experiment func()) {
	t.Helper()
	failed = nil
	experiment()
	for _, what := range failed {
		t.Errorf("false verdict: %s", what)
	}
}

// E13's verdicts and E15's hot-set and checkpoint ratios depend on the
// wall clock of the machine that runs them, so they have no test here:
// "go run ./cmd/experiments e13" and "… e15" gate them by exit status.

func TestE1(t *testing.T)  { verdicts(t, e1) }
func TestE2(t *testing.T)  { verdicts(t, e2) }
func TestE5(t *testing.T)  { verdicts(t, e5) }
func TestE6(t *testing.T)  { verdicts(t, e6) }
func TestE6c(t *testing.T) { verdicts(t, e6c) }
func TestE7b(t *testing.T) { verdicts(t, e7b) }
func TestE9(t *testing.T)  { verdicts(t, e9) }
func TestE10(t *testing.T) { verdicts(t, e10) }
func TestE11(t *testing.T) { verdicts(t, e11) }
func TestE12(t *testing.T) { verdicts(t, e12) }
func TestE14(t *testing.T) { verdicts(t, e14) }

// TestE15 is E15a: an 8,000-row dataset checkpointed to at least 4x a
// 64-page pool, served with the row cache within its 256 rows and the
// pool within its 64 pages, answers its queries right.
func TestE15(t *testing.T) { verdicts(t, e15Capacity) }
