package webmlgo

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"webmlgo/internal/fault"
	"webmlgo/internal/fixture"
)

// metricNamesInSource scans the non-test Go sources for webml_* family
// literals, expanding every NewHistogramVec family into its derived
// _quantile and _errors_total companions — the code-side inventory.
func metricNamesInSource(t *testing.T) map[string]bool {
	t.Helper()
	nameRe := regexp.MustCompile(`"(webml_[a-z_]+)"`)
	// Histogram families gain derived _quantile/_errors_total companions
	// at exposition time; vecs are built via NewHistogramVec or (for the
	// controller's action vec) by stamping Name on an embedded vec.
	vecRe := regexp.MustCompile(`(?:NewHistogramVec\(|\.Name = )"(webml_[a-z_]+)"`)
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range nameRe.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
		for _, m := range vecRe.FindAllSubmatch(src, -1) {
			names[string(m[1])+"_quantile"] = true
			names[string(m[1])+"_errors_total"] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func sortedDiff(a, b map[string]bool) []string {
	var out []string
	for n := range a {
		if !b[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// TestMetricsDocMatchesCode diffs docs/METRICS.md against the code's
// metric inventory in both directions: every family the code can emit
// must be documented, and every documented family must still exist in
// the code.
func TestMetricsDocMatchesCode(t *testing.T) {
	code := metricNamesInSource(t)
	if len(code) < 50 {
		t.Fatalf("source scan found only %d families — scan broken?", len(code))
	}
	doc, err := os.ReadFile("docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	docNames := map[string]bool{}
	for _, m := range regexp.MustCompile("`(webml_[a-z_]+)`").FindAllSubmatch(doc, -1) {
		docNames[string(m[1])] = true
	}
	if miss := sortedDiff(code, docNames); len(miss) > 0 {
		t.Errorf("families in code but missing from docs/METRICS.md:\n  %s", strings.Join(miss, "\n  "))
	}
	if stale := sortedDiff(docNames, code); len(stale) > 0 {
		t.Errorf("families documented in docs/METRICS.md but absent from code:\n  %s", strings.Join(stale, "\n  "))
	}
}

// TestMetricsExpositionDocumented drives an everything-enabled stack
// and checks that every family actually exposed at /metrics (web tier
// and container tier) is documented — the live-scrape complement of
// the source diff.
func TestMetricsExpositionDocumented(t *testing.T) {
	doc, err := os.ReadFile("docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	docNames := map[string]bool{}
	for _, m := range regexp.MustCompile("`(webml_[a-z_]+)`").FindAllSubmatch(doc, -1) {
		docNames[string(m[1])] = true
	}

	app, err := New(fixture.Figure1Model(),
		WithBeanCache(256),
		WithEdgeCache(256, time.Minute),
		WithElasticFleet(1, 2, 8),
		WithAdmission(8, 16),
		WithRetries(2),
		WithDegradedServing(time.Minute),
		WithFaults(fault.Schedule{Seed: 1}),
		WithObservability(time.Hour, time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if err := fixture.Seed(app.DB); err != nil {
		t.Fatal(err)
	}
	if rr, body := request(t, app.Handler(), "/page/volumePage?volume=1", ""); rr.Code != 200 {
		t.Fatalf("page = %d %s", rr.Code, body)
	}
	if rr, body := request(t, app.Controller, "/page/volumePage?volume=2", ""); rr.Code != 200 {
		t.Fatalf("controller page = %d %s", rr.Code, body)
	}

	typeRe := regexp.MustCompile(`(?m)^# TYPE (webml_[a-z_]+) `)
	check := func(src, body string) {
		t.Helper()
		for _, m := range typeRe.FindAllStringSubmatch(body, -1) {
			if !docNames[m[1]] {
				t.Errorf("%s exposes undocumented family %s", src, m[1])
			}
		}
	}
	rr, body := request(t, app.MetricsHandler(), "/metrics", "")
	if rr.Code != 200 {
		t.Fatalf("/metrics = %d", rr.Code)
	}
	check("web tier", body)
	// The cache families carry exactly the paper's two levels.
	levels := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^webml_cache_hits_total\{cache="(\w+)"\}`).FindAllStringSubmatch(body, -1) {
		levels[m[1]] = true
	}
	if len(levels) != 2 || !levels["bean"] || !levels["edge"] {
		t.Errorf("webml_cache_hits_total levels %v, want bean and edge", levels)
	}

	ctr, _, err := app.DeployContainer(4, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	rr2, ctrBody := request(t, ctr.MetricsRegistry(), "/metrics", "")
	if rr2.Code != 200 {
		t.Fatalf("container /metrics = %d", rr2.Code)
	}
	check("container tier", ctrBody)
}
