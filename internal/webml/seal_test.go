package webml_test

import (
	"testing"

	"webmlgo"
	"webmlgo/internal/codegen"
	"webmlgo/internal/webml"
	"webmlgo/internal/workload"
)

// TestValidateOncePerSetUp: the model half of the benchmark's set-up —
// build the Acer-Euro model, generate the container's artifacts, assemble
// a styled web tier — validates the model exactly once.
func TestValidateOncePerSetUp(t *testing.T) {
	var n int
	defer webml.CountValidations(&n)()
	m, err := workload.Generate(workload.AcerEuro())
	if err != nil {
		t.Fatal(err)
	}
	g, err := codegen.New(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Generate(); err != nil {
		t.Fatal(err)
	}
	if _, err := webmlgo.New(m, webmlgo.WithCompiledStyle(webmlgo.B2CStyle())); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Validate ran %d times, want 1", n)
	}
}
