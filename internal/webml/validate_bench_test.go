package webml_test

import (
	"testing"

	"webmlgo/internal/workload"
)

// BenchmarkValidateAcerEuro validates the paper's 556-page model, as
// Builder.Build does once per set-up: the model it returns is sealed, so
// codegen.New and webmlgo.New do not validate it again.
func BenchmarkValidateAcerEuro(b *testing.B) {
	m, err := workload.Generate(workload.AcerEuro())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
