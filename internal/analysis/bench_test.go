package analysis_test

import (
	"testing"

	"ipa/internal/analysis"
)

// BenchmarkRun times one full IPA loop (analysis.Run with the default
// chooser) per bundled specification:
//
//	go test ./internal/analysis -run '^$' -bench BenchmarkRun -benchtime 3x
func BenchmarkRun(b *testing.B) {
	for _, name := range []string{"quickstart", "ticket", "tournament", "tpcw", "twitter"} {
		s := goldenSpecs(b)[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := analysis.Run(s, analysis.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
