package tournament

import (
	"testing"

	"ipa/internal/analysis"
	"ipa/internal/apps"
	"ipa/internal/spec"
)

// BenchmarkAnalysis times the search tournament.patched.spec records: one
// uncached analysis.Run with the Fig. 3 choices (Analysis caches it; this
// does not).
//
//	go test ./internal/apps/tournament -run '^$' -bench BenchmarkAnalysis -benchtime 3x
func BenchmarkAnalysis(b *testing.B) {
	s := Spec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Run(s, analysis.Options{Chooser: fig3Chooser}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPatchedCheck times what `ipa serve -app tournament` pays before
// it serves its first call: Alg. 1 run once over the checked-in patched
// spec (tournament.patched.spec), which finds nothing to repair.
//
//	go test ./internal/apps/tournament -run '^$' -bench BenchmarkPatchedCheck
func BenchmarkPatchedCheck(b *testing.B) {
	src, _ := apps.Patched("tournament")
	s := spec.MustParse(src)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Run(s, analysis.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
