package harness

import (
	"fmt"
	"testing"
)

// BenchmarkChaosSchedule times the harness's unit of work — generate
// one schedule of the default shape (60 ops, 6 fault windows over a 3 s
// virtual horizon) and execute it in the simulator — for every app on 3-
// and 5-replica clusters. The harness is every change's regression net,
// so how many schedules a CI minute buys is tracked like any hot path.
// A violation fails the benchmark: it is a finding, not a timing.
func BenchmarkChaosSchedule(b *testing.B) {
	for _, app := range Apps() {
		for _, replicas := range []int{3, 5} {
			b.Run(fmt.Sprintf("%s/%d", app, replicas), func(b *testing.B) {
				cfg := Defaults(app)
				cfg.Replicas = replicas
				run := func(i int) {
					s, err := Generate(cfg, ScheduleSeed(42, i))
					if err != nil {
						b.Fatal(err)
					}
					v, err := Execute(s)
					if err != nil {
						b.Fatal(err)
					}
					if v != nil {
						b.Fatalf("violation (seed %#x): %s", s.Seed, v)
					}
				}
				// Schedule 0 warms up: the spec-driven apps analyze and
				// mount their spec once per process.
				run(0)
				b.ResetTimer()
				for i := range b.N {
					run(i + 1)
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "schedules/s")
			})
		}
	}
}
