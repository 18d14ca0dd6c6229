package runtime

import (
	goruntime "runtime"
	"slices"
	"testing"
	"time"

	"ipa/internal/store"
)

// BenchmarkVisibility times how long a commit at one site of a 3-site
// NetCluster (default transport settings) takes to be covered by
// another site's delivered cut, polling Replica.Clock at the second
// site. Each op is one commit plus the wait; p50_us and p99_us are the
// wait's percentiles.
//
// The poller matters on a small machine. One that yields with Gosched
// keeps a core busy copying clocks and competes with the sender and
// receiver goroutines it is waiting for, so the cheaper a Clock read is
// the more it crowds out replication; one that sleeps 20 µs between
// reads leaves the cores to replication and measures the transport.
// Compare runs by the sleep poller.
func BenchmarkVisibility(b *testing.B) {
	for _, p := range []struct {
		name  string
		yield func()
	}{
		{"sleep20us", func() { time.Sleep(20 * time.Microsecond) }},
		{"gosched", goruntime.Gosched},
	} {
		b.Run(p.name, func(b *testing.B) {
			c, err := NewNetCluster(testIDs(3), NetConfig{})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			ids := c.Replicas()
			from, to := c.Replica(ids[0]), c.Replica(ids[1])
			waits := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for range b.N {
				tx := from.Begin()
				store.CounterAt(tx, "n").Add(1)
				tx.Commit()
				t0 := time.Now()
				for cut := from.Clock(); !cut.LEq(to.Clock()); {
					p.yield()
				}
				waits = append(waits, time.Since(t0))
			}
			b.StopTimer()
			slices.Sort(waits)
			b.ReportMetric(float64(waits[len(waits)/2].Microseconds()), "p50_us")
			b.ReportMetric(float64(waits[len(waits)*99/100].Microseconds()), "p99_us")
		})
	}
}
