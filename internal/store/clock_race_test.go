package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ipa/internal/clock"
)

// TestClockReadsDuringCommitAndDeliver reads Replica.Clock in a loop
// while local commits (remove-wins adds among them, which share their
// transaction's dependency vector) and remote deliveries advance the
// delivered cut. Every read must be the reader's own copy: sorted,
// monotone from one read to the next, and writable without the replica
// seeing the write. Run it under -race too: a vector the replica still
// writes that a reader holds is a data race.
func TestClockReadsDuringCommitAndDeliver(t *testing.T) {
	a := NewReplica("a")
	b := NewReplica("b")
	drain := pipeReplicas(t, a, b)

	const (
		writers = 2
		txnsPer = 150
	)
	var done atomic.Bool
	var readers, wg sync.WaitGroup
	for _, r := range []*Replica{a, b} {
		readers.Add(1)
		go func(r *Replica) {
			defer readers.Done()
			prev := r.Clock()
			for reads := 0; !done.Load() || reads < 100; reads++ {
				cur := r.Clock()
				for i := 1; i < len(cur); i++ {
					if cur[i-1].Replica >= cur[i].Replica {
						t.Errorf("%s: Clock() %v is not sorted", r.ID(), cur)
						return
					}
				}
				if !prev.LEq(cur) {
					t.Errorf("%s: Clock() went back from %v to %v", r.ID(), prev, cur)
					return
				}
				prev = cur
				mine := r.Clock()
				mine.Set("zz", 1<<40) // the copy is the reader's to write
			}
		}(r)
		for g := range writers {
			wg.Add(1)
			go func(r *Replica, g int) {
				defer wg.Done()
				for i := range txnsPer {
					tx := r.Begin()
					RWSetAt(tx, "rw").Add(fmt.Sprintf("%s-%d-%d", r.ID(), g, i), "")
					RWSetAt(tx, "rw").Touch(fmt.Sprintf("%s-%d-%d", r.ID(), g, i))
					CounterAt(tx, "c").Add(1)
					tx.Commit()
				}
			}(r, g)
		}
	}
	wg.Wait()
	drain()
	done.Store(true)
	readers.Wait()
	want := clock.Of(map[clock.ReplicaID]uint64{"a": 3 * writers * txnsPer, "b": 3 * writers * txnsPer})
	for _, r := range []*Replica{a, b} {
		if got := r.Clock(); !got.Equal(want) || got.Get("zz") != 0 {
			t.Fatalf("%s: final clock %v, want %v", r.ID(), got, want)
		}
	}
}
