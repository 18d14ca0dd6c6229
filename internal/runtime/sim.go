package runtime

import (
	"fmt"
	"sync"

	"ipa/internal/clock"
	"ipa/internal/store"
)

// SimCluster adapts the deterministic simulator-backed store.Cluster to
// the backend-agnostic Cluster interface. It adds almost no behaviour —
// replicas are the store's own, faults delegate to the store's hooks.
// The one piece of state it does keep is the crash/pause overlay: the
// store has a single boolean pause per site, while the Lifecycle surface
// models Crash as a pause-shaped fault that can overlap an ordinary
// SetPaused window — Recover during a live pause must leave the site
// paused.
type SimCluster struct {
	c *store.Cluster

	mu      sync.Mutex
	crashed map[clock.ReplicaID]bool
	paused  map[clock.ReplicaID]bool
}

// NewSimCluster wraps an existing simulator-backed cluster.
func NewSimCluster(c *store.Cluster) *SimCluster {
	return &SimCluster{
		c:       c,
		crashed: map[clock.ReplicaID]bool{},
		paused:  map[clock.ReplicaID]bool{},
	}
}

// applyPause pushes the combined crash|pause state for one site down to
// the store's single pause bit; mu held.
func (s *SimCluster) applyPause(id clock.ReplicaID) {
	s.c.SetPaused(id, s.crashed[id] || s.paused[id])
}

// Replicas implements Cluster.
func (s *SimCluster) Replicas() []clock.ReplicaID { return s.c.Replicas() }

// Replica implements Cluster.
func (s *SimCluster) Replica(id clock.ReplicaID) Replica { return s.c.Replica(id) }

// Stabilize implements Cluster.
func (s *SimCluster) Stabilize() clock.Vector { return s.c.Stabilize() }

// Settle implements Cluster: it runs the simulation's event loop dry,
// which delivers everything in flight (in virtual time).
func (s *SimCluster) Settle() error {
	s.c.Sim().Run()
	return nil
}

// Close implements Cluster. The simulator holds no external resources.
func (s *SimCluster) Close() error { return nil }

// SetPartitioned implements Faults.
func (s *SimCluster) SetPartitioned(a, b clock.ReplicaID, partitioned bool) {
	s.c.SetPartitioned(a, b, partitioned)
}

// SetPaused implements Faults. The pause composes with a concurrent
// crash window: the site resumes delivery only when both have lifted.
func (s *SimCluster) SetPaused(id clock.ReplicaID, paused bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if paused {
		s.paused[id] = true
	} else {
		delete(s.paused, id)
	}
	s.applyPause(id)
}

// Crash implements Lifecycle. The simulator's sites cannot lose state —
// messages buffer in virtual time and the store lives in one process —
// so a crash is modelled as the delivery pause it would look like from
// the outside: commits elsewhere buffer for the site until Recover.
func (s *SimCluster) Crash(id clock.ReplicaID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashed[id] = true
	s.applyPause(id)
	return nil
}

// Recover implements Lifecycle: the buffered backlog drains in causal
// order, exactly like a net-backend node replaying its log and catching
// up from its peers. A SetPaused window still open keeps the site
// paused — the crash and the pause are independent faults.
func (s *SimCluster) Recover(id clock.ReplicaID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.crashed, id)
	s.applyPause(id)
	return nil
}

// Join implements Lifecycle. The simulator's membership is fixed at
// construction (the wan topology and stability membership are wired
// in), so elastic joins are a net-backend capability.
func (s *SimCluster) Join(id, donor clock.ReplicaID) error {
	return fmt.Errorf("runtime: sim backend has fixed membership, cannot join %q", id)
}

// Decommission implements Lifecycle; fixed membership, like Join.
func (s *SimCluster) Decommission(id clock.ReplicaID) error {
	return fmt.Errorf("runtime: sim backend has fixed membership, cannot decommission %q", id)
}
