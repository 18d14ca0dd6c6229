package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"ipa/internal/clock"
	"ipa/internal/indigo"
	"ipa/internal/runtime"
	"ipa/internal/store"
	"ipa/internal/wan"
)

// App adapts one application to the chaos engine. An App instance is
// created fresh per schedule — once for generation (Gen may keep
// workload-side state such as circulating tweet ids) and once for
// execution (Apply may keep execution-side state such as placed orders).
//
// The check split mirrors the two repair mechanisms of the paper:
// MidCheck asserts only the invariants IPA restores at merge time
// (conflict-resolution repairs — they must hold in every causally
// consistent local state, at any instant); FinalCheck, which runs after
// Repair's compensating reads have executed and replicated, additionally
// asserts the invariants IPA restores at read time (compensations).
type App interface {
	// Gen materializes one random operation (Kind and Args; the engine
	// assigns At and Site).
	Gen(rng *rand.Rand) Op
	// Setup seeds the initial state; the engine drains replication after.
	Setup(ctx *Ctx)
	// Apply executes one materialized operation at a site.
	Apply(ctx *Ctx, op Op)
	// MidCheck reports violations of the continuously held invariants in
	// site's current local state.
	MidCheck(ctx *Ctx, site int) []string
	// Repair performs the application's compensating reads at site (the
	// read-triggered repairs of §4.2.2); a no-op for merge-repaired apps.
	Repair(ctx *Ctx, site int)
	// FinalCheck reports any invariant violation in site's state at
	// quiescence (after heal, drain, and Repair everywhere).
	FinalCheck(ctx *Ctx, site int) []string
	// Digest summarizes site's visible state; at quiescence all replicas
	// must digest identically (CRDT convergence).
	Digest(ctx *Ctx, site int) string
}

// newApp builds the adapter for cfg.App.
func newApp(cfg Config) (App, error) {
	if cfg.Variant == "interp" && !strings.HasPrefix(cfg.App, SpecAppPrefix) && !strings.HasSuffix(cfg.App, "-spec") {
		return nil, fmt.Errorf("harness: variant interp selects the spec-driven engine's reference executor; app %q is hand-coded", cfg.App)
	}
	if strings.HasPrefix(cfg.App, SpecAppPrefix) {
		return newSpecFileChaos(cfg)
	}
	switch cfg.App {
	case "tournament":
		return newTournamentChaos(cfg), nil
	case "tournament-spec":
		return newTournamentSpecChaos(cfg)
	case "twitter-spec":
		return newTwitterSpecChaos(cfg)
	case "ticket-spec":
		return newTicketSpecChaos(cfg)
	case "ticket":
		return newTicketChaos(cfg), nil
	case "twitter":
		if cfg.BreakOp != "" {
			return nil, fmt.Errorf("harness: -break unsupported for twitter (causal and rem-wins variants use different CRDT layouts)")
		}
		return newTwitterChaos(cfg), nil
	case "tpcw":
		return newTPCWChaos(cfg), nil
	case "escrow":
		if cfg.BreakOp != "" {
			return nil, fmt.Errorf("harness: -break unsupported for escrow")
		}
		return newEscrowChaos(cfg), nil
	default:
		return nil, fmt.Errorf("harness: unknown app %q (want %s, or %s<file>)",
			cfg.App, strings.Join(Apps(), ", "), SpecAppPrefix)
	}
}

// Apps lists the chaos-drivable application names. The -spec entries are
// the spec-driven engine executing the analyzed specification of the
// like-named hand-coded app; `spec:<file>` (not listed — it takes a
// path) drives any specification the same way.
func Apps() []string {
	return []string{"tournament", "tournament-spec", "ticket", "ticket-spec",
		"twitter", "twitter-spec", "tpcw", "escrow"}
}

// PortableApps lists the applications that run on every backend (escrow
// is coupled to the simulated latency model and stays sim-only).
func PortableApps() []string {
	return []string{"tournament", "tournament-spec", "ticket", "ticket-spec",
		"twitter", "twitter-spec", "tpcw"}
}

// Ctx is the execution context of one schedule: the backend cluster and
// the live fault state. On the sim backend Sim and Lat expose the
// discrete-event machinery; on the netrepl backend both are nil and the
// cluster runs on real sockets and wall-clock time.
type Ctx struct {
	Cfg Config
	// Sim and Lat are set on the sim backend only.
	Sim     *wan.Sim
	Lat     *wan.Latency
	Cluster runtime.Cluster
	Sites   []clock.ReplicaID
	// Esc is the escrow manager (escrow scenario, sim backend only).
	Esc *indigo.Escrow

	paused  []int              // pause depth per site (faults may overlap)
	crashed []int              // crash depth per site (faults may overlap)
	stalls  int                // active stability-stall windows
	part    map[[2]int]int     // partition depth per link
	delay   map[[2]int]float64 // delay factor product per link
	joins   map[string]int     // join depth per joiner id (windows may collide)
	joinIDs []string           // joiner ids in injection order (healAll determinism)
	healed  bool               // healAll closed every window; later heals are no-ops
	lifeErr error              // first lifecycle-operation failure
}

// NewCtx builds an execution context over an existing backend cluster,
// with no live faults.
func NewCtx(cfg Config, cluster runtime.Cluster, sites []clock.ReplicaID) *Ctx {
	return &Ctx{
		Cfg:     cfg,
		Cluster: cluster,
		Sites:   sites,
		paused:  make([]int, len(sites)),
		crashed: make([]int, len(sites)),
		part:    map[[2]int]int{},
		delay:   map[[2]int]float64{},
		joins:   map[string]int{},
	}
}

// newCtx builds the simulated deployment for a schedule.
func newCtx(s *Schedule) *Ctx {
	rng := rand.New(rand.NewSource(int64(s.Seed) ^ 0x5DEECE66D))
	sim := wan.NewSimFromRand(rng)
	lat := wan.PaperTopology()
	sites := wan.SiteIDs(s.Cfg.Replicas)
	ctx := NewCtx(s.Cfg, runtime.NewSimCluster(store.NewCluster(sim, lat, sites)), sites)
	ctx.Sim = sim
	ctx.Lat = lat
	if s.Cfg.App == "escrow" {
		ctx.Esc = indigo.NewEscrow(lat, sites)
		ctx.Esc.Partitioned = func(a, b clock.ReplicaID) bool {
			return ctx.partitionedIDs(a, b)
		}
	}
	return ctx
}

// Replica returns the backend replica of a site index.
func (c *Ctx) Replica(site int) runtime.Replica { return c.Cluster.Replica(c.Sites[site]) }

// noteLifeErr records the first lifecycle-operation failure. Fault
// injection has no error channel (faults are fire-and-forget timeline
// events), but a failed Recover or Join is a harness bug, not a finding
// about the application — Quiesce surfaces it as a run error instead of
// letting the settle phase time out cryptically.
func (c *Ctx) noteLifeErr(err error) {
	if c.lifeErr == nil {
		c.lifeErr = err
	}
}

// LifecycleErr returns the first lifecycle-operation failure, if any.
func (c *Ctx) LifecycleErr() error { return c.lifeErr }

// Paused reports whether a site is currently paused or crashed — either
// way its clients are down with it and issue no operations.
func (c *Ctx) Paused(site int) bool { return c.paused[site] > 0 || c.crashed[site] > 0 }

// Crashed reports whether a site is currently inside a crash window. Its
// state is frozen (sim) or gone (netrepl) — invariant checks skip it.
func (c *Ctx) Crashed(site int) bool { return c.crashed[site] > 0 }

func link(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func (c *Ctx) partitionedIDs(a, b clock.ReplicaID) bool {
	ai, bi := -1, -1
	for i, s := range c.Sites {
		if s == a {
			ai = i
		}
		if s == b {
			bi = i
		}
	}
	if ai < 0 || bi < 0 {
		return false
	}
	return c.part[link(ai, bi)] > 0
}

// inject applies one fault window's start. Delay faults are a latency
// model property and exist on the sim backend only; other backends treat
// them as no-ops (the schedule stays valid, the spike just has no dial to
// turn on real sockets).
func (c *Ctx) inject(f Fault) {
	switch f.Kind {
	case FaultPartition:
		k := link(f.A, f.B)
		c.part[k]++
		if c.part[k] == 1 {
			c.Cluster.SetPartitioned(c.Sites[f.A], c.Sites[f.B], true)
		}
	case FaultDelay:
		if c.Lat == nil {
			return
		}
		k := link(f.A, f.B)
		if c.delay[k] == 0 {
			c.delay[k] = 1
		}
		c.delay[k] *= f.Factor
		c.Lat.SetScale(string(c.Sites[f.A]), string(c.Sites[f.B]), c.delay[k])
	case FaultPause:
		c.paused[f.A]++
		if c.paused[f.A] == 1 {
			c.Cluster.SetPaused(c.Sites[f.A], true)
		}
	case FaultStall:
		c.stalls++
	case FaultCrash:
		c.crashed[f.A]++
		if c.crashed[f.A] == 1 {
			if err := c.Cluster.Crash(c.Sites[f.A]); err != nil {
				c.noteLifeErr(err)
			}
		}
	case FaultJoin:
		// Elastic membership is a netrepl capability; on the sim's fixed
		// membership the window is a no-op (like delay spikes on real
		// sockets).
		if c.Sim != nil {
			return
		}
		id := joinerID(f)
		if c.joins[id]++; c.joins[id] > 1 {
			return // colliding window: the site is already joining/joined
		}
		donor := c.liveDonor(f.A)
		if donor < 0 {
			delete(c.joins, id) // every member crashed: nothing to bootstrap from
			return
		}
		c.joinIDs = append(c.joinIDs, id)
		if err := c.Cluster.Join(clock.ReplicaID(id), c.Sites[donor]); err != nil {
			c.noteLifeErr(err)
		}
	}
}

// joinerID derives the joining site's name from its fault window. Pure
// schedule data, so replays join (and decommission) the same site.
func joinerID(f Fault) string { return fmt.Sprintf("joiner-%dus-%d", int64(f.At), f.A) }

// liveDonor picks the bootstrap donor for a join: the fault's A site if
// it is up, otherwise the first live member; -1 when every site is down.
func (c *Ctx) liveDonor(a int) int {
	if c.crashed[a] == 0 {
		return a
	}
	for i := range c.Sites {
		if c.crashed[i] == 0 {
			return i
		}
	}
	return -1
}

// heal undoes one fault window's start. After healAll it is a no-op: the
// sim runs the heals of windows that end past the horizon while Quiesce
// drains its event loop, and healAll has closed those windows already.
func (c *Ctx) heal(f Fault) {
	if c.healed {
		return
	}
	switch f.Kind {
	case FaultPartition:
		k := link(f.A, f.B)
		c.part[k]--
		if c.part[k] == 0 {
			c.Cluster.SetPartitioned(c.Sites[f.A], c.Sites[f.B], false)
		}
	case FaultDelay:
		if c.Lat == nil {
			return
		}
		k := link(f.A, f.B)
		c.delay[k] /= f.Factor
		factor := c.delay[k]
		if factor < 1.000001 { // float round-off: treat ~1 as healed
			factor = 1
			delete(c.delay, k)
		}
		c.Lat.SetScale(string(c.Sites[f.A]), string(c.Sites[f.B]), factor)
	case FaultPause:
		c.paused[f.A]--
		if c.paused[f.A] == 0 {
			c.Cluster.SetPaused(c.Sites[f.A], false)
		}
	case FaultStall:
		c.stalls--
	case FaultCrash:
		c.crashed[f.A]--
		if c.crashed[f.A] == 0 {
			if err := c.Cluster.Recover(c.Sites[f.A]); err != nil {
				c.noteLifeErr(err)
			}
		}
	case FaultJoin:
		if c.Sim != nil {
			return
		}
		id := joinerID(f)
		if _, ok := c.joins[id]; !ok {
			return // the matching inject never ran (all sites were down)
		}
		if c.joins[id]--; c.joins[id] > 0 {
			return
		}
		delete(c.joins, id)
		c.joinIDs = removeString(c.joinIDs, id)
		if err := c.Cluster.Decommission(clock.ReplicaID(id)); err != nil {
			c.noteLifeErr(err)
		}
	}
}

// removeString drops the first occurrence of s, preserving order.
func removeString(list []string, s string) []string {
	for i, v := range list {
		if v == s {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// healAll force-clears every live fault (quiescence). Links heal in
// sorted order — healing flushes buffered messages, and a map-ordered
// flush would make replays nondeterministic. Crashed sites recover
// first: a dead member never converges, so Settle would time out, and
// link heals tracked while it was down take effect on the new instance.
func (c *Ctx) healAll() {
	c.healed = true
	for i := range c.crashed {
		if c.crashed[i] > 0 {
			if err := c.Cluster.Recover(c.Sites[i]); err != nil {
				c.noteLifeErr(err)
			}
		}
		c.crashed[i] = 0
	}
	for _, id := range c.joinIDs {
		if c.joins[id] > 0 {
			if err := c.Cluster.Decommission(clock.ReplicaID(id)); err != nil {
				c.noteLifeErr(err)
			}
		}
		delete(c.joins, id)
	}
	c.joinIDs = nil
	for _, k := range sortedLinks(c.part) {
		if c.part[k] > 0 {
			c.Cluster.SetPartitioned(c.Sites[k[0]], c.Sites[k[1]], false)
		}
		delete(c.part, k)
	}
	for _, k := range sortedLinks(c.delay) {
		if c.Lat != nil {
			c.Lat.ClearScale(string(c.Sites[k[0]]), string(c.Sites[k[1]]))
		}
		delete(c.delay, k)
	}
	for i := range c.paused {
		if c.paused[i] > 0 {
			c.Cluster.SetPaused(c.Sites[i], false)
		}
		c.paused[i] = 0
	}
	c.stalls = 0
}

// sortedLinks returns a map's link keys in deterministic order.
func sortedLinks[V any](m map[[2]int]V) [][2]int {
	keys := make([][2]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// digestList renders a sorted string list compactly for state digests.
func digestList(name string, elems []string) string {
	s := append([]string(nil), elems...)
	sort.Strings(s)
	return name + "{" + strings.Join(s, ",") + "}"
}
