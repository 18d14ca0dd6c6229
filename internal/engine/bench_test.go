package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"ipa/internal/analysis"
	"ipa/internal/apps/ticket"
	"ipa/internal/apps/tournament"
	"ipa/internal/apps/tpcw"
	"ipa/internal/apps/twitter"
	"ipa/internal/clock"
	"ipa/internal/runtime"
	"ipa/internal/spec"
	"ipa/internal/store"
	"ipa/internal/wan"
)

// seededApp mounts the tournament spec on a fresh two-replica sim
// cluster and seeds a serving state, settled across both replicas:
// `players` players, four tournaments with six enrolments each and one
// match, t0 active. Only the player pool varies, so whatever differs
// between two pools is the price of state the calls do not touch.
func seededApp(tb testing.TB, players int, opts ...MountOption) (*App, runtime.Replica) {
	tb.Helper()
	sim := wan.NewSim(1)
	cluster := runtime.NewSimCluster(store.NewCluster(sim, wan.PaperTopology(),
		[]clock.ReplicaID{"a", "b"}))
	app, err := Mount(tournament.Spec(), tournament.Analysis(), cluster, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	r := cluster.Replica("a")
	call := func(op string, args ...string) {
		tb.Helper()
		if err := app.Call(r, op, args...); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < players; i++ {
		call("add_player", fmt.Sprintf("p%d", i))
	}
	for i := 0; i < 4; i++ {
		t := fmt.Sprintf("t%d", i)
		call("add_tourn", t)
		for j := 0; j < 6; j++ {
			call("enroll", fmt.Sprintf("p%d", (i+j)%8), t)
		}
		call("begin_tourn", t)
		call("do_match", fmt.Sprintf("p%d", i), fmt.Sprintf("p%d", i+1), t)
		if i > 0 {
			call("finish_tourn", t)
		}
	}
	sim.Run()
	return app, r
}

// lifecycle is one tournament's life on the seeded state, each step a
// call whose guard joins: created, two players enrolled, begun, a match
// played, finished (the match is there for the guard to find),
// both players disenrolled (each wiping its side of the match), removed.
// It leaves the state as it found it, so it repeats; around measures
// each call.
var lifecycle = [][]string{
	{"add_tourn", "cup"},
	{"enroll", "p0", "cup"},
	{"enroll", "p1", "cup"},
	{"begin_tourn", "cup"},
	{"do_match", "p0", "p1", "cup"},
	{"finish_tourn", "cup"},
	{"disenroll", "p0", "cup"},
	{"disenroll", "p1", "cup"},
	{"rem_tourn", "cup"},
}

func runLifecycle(tb testing.TB, app *App, r runtime.Replica, around func(op string, call func())) {
	for _, c := range lifecycle {
		around(c[0], func() {
			if err := app.Call(r, c[0], c[1:]...); err != nil {
				tb.Fatalf("%v: %v", c, err)
			}
		})
	}
}

// BenchmarkEngineCall measures the call path per operation on a small
// and a wide player pool (the in-package twin of the serving benchmark's
// engine.<op>_ns, engine.wide_ns_per_call and engine.allocs_per_call
// ledger rows): each iteration runs one lifecycle and times only the
// named operation's calls.
func BenchmarkEngineCall(b *testing.B) {
	for _, pool := range []struct {
		name    string
		players int
	}{{"small", 8}, {"wide", 512}} {
		for _, op := range []string{"enroll", "do_match", "finish_tourn", "disenroll"} {
			b.Run(pool.name+"/"+op, func(b *testing.B) {
				app, r := seededApp(b, pool.players)
				b.ReportAllocs()
				b.ResetTimer()
				b.StopTimer()
				for i := 0; i < b.N; i++ {
					runLifecycle(b, app, r, func(name string, call func()) {
						if name != op {
							call()
							return
						}
						b.StartTimer()
						call()
						b.StopTimer()
					})
					// Replicate and stabilise, or the wipes' tombstones pile
					// up and the benchmark times unstable history instead.
					if i%16 == 15 {
						app.Cluster().Settle()
						app.Cluster().Stabilize()
					}
				}
			})
		}
	}
}

// BenchmarkEngineCheck measures CheckInvariants — every continuous
// clause evaluated by join — on both pools.
func BenchmarkEngineCheck(b *testing.B) {
	for _, players := range []int{8, 512} {
		b.Run(fmt.Sprintf("players=%d", players), func(b *testing.B) {
			app, r := seededApp(b, players)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v := app.CheckInvariants(r); len(v) > 0 {
					b.Fatal(v)
				}
			}
		})
	}
}

// TestCallCostIndependentOfUntouchedState is the scaling claim as a
// deterministic test: the joins of disenroll, finish_tourn and CHECK
// read the tuples they touch, so 504 more players that no enrolment or
// match mentions change neither the tuples read per call nor (within
// 2×) the allocations.
func TestCallCostIndependentOfUntouchedState(t *testing.T) {
	type cost struct {
		allocs float64
		tuples map[string]uint64 // per operation, summed over one run
	}
	measure := func(players int) map[string]cost {
		app, r := seededApp(t, players)
		counted := func(run func(around func(string, func()))) cost {
			c := cost{tuples: map[string]uint64{}}
			run(func(op string, call func()) {
				before := app.tuplesRead.Load()
				call()
				c.tuples[op] += app.tuplesRead.Load() - before
			})
			c.allocs = testing.AllocsPerRun(10, func() { run(func(_ string, call func()) { call() }) })
			return c
		}
		out := map[string]cost{
			"lifecycle": counted(func(around func(string, func())) { runLifecycle(t, app, r, around) }),
			"check": counted(func(around func(string, func())) {
				around("check", func() {
					if v := app.CheckInvariants(r); len(v) > 0 {
						t.Fatalf("check: %v", v)
					}
				})
			}),
		}
		for _, op := range app.Operations() {
			if ok, why := app.Compiled(op); !ok {
				t.Fatalf("%s not compiled: %s", op, why)
			}
			if fp := app.Footprint(op); len(fp) != 0 {
				t.Fatalf("%s extracts %v whole", op, fp)
			}
		}
		if s := app.Stats(); s != (Stats{}) {
			t.Fatalf("slow path taken on the tournament operations: %+v", s)
		}
		return out
	}
	small, wide := measure(8), measure(512)
	for name, s := range small {
		w := wide[name]
		t.Logf("%s: %.0f allocs, tuples read %v on 8 players; %.0f allocs, %v on 512", name, s.allocs, s.tuples, w.allocs, w.tuples)
		if w.allocs > 2*s.allocs || s.allocs > 2*w.allocs {
			t.Errorf("%s allocates %.0f times on 512 players, %.0f on 8", name, w.allocs, s.allocs)
		}
		for op, n := range s.tuples {
			if w.tuples[op] != n {
				t.Errorf("%s read %d tuples on 512 players, %d on 8: reads grow with state the call does not touch", op, w.tuples[op], n)
			}
		}
	}
}

// bundledSpec is one of the four application specifications with its
// analysis. The same analysis feeds both executors, so comparing them
// isolates plan execution.
type bundledSpec struct {
	name string
	spec *spec.Spec
	res  *analysis.Result
}

// bundledSpecs analyzes ticket and tpcw once per test binary (tournament
// and twitter ship their analyses).
var bundledSpecs = sync.OnceValues(func() ([]bundledSpec, error) {
	ticketRes, err := analysis.Run(ticket.Spec(), analysis.Options{})
	if err != nil {
		return nil, err
	}
	tpcwRes, err := analysis.Run(tpcw.Spec(), analysis.Options{})
	if err != nil {
		return nil, err
	}
	return []bundledSpec{
		{"tournament", tournament.Spec(), tournament.Analysis()},
		{"ticket", ticket.Spec(), ticketRes},
		{"twitter", twitter.Spec(), twitter.Analysis()},
		{"tpcw", tpcw.Spec(), tpcwRes},
	}, nil
})

// executors are the two ways to mount a spec: the compiled
// per-operation plans and the whole-state reference interpreter.
var executors = []struct {
	name string
	opts []MountOption
}{{"compiled", nil}, {"interpreted", []MountOption{WithInterpreter()}}}

// stabilizeEvery is genericLoop's stability cadence, in calls: like a
// deployed stability service it compacts remove-wins tombstones and dead
// add records while traffic flows, or metadata grows with run length and
// the loop times that growth instead of execution.
const stabilizeEvery = 64

// genericLoop serves the chaos harness's generic workload on one mount:
// operations drawn uniformly, arguments from three-element pools per
// sort, so footprints keep colliding and calls exercise guards and
// repairs rather than empty-state fast paths. It runs on a fresh 3-site
// sim, round-robins the sites, drains replication after every call and
// stabilizes every stabilizeEvery calls. The draws do not depend on
// outcomes, so two loops with one seed issue the same calls. Refused
// preconditions count as served calls: both executors evaluate the same
// guards on the same states.
type genericLoop struct {
	app     *App
	sim     *wan.Sim
	cluster *runtime.SimCluster
	sites   []runtime.Replica
	ops     []string
	pools   map[string][][]string // per operation, one pool per parameter
	rng     *rand.Rand
	calls   int
}

func newGenericLoop(tb testing.TB, s bundledSpec, seed int64, opts ...MountOption) *genericLoop {
	tb.Helper()
	sim := wan.NewSim(seed)
	cluster := runtime.NewSimCluster(store.NewCluster(sim, wan.PaperTopology(),
		[]clock.ReplicaID{wan.USEast, wan.USWest, wan.EUWest}))
	app, err := Mount(s.spec, s.res, cluster, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	l := &genericLoop{app: app, sim: sim, cluster: cluster, ops: app.Operations(),
		pools: map[string][][]string{}, rng: rand.New(rand.NewSource(seed))}
	for _, id := range cluster.Replicas() {
		l.sites = append(l.sites, cluster.Replica(id))
	}
	for _, name := range l.ops {
		op, _ := app.Spec().Operation(name)
		for _, p := range op.Params {
			base := strings.ToLower(string(p.Sort))
			l.pools[name] = append(l.pools[name], []string{base + "0", base + "1", base + "2"})
		}
	}
	return l
}

// call issues the next call of the sequence.
func (l *genericLoop) call(tb testing.TB) {
	name := l.ops[l.rng.Intn(len(l.ops))]
	args := make([]string, len(l.pools[name]))
	for i, pool := range l.pools[name] {
		args[i] = pool[l.rng.Intn(len(pool))]
	}
	if err := l.app.Call(l.sites[l.calls%len(l.sites)], name, args...); err != nil && !errors.Is(err, ErrPrecondition) {
		tb.Fatalf("%s%v: %v", name, args, err)
	}
	l.sim.Run()
	l.calls++
	if l.calls%stabilizeEvery == 0 {
		l.cluster.Stabilize()
	}
}

// BenchmarkEngineExecutors compares the executors on every bundled spec
// under the generic workload; ns/op and allocs/op are per call,
// replication and the periodic stabilization included. The ratio of the
// two executors is what EXPERIMENTS.md records; its deterministic form
// is TestCompiledAllocatesLessThanInterpreter.
func BenchmarkEngineExecutors(b *testing.B) {
	specs, err := bundledSpecs()
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range specs {
		for _, ex := range executors {
			b.Run(s.name+"/"+ex.name, func(b *testing.B) {
				l := newGenericLoop(b, s, 1, ex.opts...)
				// Warm-up populates the tiny domains (early calls mostly
				// refuse into an empty state) and takes the one-time
				// mount and caching costs out of the measurement.
				for range 500 {
					l.call(b)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					l.call(b)
				}
			})
		}
	}
}

// TestCompiledAllocatesLessThanInterpreter is the compiled executor's
// gate, in deterministic form: on every bundled spec, the same seeded
// call sequence on identical sims runs entirely on compiled plans — no
// fallback, no domain enumeration — and allocates per call at most
// 1/minAllocRatio of what the reference interpreter allocates. A
// compilation pass that stops paying for itself (plans falling back, or
// compiled calls routed through whole-state evaluation) fails here, not
// in a noisy wall-clock ratio.
func TestCompiledAllocatesLessThanInterpreter(t *testing.T) {
	const minAllocRatio = 1.5
	specs, err := bundledSpecs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			var allocs [2]float64
			for i, ex := range executors {
				l := newGenericLoop(t, s, 1, ex.opts...)
				for range 500 {
					l.call(t)
				}
				allocs[i] = testing.AllocsPerRun(2000, func() { l.call(t) })
				if ex.name != "compiled" {
					continue
				}
				for _, op := range l.ops {
					if ok, why := l.app.Compiled(op); !ok {
						t.Errorf("%s not compiled: %s", op, why)
					}
				}
				if st := l.app.Stats(); st != (Stats{}) {
					t.Errorf("compiled mount took the slow path: %+v", st)
				}
			}
			ratio := allocs[1] / allocs[0]
			t.Logf("allocs per call: compiled %.1f, interpreted %.1f (%.2fx)", allocs[0], allocs[1], ratio)
			if ratio < minAllocRatio {
				t.Errorf("interpreter allocates %.2fx what the compiled executor does per call, want at least %.1fx", ratio, minAllocRatio)
			}
		})
	}
}
