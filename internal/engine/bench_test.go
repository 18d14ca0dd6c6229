package engine

import (
	"fmt"
	"testing"

	"ipa/internal/apps/tournament"
	"ipa/internal/clock"
	"ipa/internal/runtime"
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
// named operation's calls. compiled/interpreted compare the executors on
// an idempotent enroll.
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
	for _, exec := range []struct {
		name string
		opts []MountOption
	}{{"compiled", nil}, {"interpreted", []MountOption{WithInterpreter()}}} {
		b.Run(exec.name, func(b *testing.B) {
			app, r := seededApp(b, 16, exec.opts...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := app.Call(r, "enroll", "p3", "t2"); err != nil {
					b.Fatal(err)
				}
			}
		})
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
