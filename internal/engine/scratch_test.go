package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ipa/internal/apps/tournament"
	"ipa/internal/clock"
	"ipa/internal/crdt"
	"ipa/internal/runtime"
	"ipa/internal/store"
	"ipa/internal/wan"
)

// raceEnabled is set by race_test.go: under -race, sync.Pool drops Puts
// on purpose, so pooled scratch is remade and the allocation gates do
// not hold.
var raceEnabled bool

// TestCallAllocs gates the compiled call path's allocations per call on
// the generic workload of every bundled spec (replication and periodic
// stabilization included): half of what calls made before they took
// their working memory from a pool, less the two a tournament, ticket
// or twitter call saved when a transaction came to share one dependency
// vector and stopped touching predicates nothing can falsify, less the
// one a twitter or tpcw call saved when its transaction sized its update
// slice from the plan.
func TestCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	bound := map[string]float64{"tournament": 27, "ticket": 18, "twitter": 30, "tpcw": 23}
	specs, err := bundledSpecs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			l := newGenericLoop(t, s, 1)
			for range 500 {
				l.call(t)
			}
			got := testing.AllocsPerRun(2000, func() { l.call(t) })
			t.Logf("%.1f allocs per call (bound %.0f)", got, bound[s.name])
			if got > bound[s.name] {
				t.Errorf("%.1f allocs per call, want at most %.0f", got, bound[s.name])
			}
		})
	}
}

// callOutcome renders a call's result for comparison: "ok" or the error
// text (refusal errors are deterministic, argument errors name the
// argument).
func callOutcome(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// siteStream is one site's deterministic call stream over its own
// players and tournaments: executed calls, refusals (ErrPrecondition,
// say a second begin or a finish of an inactive tournament) and argument
// errors (wrong arity, a reserved character, an empty value) mixed.
func siteStream(tag string, seed int64, n int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	pick := func(kind string, k int) string { return fmt.Sprintf("%s%s%d", kind, tag, rng.Intn(k)) }
	out := make([][]string, 0, n)
	for range n {
		var c []string
		switch rng.Intn(10) {
		case 0:
			c = []string{"add_player", pick("p", 4)}
		case 1:
			c = []string{"add_tourn", pick("t", 3)}
		case 2, 3:
			c = []string{"enroll", pick("p", 4), pick("t", 3)}
		case 4:
			c = []string{"disenroll", pick("p", 4), pick("t", 3)}
		case 5:
			c = []string{"begin_tourn", pick("t", 3)}
		case 6:
			c = []string{"finish_tourn", pick("t", 3)}
		case 7:
			c = []string{"do_match", pick("p", 4), pick("p", 4), pick("t", 3)}
		case 8:
			c = []string{"rem_tourn", pick("t", 3)}
		default:
			c = [][]string{
				{"enroll", pick("p", 4)},
				{"enroll", pick("p", 4) + "|x", pick("t", 3)},
				{"add_tourn", ""},
				{"no_such_op", pick("p", 4)},
			}[rng.Intn(4)]
		}
		out = append(out, c)
	}
	return out
}

// runStream issues the calls at r and returns their outcomes.
func runStream(app *App, r runtime.Replica, calls [][]string) []string {
	out := make([]string, len(calls))
	for i, c := range calls {
		out[i] = callOutcome(app.Call(r, c[0], c[1:]...))
	}
	return out
}

// TestConcurrentCallsShareNoScratch runs two sites' streams at once on
// one App, whose calls share one scratch pool, and holds every call's
// outcome to the same stream run alone on a fresh App — compiled, and on
// the reference interpreter, which never pools. The streams touch
// disjoint players and tournaments, so nothing the other site
// replicates can change an outcome: a difference is working memory one
// call left to another.
func TestConcurrentCallsShareNoScratch(t *testing.T) {
	const calls = 300
	ids := []clock.ReplicaID{"a", "b"}
	streams := map[clock.ReplicaID][][]string{"a": siteStream("a", 1, calls), "b": siteStream("b", 2, calls)}

	alone := func(calls [][]string, opts ...MountOption) []string {
		cluster := runtime.NewSimCluster(store.NewCluster(wan.NewSim(1), wan.PaperTopology(), ids))
		app, err := Mount(nil, tournament.Analysis(), cluster, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return runStream(app, cluster.Replica("a"), calls)
	}

	cluster, err := runtime.NewNetCluster(ids, runtime.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	app, err := Mount(nil, tournament.Analysis(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	got := map[clock.ReplicaID][]string{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := runStream(app, cluster.Replica(id), streams[id])
			mu.Lock()
			got[id] = out
			mu.Unlock()
		}()
	}
	wg.Wait()

	for _, id := range ids {
		kinds := map[string]int{}
		for _, o := range got[id] {
			kinds[o[:min(len(o), 20)]]++
		}
		if len(kinds) < 3 {
			t.Fatalf("site %s: stream exercised only %v", id, kinds)
		}
		for _, ref := range []struct {
			name string
			out  []string
		}{{"compiled", alone(streams[id])}, {"interpreted", alone(streams[id], WithInterpreter())}} {
			for i := range got[id] {
				if got[id][i] != ref.out[i] {
					t.Fatalf("site %s call %d %v: %q concurrently, %q alone (%s)",
						id, i, streams[id][i], got[id][i], ref.out[i], ref.name)
				}
			}
		}
	}
	if err := cluster.Settle(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if v := app.CheckInvariants(cluster.Replica(id)); len(v) > 0 {
			t.Fatalf("site %s: %v", id, v)
		}
	}
}

// TestWipePatternSurvivesLaterCalls pins the no-escape rule at its
// sharpest edge: the remove-where ops a disenroll commits keep their
// pattern slices (replicated, logged, indexed as tombstones), so 200
// later calls through the same pooled scratch must leave them — and,
// once everything is delivered, every site's state — exactly as the
// reference interpreter's unpooled run leaves its own.
func TestWipePatternSurvivesLaterCalls(t *testing.T) {
	type wipe struct {
		key    string
		fields []string
	}
	run := func(opts ...MountOption) (ops []crdt.RWRemoveWhereOp, want []wipe, digests []string) {
		sim := wan.NewSim(1)
		sc := store.NewCluster(sim, wan.PaperTopology(), []clock.ReplicaID{wan.USEast, wan.USWest, wan.EUWest})
		cluster := runtime.NewSimCluster(sc)
		app, err := Mount(nil, tournament.Analysis(), cluster, opts...)
		if err != nil {
			t.Fatal(err)
		}
		r := cluster.Replica(wan.USEast)
		var txns []store.WireTxn
		refusals := 0
		call := func(op string, args ...string) {
			err := app.Call(r, op, args...)
			if errors.Is(err, ErrPrecondition) && len(txns) > 0 {
				refusals++ // later calls may refuse; the setup may not
			} else if err != nil {
				t.Fatalf("%s%v: %v", op, args, err)
			}
		}
		for _, c := range [][]string{
			{"add_player", "p0"}, {"add_player", "p1"}, {"add_tourn", "t0"},
			{"enroll", "p0", "t0"}, {"enroll", "p1", "t0"}, {"begin_tourn", "t0"},
			{"do_match", "p0", "p1", "t0"},
		} {
			call(c[0], c[1:]...)
		}
		sim.Run()
		sc.SetOnCommit(func(w store.WireTxn) { txns = append(txns, w) })
		call("disenroll", "p0", "t0")
		sc.SetOnCommit(nil)
		for _, w := range txns {
			for i := range w.Updates {
				if op, ok := w.Updates[i].Op.(crdt.RWRemoveWhereOp); ok {
					ops = append(ops, op) // shares the committed op's slice
					want = append(want, wipe{w.Updates[i].Key, append([]string(nil), op.Pred.Fields...)})
				}
			}
		}
		if len(ops) != 2 {
			t.Fatalf("disenroll committed %d remove-where ops, want the two match wipes", len(ops))
		}
		// The ops are still in flight to the other sites.
		for i := range 200 {
			p, q, tn := fmt.Sprintf("q%d", i%7), fmt.Sprintf("q%d", (i+3)%7), fmt.Sprintf("u%d", i%5)
			switch i % 5 {
			case 0:
				call("add_player", p)
			case 1:
				call("add_tourn", tn)
			case 2:
				call("enroll", p, tn)
			case 3:
				call("begin_tourn", tn)
			case 4:
				call("do_match", p, q, tn)
			}
		}
		if refusals == 0 || refusals == 200 {
			t.Fatalf("%d of the 200 later calls refused, want a mix", refusals)
		}
		sim.Run()
		for _, id := range cluster.Replicas() {
			digests = append(digests, app.Digest(cluster.Replica(id)))
		}
		return ops, want, digests
	}
	ops, want, digests := run()
	for i, op := range ops {
		if !reflect.DeepEqual(op.Pred.Fields, want[i].fields) {
			t.Errorf("wipe on %s: pattern %q after later calls, %q at commit", want[i].key, op.Pred.Fields, want[i].fields)
		}
	}
	_, refWant, refDigests := run(WithInterpreter())
	if !reflect.DeepEqual(want, refWant) {
		t.Errorf("committed wipes %v, reference %v", want, refWant)
	}
	for i := range digests {
		if digests[i] != digests[0] {
			t.Errorf("site %d digest differs from site 0 after settle:\n%s\n%s", i, digests[i], digests[0])
		}
		if digests[i] != refDigests[i] {
			t.Errorf("site %d digest differs from the reference interpreter's:\n%s\n%s", i, digests[i], refDigests[i])
		}
	}
}
