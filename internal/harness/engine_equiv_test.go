package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ipa/internal/apps/ticket"
	"ipa/internal/apps/twitter"
	"ipa/internal/clock"
	"ipa/internal/engine"
	"ipa/internal/logic"
	"ipa/internal/runtime"
	"ipa/internal/store"
	"ipa/internal/wan"
)

// TestEngineMatchesHandCodedTournament is the spec-execution engine's
// acceptance gate: the same seeded chaos schedules — faults, partitions,
// pauses included — run once through the hand-coded IPA tournament and
// once through the engine executing the analyzed specification, and the
// two executors must land on digest-identical specification-level state
// at quiescence (with both passing every invariant and convergence
// check on the way). The generated executor then *is* the Fig. 3
// application.
func TestEngineMatchesHandCodedTournament(t *testing.T) {
	schedules := 30
	if testing.Short() {
		schedules = 8
	}
	cfgHand := Defaults("tournament")
	cfgEng := Defaults("tournament-spec")
	for i := 0; i < schedules; i++ {
		seed := ScheduleSeed(0x57EC, i)
		sHand, err := Generate(cfgHand, seed)
		if err != nil {
			t.Fatal(err)
		}
		sEng, err := Generate(cfgEng, seed)
		if err != nil {
			t.Fatal(err)
		}
		// The engine adapter reuses the hand-coded driver's generator, so
		// the schedules must agree op for op and fault for fault.
		if !reflect.DeepEqual(sHand.Ops, sEng.Ops) || !reflect.DeepEqual(sHand.Faults, sEng.Faults) {
			t.Fatalf("seed %#x: schedules diverge between the two executors", seed)
		}
		dHand, vHand, err := ExecuteDigest(sHand)
		if err != nil {
			t.Fatal(err)
		}
		if vHand != nil {
			t.Fatalf("seed %#x: hand-coded executor violated: %s", seed, vHand)
		}
		dEng, vEng, err := ExecuteDigest(sEng)
		if err != nil {
			t.Fatal(err)
		}
		if vEng != nil {
			t.Fatalf("seed %#x: engine executor violated: %s", seed, vEng)
		}
		if dHand == "" {
			t.Fatalf("seed %#x: empty digest", seed)
		}
		if dHand != dEng {
			t.Fatalf("seed %#x: executors diverge:\n  hand-coded: %s\n  engine:     %s", seed, dHand, dEng)
		}
	}
}

// TestCompiledMatchesInterpreterUnderChaos holds the compiled executor
// to the whole-state reference interpreter across full chaos schedules —
// faults, partitions, pauses included — for every spec-driven app: the
// same seeded schedule runs once per executor and must land on
// digest-identical state at quiescence with all checks green. Together
// with FuzzCompiledVsInterpreted (random specs, random call sequences)
// this pins the mount-time compilation pass to the executable semantics
// it was derived from.
func TestCompiledMatchesInterpreterUnderChaos(t *testing.T) {
	schedules := 12
	if testing.Short() {
		schedules = 4
	}
	for _, app := range []string{"tournament-spec", "twitter-spec", "ticket-spec"} {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			cfgC := Defaults(app)
			cfgI := Defaults(app)
			cfgI.Variant = "interp"
			for i := 0; i < schedules; i++ {
				seed := ScheduleSeed(0xD1FF, i)
				sC, err := Generate(cfgC, seed)
				if err != nil {
					t.Fatal(err)
				}
				sI, err := Generate(cfgI, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sC.Ops, sI.Ops) || !reflect.DeepEqual(sC.Faults, sI.Faults) {
					t.Fatalf("seed %#x: schedules diverge between executors", seed)
				}
				dC, vC, err := ExecuteDigest(sC)
				if err != nil {
					t.Fatal(err)
				}
				if vC != nil {
					t.Fatalf("seed %#x: compiled executor violated: %s", seed, vC)
				}
				dI, vI, err := ExecuteDigest(sI)
				if err != nil {
					t.Fatal(err)
				}
				if vI != nil {
					t.Fatalf("seed %#x: interpreter violated: %s", seed, vI)
				}
				if dC == "" || dC != dI {
					t.Fatalf("seed %#x: executors diverge:\n  compiled:    %s\n  interpreted: %s", seed, dC, dI)
				}
			}
		})
	}
}

// TestCompiledMatchesInterpreterOnWidePool repeats the differential on
// the tournament with 128 more seeded players than the generator ever
// names: the op stream is the narrow one, but every sort domain the
// reference executor enumerates is 131 wide, which is where binding a
// guard's variables by join differs most from the cross-product.
func TestCompiledMatchesInterpreterOnWidePool(t *testing.T) {
	if testing.Short() {
		t.Skip("the reference executor enumerates 131² bindings per guard")
	}
	t.Parallel()
	run := func(variant string, seed uint64) string {
		cfg := Defaults("tournament-spec")
		cfg.Variant = variant
		s, err := Generate(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		app, err := newTournamentSpecChaos(s.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		narrow := app.setup
		app.setup = func(a *specChaos, ctx *Ctx) {
			narrow(a, ctx)
			for i := 0; i < 128; i++ {
				specSeed(a, ctx.Replica(0), "add_player", fmt.Sprintf("w%d", i))
			}
		}
		digest, v, err := runSim(s, app)
		if err != nil {
			t.Fatal(err)
		}
		if v != nil {
			t.Fatalf("seed %#x: %s executor violated: %s", seed, variant, v)
		}
		return digest
	}
	seed := ScheduleSeed(0x71DE, 0)
	if dC, dI := run("ipa", seed), run("interp", seed); dC == "" || dC != dI {
		t.Fatalf("seed %#x: executors diverge:\n  compiled:    %s\n  interpreted: %s", seed, dC, dI)
	}
}

// equivCluster is one executor's backend in a hand-vs-engine run (the
// two executors get separate clusters of the same shape).
type equivCluster struct {
	cluster runtime.Cluster
	sites   []clock.ReplicaID
}

func (c equivCluster) replica(site int) runtime.Replica { return c.cluster.Replica(c.sites[site]) }

func newSimEquivCluster(seed int64) equivCluster {
	sites := wan.SiteIDs(3)
	sim := wan.NewSim(seed)
	return equivCluster{runtime.NewSimCluster(store.NewCluster(sim, wan.PaperTopology(), sites)), sites}
}

func newNetEquivCluster(t *testing.T) equivCluster {
	sites := wan.SiteIDs(3)
	cluster, err := runtime.NewNetCluster(sites, chaosNetConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	return equivCluster{cluster, sites}
}

// equivDigest renders an interpretation's true atoms, skipping the
// predicates outside the comparable fragment (the hand-coded layouts
// cannot represent every spec predicate independently — see
// twitter.Interp).
func equivDigest(in logic.Interp, skip map[string]bool) string {
	var atoms []string
	for atom, v := range in.Truth {
		if !v {
			continue
		}
		pred := atom
		if i := strings.IndexByte(atom, '('); i >= 0 {
			pred = atom[:i]
		}
		if skip[pred] {
			continue
		}
		atoms = append(atoms, atom)
	}
	sort.Strings(atoms)
	return strings.Join(atoms, " ")
}

// runTwitterHandVsEngine drives the hand-coded RemWins Twitter clone and
// the engine executing the rem-wins-analyzed specification
// (twitter.Analysis) through one seeded sequential-settled workload on
// separate clusters, then requires atom-identical logical state on every
// replica.
//
// The workload stays inside the fragment where the two implementations
// make the same programmer decisions. Core users u0–u3 tweet, retweet,
// follow, and delete tweets but are never removed; side users churn
// through add_user/rem_user but never publish — the hand rem_user purges
// by authorship (which the spec cannot express: author(w) is unary)
// while the spec's rem_user wipes the removed user's own rows, and the
// two coincide exactly on content-free users. Fan-out is the driver's
// job on the engine side: the hand Tweet/Retweet write every follower's
// timeline in one transaction, so the driver issues the spec's
// retweet(w, f) per follower read from the engine's own visible state —
// the same read the hand app performs.
func runTwitterHandVsEngine(t *testing.T, hand, eng equivCluster, seed int64, nops int) {
	handApp := twitter.New(twitter.RemWins)
	engApp, err := engine.Mount(nil, twitter.Analysis(), nil)
	if err != nil {
		t.Fatal(err)
	}
	settle := func() {
		if err := hand.cluster.Settle(); err != nil {
			t.Fatal(err)
		}
		if err := eng.cluster.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	// The workload is curated to never trip a guard, so any engine
	// refusal is an executor divergence, not a legitimate no-op.
	call := func(site int, op string, args ...string) {
		if err := engApp.Call(eng.replica(site), op, args...); err != nil {
			t.Fatalf("engine %s(%v) at site %d: %v", op, args, site, err)
		}
	}
	// engFollowers lists the users following u in the engine's visible
	// state at site (the engine-side twin of the hand app's followersOf).
	engFollowers := func(site int, u string) []string {
		in := engApp.Interp(eng.replica(site))
		var out []string
		for atom, v := range in.Truth {
			if v && strings.HasPrefix(atom, "follows(") && strings.HasSuffix(atom, ","+u+")") {
				out = append(out, strings.TrimSuffix(strings.TrimPrefix(atom, "follows("), ","+u+")"))
			}
		}
		sort.Strings(out)
		return out
	}

	core := []string{"u0", "u1", "u2", "u3"}
	for _, u := range core {
		handApp.AddUser(hand.replica(0), u)
		call(0, "add_user", u)
	}
	settle()

	type tweetRec struct{ id, author string }
	var live []tweetRec
	var sideLive []string
	nextTweet, nextSide := 0, 0
	rng := rand.New(rand.NewSource(seed))

	for i := 0; i < nops; i++ {
		site := rng.Intn(len(hand.sites))
		x := rng.Float64()
		switch {
		case x < 0.22: // tweet: fresh id, core author
			author := core[rng.Intn(len(core))]
			id := fmt.Sprintf("w%d", nextTweet)
			nextTweet++
			handApp.Tweet(hand.replica(site), author, id, "text")
			call(site, "tweet", id, author)
			for _, f := range engFollowers(site, author) {
				call(site, "retweet", id, f)
			}
			live = append(live, tweetRec{id, author})
		case x < 0.37: // retweet a live tweet
			if len(live) == 0 {
				continue
			}
			tw := live[rng.Intn(len(live))]
			u := core[rng.Intn(len(core))]
			handApp.Retweet(hand.replica(site), u, tw.id, tw.author)
			call(site, "retweet", tw.id, u)
			for _, f := range engFollowers(site, u) {
				call(site, "retweet", tw.id, f)
			}
		case x < 0.49: // delete a live tweet
			if len(live) == 0 {
				continue
			}
			j := rng.Intn(len(live))
			tw := live[j]
			live = append(live[:j], live[j+1:]...)
			handApp.DelTweet(hand.replica(site), tw.id, tw.author)
			call(site, "del_tweet", tw.id)
		case x < 0.64: // follow between distinct core users
			a, b := core[rng.Intn(len(core))], core[rng.Intn(len(core))]
			if a == b {
				continue
			}
			handApp.Follow(hand.replica(site), a, b)
			call(site, "follow", a, b)
		case x < 0.74: // unfollow
			a, b := core[rng.Intn(len(core))], core[rng.Intn(len(core))]
			if a == b {
				continue
			}
			handApp.Unfollow(hand.replica(site), a, b)
			call(site, "unfollow", a, b)
		case x < 0.85: // add a fresh side user
			u := fmt.Sprintf("s%d", nextSide)
			nextSide++
			sideLive = append(sideLive, u)
			handApp.AddUser(hand.replica(site), u)
			call(site, "add_user", u)
		default: // remove a side user (never re-added)
			if len(sideLive) == 0 {
				continue
			}
			j := rng.Intn(len(sideLive))
			u := sideLive[j]
			sideLive = append(sideLive[:j], sideLive[j+1:]...)
			handApp.RemUser(hand.replica(site), u)
			call(site, "rem_user", u)
		}
		settle()
	}

	// Deleted tweets leave dangling timeline entries that the hand
	// RemWins variant hides at read time; the engine's del_tweet wiped
	// them eagerly. Run the compensating reads, then compare.
	for _, u := range core {
		handApp.ReadTimeline(hand.replica(0), u)
	}
	settle()

	for site := range hand.sites {
		handDigest := equivDigest(twitter.Interp(hand.replica(site), twitter.RemWins), nil)
		engDigest := equivDigest(engApp.Interp(eng.replica(site)), map[string]bool{"author": true})
		if handDigest == "" {
			t.Fatalf("site %d: empty digest", site)
		}
		if handDigest != engDigest {
			t.Fatalf("site %d: executors diverge:\n  hand-coded: %s\n  engine:     %s", site, handDigest, engDigest)
		}
	}
}

// TestEngineMatchesHandCodedTwitter holds the engine executing the
// rem-wins-analyzed Twitter specification to the hand-coded RemWins
// variant on sequential-settled sim workloads (mirrors the tournament
// equivalence; see runTwitterHandVsEngine for the comparable fragment).
func TestEngineMatchesHandCodedTwitter(t *testing.T) {
	seeds := 6
	ops := 150
	if testing.Short() {
		seeds, ops = 2, 60
	}
	for i := 0; i < seeds; i++ {
		seed := int64(0x7317 + 977*i)
		runTwitterHandVsEngine(t, newSimEquivCluster(seed), newSimEquivCluster(seed+1), seed, ops)
	}
}

// TestEngineMatchesHandCodedTwitterNet repeats the Twitter executor
// equivalence on the netrepl backend (real sockets, sequential-settled).
func TestEngineMatchesHandCodedTwitterNet(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster per executor")
	}
	const ops = 50
	runTwitterHandVsEngine(t, newNetEquivCluster(t), newNetEquivCluster(t), 0x7A11, ops)
}

// runTicketHandVsEngine drives the hand-coded IPA FusionTicket (the
// Compensation Set: buys always succeed, reads cancel oversell and
// refund) and the engine executing the capacity-5 ticket specification
// (the synthesized trim-excess compensation) through one seeded
// sequential-settled workload, then compares per-event sold counts on
// every replica.
//
// The comparison is count-level: the two repair mechanisms cancel
// *different* tickets (the comp set cancels the newest, trim-excess the
// deterministically smallest) and the hand refund ledger has no spec
// counterpart, but both must land on the same per-event count —
// min(buys, capacity) — at quiescence. The buy volume is sized to drive
// every event past capacity, so the test fails if either repair
// mechanism stops cancelling.
func runTicketHandVsEngine(t *testing.T, hand, eng equivCluster, seed int64, nops int) {
	const capacity = 5
	events := []string{"ev0", "ev1"}
	handApp := ticket.New(ticket.IPA, capacity)
	handApp.Setup(hand.cluster, events)
	res, err := analyzeSpec(ticket.SpecSourceWithCapacity(capacity))
	if err != nil {
		t.Fatal(err)
	}
	engApp, err := engine.Mount(nil, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := engApp.Call(eng.replica(0), "add_event", e); err != nil {
			t.Fatal(err)
		}
	}
	settle := func() {
		if err := hand.cluster.Settle(); err != nil {
			t.Fatal(err)
		}
		if err := eng.cluster.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	settle()

	rng := rand.New(rand.NewSource(seed))
	buys := 0
	for i := 0; i < nops; i++ {
		site := rng.Intn(len(hand.sites))
		e := events[rng.Intn(len(events))]
		if rng.Float64() < 0.75 {
			buyer := fmt.Sprintf("b%d", rng.Intn(4))
			handApp.Buy(hand.replica(site), buyer, e)
			k := fmt.Sprintf("k%d", buys)
			buys++
			// The hand app always records the purchase and repairs later;
			// whether the engine refuses up front or trims at read time,
			// the quiescent count must come out the same.
			if err := engApp.Call(eng.replica(site), "buy", k, e); err != nil && !errors.Is(err, engine.ErrPrecondition) {
				t.Fatalf("engine buy(%s, %s) at site %d: %v", k, e, site, err)
			}
		} else {
			handApp.View(hand.replica(site), e)
			engApp.Repair(eng.replica(site))
		}
		settle()
	}

	// Quiescence: compensating reads everywhere, twice, like Quiesce.
	for round := 0; round < 2; round++ {
		for site := range hand.sites {
			for _, e := range events {
				handApp.View(hand.replica(site), e)
			}
			engApp.Repair(eng.replica(site))
		}
		settle()
	}

	engSold := func(site int, e string) int {
		in := engApp.Interp(eng.replica(site))
		n := 0
		for atom, v := range in.Truth {
			if v && strings.HasPrefix(atom, "sold(") && strings.HasSuffix(atom, ","+e+")") {
				n++
			}
		}
		return n
	}
	capped := 0
	for site := range hand.sites {
		for _, e := range events {
			h, g := handApp.Sold(hand.replica(site), e), engSold(site, e)
			if h != g {
				t.Fatalf("site %d event %s: executors diverge: hand-coded sold %d, engine sold %d", site, e, h, g)
			}
			if h > capacity {
				t.Fatalf("site %d event %s: oversold at quiescence (%d > %d)", site, e, h, capacity)
			}
			if h == capacity {
				capped++
			}
		}
	}
	if capped == 0 {
		t.Fatal("no event reached capacity — the workload never exercised the repair path")
	}
}

// TestEngineMatchesHandCodedTicket holds the engine executing the
// capacity-5 ticket specification to the hand-coded IPA FusionTicket on
// sequential-settled sim workloads (count-level equivalence of the two
// oversell-repair mechanisms; see runTicketHandVsEngine).
func TestEngineMatchesHandCodedTicket(t *testing.T) {
	seeds := 6
	ops := 60
	if testing.Short() {
		seeds, ops = 2, 40
	}
	for i := 0; i < seeds; i++ {
		seed := int64(0x71C4E7 + 977*i)
		runTicketHandVsEngine(t, newSimEquivCluster(seed), newSimEquivCluster(seed+1), seed, ops)
	}
}

// TestEngineMatchesHandCodedTicketNet repeats the ticket executor
// equivalence on the netrepl backend (real sockets, sequential-settled).
func TestEngineMatchesHandCodedTicketNet(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster per executor")
	}
	const ops = 40
	runTicketHandVsEngine(t, newNetEquivCluster(t), newNetEquivCluster(t), 0x71CE, ops)
}

// TestEngineMatchesHandCodedTournamentNet repeats the executor
// equivalence on the netrepl backend with the sequential-settled
// discipline (real sockets are not bit-deterministic under faults, so
// the fault-free totally ordered workload is the comparable one there).
func TestEngineMatchesHandCodedTournamentNet(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster per executor")
	}
	cfgHand := Defaults("tournament")
	cfgEng := Defaults("tournament-spec")
	cfgHand.Ops, cfgEng.Ops = 40, 40
	const seed = 0x1BA21
	dHand, err := BackendDigest(cfgHand, seed, runtime.BackendNet)
	if err != nil {
		t.Fatal(err)
	}
	dEng, err := BackendDigest(cfgEng, seed, runtime.BackendNet)
	if err != nil {
		t.Fatal(err)
	}
	if dHand == "" || dHand != dEng {
		t.Fatalf("executors diverge on netrepl:\n  hand-coded: %s\n  engine:     %s", dHand, dEng)
	}
}
