package main

import (
	"math/rand"
	"strconv"
)

// A workload is one traffic mix against one deployment of `ipa serve`.
// The op mixes and pools are literal tables owned by the benchmark: they
// must not drift when the repository's own load generators change, or
// numbers from two commits stop being comparable.
type workload struct {
	name string
	why  string // one line, repeated in BENCHMARK.json

	sites     int  // -sites
	durable   bool // -data-dir, plus the kill + restart digest check
	stabilize bool // conn 0 sends STABILIZE every stabilizeEvery of its batches
	// episodeCalls, when nonzero, replaces the timed window with one
	// episode of this many calls (split across the connections) per
	// second of -seconds, the store compacted between episodes: the
	// unstable history, and hence memory, is then set by the workload and
	// not by how fast the host is.
	episodeCalls int

	pools pools
}

// pools are the argument domains of the mix. Enrolment only ever draws
// from the first enrolPlayers players: the spec's Capacity is 8, and
// engine.trimExcess still drops inMatch cascades when a tournament goes
// over it, so a wider enrolling pool would measure a known hole.
type pools struct {
	seedPlayers, seedTourns int // state seeded before the window
	addPlayers, addTourns   int // add_player / add_tourn argument pools
	tourns                  int // every other tournament argument
}

const (
	enrolPlayers   = 8
	connections    = 2
	pipelineDepth  = 8
	stabilizeEvery = 32 // conn-0 batches between STABILIZE round trips (≈ 512 fleet calls)
	appName        = "tournament"
	seedStride     = 7919 // conn i generates from seed + seedStride·i
)

var (
	smallPools = pools{seedPlayers: 8, seedTourns: 4, addPlayers: 64, addTourns: 8, tourns: 4}
	widePools  = pools{seedPlayers: 512, seedTourns: 16, addPlayers: 512, addTourns: 16, tourns: 16}
)

var workloads = []workload{
	{
		name: "serve-steady", sites: 3, stabilize: true, pools: smallPools,
		why: "3 sites in memory with an operator stabilising: every layer takes part and none dominates",
	},
	{
		name: "serve-unattended", sites: 3, episodeCalls: 8000, pools: smallPools,
		why: "nobody sends STABILIZE while 8,000 calls build unstable history (median episode of several): crdt/store metadata and frames grow, as in a held partition",
	},
	{
		name: "serve-durable", sites: 3, durable: true, stabilize: true, pools: smallPools,
		why: "-data-dir puts WAL append and fsync on the ack path; ends with kill -9, restart and an equal digest",
	},
	{
		name: "serve-single-site", sites: 1, stabilize: true, pools: smallPools,
		why: "-sites 1 bypasses netrepl: server parse/dispatch/flush, engine and local commit are all there is",
	},
	{
		name: "serve-wide", sites: 3, stabilize: true, pools: widePools,
		why: "512 players and 16 tournaments seeded, not growing: extraction, guards and CHECK over large sets dominate",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// argKind names the pool one argument of an operation draws from.
type argKind uint8

const (
	argEnrolPlayer argKind = iota // the first enrolPlayers players
	argTourn
	argAddPlayer
	argAddTourn
)

type mixEntry struct {
	op     string
	weight int
	args   []argKind
}

// mix is the default tournament mix, in percent.
var mix = []mixEntry{
	{"enroll", 35, []argKind{argEnrolPlayer, argTourn}},
	{"do_match", 25, []argKind{argEnrolPlayer, argEnrolPlayer, argTourn}},
	{"disenroll", 12, []argKind{argEnrolPlayer, argTourn}},
	{"begin_tourn", 10, []argKind{argTourn}},
	{"finish_tourn", 10, []argKind{argTourn}},
	{"add_player", 4, []argKind{argAddPlayer}},
	{"add_tourn", 4, []argKind{argAddTourn}},
}

// mixWeight is the sum of the mix's weights.
var mixWeight = func() (total int) {
	for _, m := range mix {
		total += m.weight
	}
	return total
}()

// names caches "p0".."pN" / "t0".."tN" so generating a call allocates
// only its argument slice.
var playerNames, tournNames = numbered("p", 512), numbered("t", 16)

func numbered(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + strconv.Itoa(i)
	}
	return out
}

// callGen draws calls from the mix; one per connection, each on its own
// seed, so connections generate independent reproducible streams.
type callGen struct {
	rng   *rand.Rand
	pools pools
}

func newCallGen(p pools, seed int64, conn int) *callGen {
	return &callGen{rng: rand.New(rand.NewSource(seed + seedStride*int64(conn))), pools: p}
}

// next returns one call as [op, args...].
func (g *callGen) next() []string {
	n := g.rng.Intn(mixWeight)
	var pick *mixEntry
	for i := range mix {
		if n < mix[i].weight {
			pick = &mix[i]
			break
		}
		n -= mix[i].weight
	}
	call := make([]string, 1, 1+len(pick.args))
	call[0] = pick.op
	for _, k := range pick.args {
		switch k {
		case argEnrolPlayer:
			call = append(call, playerNames[g.rng.Intn(enrolPlayers)])
		case argTourn:
			call = append(call, tournNames[g.rng.Intn(g.pools.tourns)])
		case argAddPlayer:
			call = append(call, playerNames[g.rng.Intn(g.pools.addPlayers)])
		case argAddTourn:
			call = append(call, tournNames[g.rng.Intn(g.pools.addTourns)])
		}
	}
	return call
}

// seedCalls establishes the domain before the window: the players, the
// tournaments, and one running tournament.
func (p pools) seedCalls() [][]string {
	calls := make([][]string, 0, p.seedPlayers+p.seedTourns+1)
	for _, name := range playerNames[:p.seedPlayers] {
		calls = append(calls, []string{"add_player", name})
	}
	for _, name := range tournNames[:p.seedTourns] {
		calls = append(calls, []string{"add_tourn", name})
	}
	return append(calls, []string{"begin_tourn", tournNames[0]})
}
