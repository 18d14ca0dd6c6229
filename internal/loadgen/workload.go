package loadgen

import (
	"fmt"
	"math/rand"
)

// CallGen draws operations from a weighted mix, each argument uniform
// over its pool — the generic shape behind every generated workload
// (the tournament mix below is the default instance). One CallGen per
// connection, each with its own seed, so connections generate
// independent streams without coordination.
type CallGen struct {
	rng     *rand.Rand
	mix     []MixEntry
	weights int
}

// NewCallGen builds a generator over the mix. It errors on an empty or
// weightless mix — a worker must refuse the spec at Prepare, not spin
// forever at Start.
func NewCallGen(mix []MixEntry, seed int64) (*CallGen, error) {
	g := &CallGen{rng: rand.New(rand.NewSource(seed)), mix: mix}
	for _, m := range mix {
		if m.Weight < 0 {
			return nil, fmt.Errorf("loadgen: op %q has negative weight", m.Op)
		}
		g.weights += m.Weight
	}
	if g.weights == 0 {
		return nil, fmt.Errorf("loadgen: workload mix has no weight")
	}
	return g, nil
}

// Next generates one call as [op, args...].
func (g *CallGen) Next() []string {
	n := g.rng.Intn(g.weights)
	var pick MixEntry
	for _, m := range g.mix {
		if n < m.Weight {
			pick = m
			break
		}
		n -= m.Weight
	}
	call := make([]string, 0, 1+len(pick.Args))
	call = append(call, pick.Op)
	for _, pool := range pick.Args {
		call = append(call, pool[g.rng.Intn(len(pool))])
	}
	return call
}

// TournamentWorkload returns the default workload spec fragment: the
// tournament app's weighted mix and seed calls (enrolling pool within the
// spec's Capacity of 8, so the guarded paths are exercised without living
// permanently over capacity).
func TournamentWorkload() (mix []MixEntry, seedCalls [][]string) {
	var players, tourns, widePlayers, wideTourns []string
	for i := 0; i < 8; i++ {
		players = append(players, fmt.Sprintf("p%d", i))
	}
	for i := 0; i < 4; i++ {
		tourns = append(tourns, fmt.Sprintf("t%d", i))
	}
	for i := 0; i < 64; i++ {
		widePlayers = append(widePlayers, fmt.Sprintf("p%d", i))
	}
	for i := 0; i < 8; i++ {
		wideTourns = append(wideTourns, fmt.Sprintf("t%d", i))
	}
	mix = []MixEntry{
		{Op: "enroll", Weight: 35, Args: [][]string{players, tourns}},
		{Op: "do_match", Weight: 25, Args: [][]string{players, players, tourns}},
		{Op: "disenroll", Weight: 12, Args: [][]string{players, tourns}},
		{Op: "begin_tourn", Weight: 10, Args: [][]string{tourns}},
		{Op: "finish_tourn", Weight: 10, Args: [][]string{tourns}},
		{Op: "add_player", Weight: 4, Args: [][]string{widePlayers}},
		{Op: "add_tourn", Weight: 4, Args: [][]string{wideTourns}},
	}
	for _, p := range players {
		seedCalls = append(seedCalls, []string{"add_player", p})
	}
	for _, t := range tourns {
		seedCalls = append(seedCalls, []string{"add_tourn", t})
	}
	seedCalls = append(seedCalls, []string{"begin_tourn", tourns[0]})
	return mix, seedCalls
}
