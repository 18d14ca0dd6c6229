package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"

	"ipa/internal/analysis"
	"ipa/internal/apps/ticket"
	"ipa/internal/apps/tournament"
	"ipa/internal/apps/twitter"
	"ipa/internal/engine"
	"ipa/internal/runtime"
	"ipa/internal/spec"
)

// SpecAppPrefix selects the spec-driven application: `spec:<path>` loads
// the specification file, runs the IPA analysis on it, and fuzzes the
// engine-executed result — chaos coverage for any user-provided spec,
// with no per-application Go.
const SpecAppPrefix = "spec:"

// specChaos drives an engine-executed application: operations, checks,
// repairs, and digests all come from the analyzed specification.
type specChaos struct {
	eng *engine.App
	// gen materializes one random op (shared by the generic file-backed
	// app and the tournament equivalence adapter, which substitutes the
	// hand-coded driver's generator to get the identical op stream).
	gen func(rng *rand.Rand) Op
	// setup seeds initial state through the engine (may be nil).
	setup func(a *specChaos, ctx *Ctx)
	// aliases maps schedule op kinds to specification operation names.
	aliases map[string]string
}

// specEntry caches one source's parse + analysis: the chaos engine
// builds a fresh adapter per schedule, and the analysis output is
// immutable, so a campaign runs the IPA loop once instead of once per
// schedule (a tournament run alone is ≈ 0.2 s).
type specEntry struct {
	once sync.Once
	res  *analysis.Result
	err  error
}

var specCache sync.Map // source string -> *specEntry

// analyzeSpec parses and analyzes a specification source, cached, as
// every mount path does (analysis.RunForMount).
func analyzeSpec(src string) (*analysis.Result, error) {
	e, _ := specCache.LoadOrStore(src, &specEntry{})
	entry := e.(*specEntry)
	entry.once.Do(func() {
		s, err := spec.Parse(src)
		if err != nil {
			entry.err = err
			return
		}
		entry.res, entry.err = analysis.RunForMount(s, false)
	})
	return entry.res, entry.err
}

// specMountOpts maps a spec-driven app's variant to engine mount
// options: "ipa" runs the compiled per-operation plans, "interp" the
// whole-state reference interpreter — same analyzed spec, different
// executor, so chaos schedules double as executor-differential tests.
func specMountOpts(cfg Config, app string) ([]engine.MountOption, error) {
	switch cfg.Variant {
	case "ipa":
		return nil, nil
	case "interp":
		return []engine.MountOption{engine.WithInterpreter()}, nil
	default:
		return nil, fmt.Errorf("harness: %s runs the analyzed spec (variant ipa, or interp for the reference executor)", app)
	}
}

// newSpecFileChaos builds the adapter for `spec:<path>`.
func newSpecFileChaos(cfg Config) (*specChaos, error) {
	opts, err := specMountOpts(cfg, SpecAppPrefix+"<file>")
	if err != nil {
		return nil, err
	}
	if cfg.BreakOp != "" {
		return nil, fmt.Errorf("harness: -break unsupported for %s apps", SpecAppPrefix)
	}
	path := strings.TrimPrefix(cfg.App, SpecAppPrefix)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	res, err := analyzeSpec(string(data))
	if err != nil {
		return nil, err
	}
	eng, err := engine.Mount(nil, res, nil, opts...)
	if err != nil {
		return nil, err
	}
	a := &specChaos{eng: eng}
	a.gen = a.genericGen()
	return a, nil
}

// newTournamentSpecChaos builds the engine-executed tournament: the
// paper's running example mounted from its analyzed specification, with
// the hand-coded chaos driver's generator — so a schedule seed yields
// the identical op stream for both executors, which is what makes their
// quiescent digests comparable.
func newTournamentSpecChaos(cfg Config) (*specChaos, error) {
	opts, err := specMountOpts(cfg, "tournament-spec")
	if err != nil {
		return nil, err
	}
	if cfg.BreakOp != "" {
		return nil, fmt.Errorf("harness: -break unsupported for tournament-spec (break the hand-coded tournament instead)")
	}
	eng, err := engine.Mount(nil, tournament.Analysis(), nil, opts...)
	if err != nil {
		return nil, err
	}
	hand := newTournamentChaos(cfg)
	return &specChaos{
		eng: eng,
		gen: hand.Gen,
		setup: func(a *specChaos, ctx *Ctx) {
			r := ctx.Replica(0)
			seed := func(kind string, args ...string) {
				if err := a.eng.Call(r, kind, args...); err != nil {
					panic(fmt.Sprintf("harness: tournament-spec setup %s(%v): %v", kind, args, err))
				}
			}
			for _, p := range hand.players {
				seed("add_player", p)
			}
			for _, t := range hand.tourns {
				seed("add_tourn", t)
			}
			seed("begin_tourn", hand.tourns[0])
		},
		aliases: map[string]string{"begin": "begin_tourn", "finish": "finish_tourn"},
	}, nil
}

// newTwitterSpecChaos builds the engine-executed Twitter clone: the
// specification analyzed with the Fig. 6 rem-wins repair choices
// (twitter.Analysis — rem_user and del_tweet carry rem-wins wildcard
// wipes), fuzzed with the generic generator over tiny domains so the
// wipes constantly race concurrent tweets, retweets, and follows.
func newTwitterSpecChaos(cfg Config) (*specChaos, error) {
	opts, err := specMountOpts(cfg, "twitter-spec")
	if err != nil {
		return nil, err
	}
	if cfg.BreakOp != "" {
		return nil, fmt.Errorf("harness: -break unsupported for twitter-spec (break the hand-coded twitter instead)")
	}
	eng, err := engine.Mount(nil, twitter.Analysis(), nil, opts...)
	if err != nil {
		return nil, err
	}
	a := &specChaos{
		eng: eng,
		setup: func(a *specChaos, ctx *Ctx) {
			r := ctx.Replica(0)
			// Seed the generator's user pool so early tweets and follows
			// pass their guards instead of refusing into an empty state.
			for _, u := range []string{"user0", "user1", "user2"} {
				specSeed(a, r, "add_user", u)
			}
			specSeed(a, r, "follow", "user0", "user1")
		},
	}
	a.gen = a.genericGen()
	return a, nil
}

// newTicketSpecChaos builds the engine-executed FusionTicket: the
// specification analyzed at the chaos harness's tiny capacity (5) so the
// buy-heavy mix oversells constantly and the synthesized trim-excess
// compensation must repair every oversell at read time. The generator
// issues a fresh ticket id per buy (the spec is tagged unique-ids) and
// refunds only tickets it sold before.
func newTicketSpecChaos(cfg Config) (*specChaos, error) {
	opts, err := specMountOpts(cfg, "ticket-spec")
	if err != nil {
		return nil, err
	}
	if cfg.BreakOp != "" {
		return nil, fmt.Errorf("harness: -break unsupported for ticket-spec (break the hand-coded ticket instead)")
	}
	res, err := analyzeSpec(ticket.SpecSourceWithCapacity(5))
	if err != nil {
		return nil, err
	}
	eng, err := engine.Mount(nil, res, nil, opts...)
	if err != nil {
		return nil, err
	}
	events := []string{"ev0", "ev1"}
	a := &specChaos{
		eng: eng,
		setup: func(a *specChaos, ctx *Ctx) {
			r := ctx.Replica(0)
			for _, e := range events {
				specSeed(a, r, "add_event", e)
			}
		},
	}
	var sold []Op // generator-side state: tickets issued so far
	a.gen = func(rng *rand.Rand) Op {
		e := events[rng.Intn(len(events))]
		switch {
		case rng.Float64() < 0.7 || len(sold) == 0:
			op := Op{Kind: "buy", Args: []string{fmt.Sprintf("k%d", len(sold)), e}}
			sold = append(sold, op)
			return op
		default:
			prev := sold[rng.Intn(len(sold))]
			return Op{Kind: "refund", Args: prev.Args}
		}
	}
	return a, nil
}

// specSeed executes one setup operation through the engine, panicking on
// refusal: seeding runs on a quiescent single-origin state, so a failure
// is a harness bug, not a legitimate guard.
func specSeed(a *specChaos, r runtime.Replica, kind string, args ...string) {
	if err := a.eng.Call(r, kind, args...); err != nil {
		panic(fmt.Sprintf("harness: %s setup %s(%v): %v", a.eng.Spec().Name, kind, args, err))
	}
}

// genericGen draws uniformly over the spec's operations with arguments
// from small per-sort pools — tiny domains collide constantly, which is
// exactly the concurrency the analysis' repairs must survive.
func (a *specChaos) genericGen() func(rng *rand.Rand) Op {
	ops := a.eng.Operations()
	pools := map[string][]string{}
	poolFor := func(srt string) []string {
		if p, ok := pools[srt]; ok {
			return p
		}
		base := strings.ToLower(srt)
		p := []string{base + "0", base + "1", base + "2"}
		pools[srt] = p
		return p
	}
	return func(rng *rand.Rand) Op {
		s := a.eng.Spec()
		name := ops[rng.Intn(len(ops))]
		op, _ := s.Operation(name)
		args := make([]string, len(op.Params))
		for i, p := range op.Params {
			pool := poolFor(string(p.Sort))
			args[i] = pool[rng.Intn(len(pool))]
		}
		return Op{Kind: name, Args: args}
	}
}

func (a *specChaos) Gen(rng *rand.Rand) Op { return a.gen(rng) }

func (a *specChaos) Setup(ctx *Ctx) {
	if a.setup != nil {
		a.setup(a, ctx)
	}
}

// Apply executes one materialized operation through the engine, treating
// a failed precondition as the guarded no-op it is; any other error is a
// harness bug.
func (a *specChaos) Apply(ctx *Ctx, op Op) {
	kind := op.Kind
	if alias, ok := a.aliases[kind]; ok {
		kind = alias
	}
	err := a.eng.Call(ctx.Replica(op.Site), kind, op.Args...)
	if err != nil && !errors.Is(err, engine.ErrPrecondition) {
		panic(fmt.Sprintf("harness: spec app %s(%v): %v", kind, op.Args, err))
	}
}

func (a *specChaos) MidCheck(ctx *Ctx, site int) []string {
	return a.eng.CheckInvariants(ctx.Replica(site))
}

func (a *specChaos) Repair(ctx *Ctx, site int) {
	a.eng.Repair(ctx.Replica(site))
}

func (a *specChaos) FinalCheck(ctx *Ctx, site int) []string {
	return a.eng.CheckQuiescent(ctx.Replica(site))
}

func (a *specChaos) Digest(ctx *Ctx, site int) string {
	return a.eng.Digest(ctx.Replica(site))
}
