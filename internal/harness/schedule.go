// Package harness is a deterministic chaos engine for the IPA runtime:
// from a single uint64 seed it generates randomized multi-replica
// workloads over the paper's applications and interleaves them with a
// randomized fault schedule — network partitions and heals, message-delay
// spikes, replica pauses, stability stalls, whole-site crash/recover, and
// join/decommission churn — inside the wan.Sim discrete-event simulation,
// while checking application invariants mid-flight and at quiescence.
//
// The paper's evaluation (§5) exercises hand-picked runs; the harness
// explores the schedule space the paper's claim actually quantifies over:
// conflict repair preserves invariants under *any* weakly consistent
// interleaving (cf. invariant-confluence analysis in "Coordination
// Avoidance in Database Systems"). Every run is a pure function of its
// schedule, so a failure replays bit-identically from its seed; on
// violation the engine shrinks the schedule (drop ops, drop faults,
// shorten the horizon) to a minimal repro and hands back a schedule that
// can be serialized, shipped in a bug report, and replayed exactly.
//
// Entry points: Generate/Execute for one schedule, Run for a seeded
// campaign with shrinking, and the `ipa chaos` subcommand for both from
// the command line.
package harness

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"

	"ipa/internal/runtime"
	"ipa/internal/wan"
)

// Config describes the shape of the schedules a campaign generates. The
// zero value is not usable; call (&Config{...}).Norm or use Defaults.
type Config struct {
	// App selects the workload: tournament, ticket, twitter, tpcw, escrow.
	App string `json:"app"`
	// Variant selects the application flavour: "ipa" (repairs on, the
	// default) or "causal" (repairs off — the unmodified application the
	// paper shows violating its invariants).
	Variant string `json:"variant,omitempty"`
	// BreakOp, when set, routes exactly that operation kind through the
	// unrepaired causal implementation while the rest of the app keeps its
	// IPA patches — the "deliberately disable one repair" fault used to
	// validate that the harness catches real invariant bugs. Supported for
	// the apps whose causal and IPA variants share a state layout
	// (tournament, tpcw).
	BreakOp string `json:"break_op,omitempty"`
	// Replicas is the number of simulated sites (default 3; the first
	// three use the paper's topology names).
	Replicas int `json:"replicas"`
	// Ops is the number of application operations per schedule.
	Ops int `json:"ops"`
	// Faults is the number of fault events per schedule.
	Faults int `json:"faults"`
	// Horizon is the virtual-time window the workload and faults land in.
	Horizon wan.Time `json:"horizon"`
	// Backend selects the replication substrate: "sim" (the default — the
	// deterministic discrete-event simulation, bit-identical replay) or
	// "netrepl" (real TCP sockets and goroutines; the schedule is still
	// data, but thread and network interleavings make runs
	// non-deterministic, so replay reproduces the workload, not the race).
	// Delay faults are sim-only and no-ops on netrepl; the escrow scenario
	// is coupled to the latency model and rejects netrepl.
	Backend string `json:"backend,omitempty"`
	// Concurrency is the number of parallel client workers executing the
	// workload (default 1). With more than one worker, operations still
	// dispatch in schedule order but apply concurrently — exercising the
	// replica lock's local-vs-local and local-vs-receive races. Requires
	// the netrepl backend: the simulator is single-threaded by
	// construction. Fault windows and invariant checks run unchanged (the
	// executor quiesces the workers around crash and join faults only).
	Concurrency int `json:"concurrency,omitempty"`
}

// Defaults returns the standard chaos configuration for an app.
func Defaults(app string) Config {
	return Config{App: app, Variant: "ipa", Replicas: 3, Ops: 60, Faults: 6,
		Horizon: 3 * wan.Second, Backend: runtime.BackendSim}
}

// Norm fills zero fields with defaults and validates the config.
func (c Config) Norm() (Config, error) {
	d := Defaults(c.App)
	if c.Variant == "" {
		c.Variant = d.Variant
	}
	if c.Backend == "" {
		c.Backend = d.Backend
	}
	switch c.Backend {
	case runtime.BackendSim:
	case runtime.BackendNet:
		if c.App == "escrow" {
			return c, fmt.Errorf("harness: escrow runs on the sim backend only (it drives the simulated latency model)")
		}
	default:
		return c, fmt.Errorf("harness: unknown backend %q (want %s)", c.Backend, strings.Join(runtime.Backends(), " or "))
	}
	if c.Replicas == 0 {
		c.Replicas = d.Replicas
	}
	if c.Ops == 0 {
		c.Ops = d.Ops
	}
	if c.Faults == 0 {
		c.Faults = d.Faults
	}
	if c.Horizon == 0 {
		c.Horizon = d.Horizon
	}
	if c.Concurrency == 0 {
		c.Concurrency = 1
	}
	if c.Concurrency < 1 {
		return c, fmt.Errorf("harness: concurrency must be positive, got %d", c.Concurrency)
	}
	if c.Concurrency > 1 && c.Backend != runtime.BackendNet {
		return c, fmt.Errorf("harness: concurrency %d requires the netrepl backend (the simulator is single-threaded)", c.Concurrency)
	}
	if c.Replicas < 2 {
		return c, fmt.Errorf("harness: need at least 2 replicas, got %d", c.Replicas)
	}
	// "interp" is accepted only by the spec-driven apps, which mount the
	// whole-state reference executor instead of the compiled plans — the
	// per-adapter constructors reject it everywhere else.
	if c.Variant != "ipa" && c.Variant != "causal" && c.Variant != "interp" {
		return c, fmt.Errorf("harness: unknown variant %q (want ipa or causal, or interp for spec-driven apps)", c.Variant)
	}
	if _, err := newApp(c); err != nil {
		return c, err
	}
	return c, nil
}

// Op is one materialized application operation: everything needed to
// re-execute it is data, so schedules serialize and shrink op by op.
type Op struct {
	At   wan.Time `json:"at"`
	Site int      `json:"site"`
	Kind string   `json:"kind"`
	Args []string `json:"args,omitempty"`
}

func (o Op) String() string {
	return fmt.Sprintf("@%.1fms site%d %s(%v)", o.At.Millis(), o.Site, o.Kind, o.Args)
}

// FaultKind enumerates the injectable faults.
type FaultKind string

// Fault kinds.
const (
	// FaultPartition blocks the link between replicas A and B; messages
	// buffer and flush on heal.
	FaultPartition FaultKind = "partition"
	// FaultDelay multiplies the latency of the A–B link by Factor.
	FaultDelay FaultKind = "delay"
	// FaultPause freezes replica A's delivery pipeline (remote
	// transactions buffer unapplied) and stops it issuing operations.
	FaultPause FaultKind = "pause"
	// FaultStall suppresses the periodic stability runs, so CRDT metadata
	// compaction falls arbitrarily far behind.
	FaultStall FaultKind = "stall"
	// FaultCrash kills site A abruptly (kill -9 semantics) and recovers it
	// from its durable state when the window closes. On the netrepl
	// backend this exercises the real path: WAL replay, snapshot restore,
	// re-offer of own-origin records. The simulator's sites cannot lose
	// state, so there it degrades to the delivery pause a crash looks like
	// from the outside. The site issues no operations while down.
	FaultCrash FaultKind = "crash"
	// FaultJoin bootstraps a brand-new site from donor A's snapshot plus
	// the mesh's op tails, and decommissions it when the window closes —
	// elastic-membership churn underneath the workload. netrepl only (the
	// simulator's membership is fixed); a no-op elsewhere.
	FaultJoin FaultKind = "join"
)

// Fault is one fault-injection window.
type Fault struct {
	At   wan.Time  `json:"at"`
	Dur  wan.Time  `json:"dur"`
	Kind FaultKind `json:"kind"`
	// A and B are replica indexes; B is meaningful for link faults only.
	A int `json:"a"`
	B int `json:"b,omitempty"`
	// Factor is the delay multiplier for FaultDelay.
	Factor float64 `json:"factor,omitempty"`
}

func (f Fault) String() string {
	switch f.Kind {
	case FaultPartition:
		return fmt.Sprintf("@%.1fms partition site%d<->site%d for %.1fms", f.At.Millis(), f.A, f.B, f.Dur.Millis())
	case FaultDelay:
		return fmt.Sprintf("@%.1fms delay x%.1f site%d<->site%d for %.1fms", f.At.Millis(), f.Factor, f.A, f.B, f.Dur.Millis())
	case FaultPause:
		return fmt.Sprintf("@%.1fms pause site%d for %.1fms", f.At.Millis(), f.A, f.Dur.Millis())
	case FaultCrash:
		return fmt.Sprintf("@%.1fms crash site%d, recover after %.1fms", f.At.Millis(), f.A, f.Dur.Millis())
	case FaultJoin:
		return fmt.Sprintf("@%.1fms join new site from site%d, decommission after %.1fms", f.At.Millis(), f.A, f.Dur.Millis())
	default:
		return fmt.Sprintf("@%.1fms stability stall for %.1fms", f.At.Millis(), f.Dur.Millis())
	}
}

// Schedule is one fully materialized chaos run: replaying it is a pure
// function — same schedule, same violation (or same clean pass).
type Schedule struct {
	Seed   uint64  `json:"seed"`
	Cfg    Config  `json:"cfg"`
	Ops    []Op    `json:"ops"`
	Faults []Fault `json:"faults"`
}

// Generate materializes the schedule for one seed: the op stream comes
// from the app's workload generator, fault windows from the fault model,
// all drawn from a single rand.Rand seeded with seed.
func Generate(cfg Config, seed uint64) (*Schedule, error) {
	cfg, err := cfg.Norm()
	if err != nil {
		return nil, err
	}
	app, err := newApp(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	s := &Schedule{Seed: seed, Cfg: cfg}

	// Draw the op instants first and generate in chronological order, so
	// generator-side state (issued order ids, circulating tweets) refers
	// to entities whose creating op precedes the referring op in time.
	ats := make([]wan.Time, cfg.Ops)
	for i := range ats {
		ats[i] = wan.Time(rng.Int63n(int64(cfg.Horizon)))
	}
	sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
	for i := 0; i < cfg.Ops; i++ {
		op := app.Gen(rng)
		op.At = ats[i]
		op.Site = rng.Intn(cfg.Replicas)
		s.Ops = append(s.Ops, op)
	}

	for i := 0; i < cfg.Faults; i++ {
		s.Faults = append(s.Faults, genFault(rng, cfg))
	}
	sort.SliceStable(s.Faults, func(i, j int) bool { return s.Faults[i].At < s.Faults[j].At })
	return s, nil
}

// genFault draws one fault window: kind, victims, timing.
func genFault(rng *rand.Rand, cfg Config) Fault {
	f := Fault{
		At:  wan.Time(rng.Int63n(int64(cfg.Horizon))),
		Dur: cfg.Horizon/20 + wan.Time(rng.Int63n(int64(cfg.Horizon)/4)),
	}
	a := rng.Intn(cfg.Replicas)
	b := rng.Intn(cfg.Replicas - 1)
	if b >= a {
		b++
	}
	f.A, f.B = a, b
	switch rng.Intn(12) {
	case 0, 1, 2, 3: // partitions dominate: they drive the interesting races
		f.Kind = FaultPartition
	case 4, 5, 6:
		f.Kind = FaultDelay
		f.Factor = 2 + rng.Float64()*18 // 2x..20x spikes
	case 7, 8:
		f.Kind = FaultPause
	case 9:
		f.Kind = FaultStall
	case 10:
		f.Kind = FaultCrash
	default:
		// Elastic joins exist on netrepl only; on the simulator the slot
		// becomes a second crash draw (crash degrades to pause there, but
		// the op-suppression window is identical on both backends, keeping
		// generated schedules portable).
		if cfg.Backend == runtime.BackendNet {
			f.Kind = FaultJoin
		} else {
			f.Kind = FaultCrash
		}
	}
	return f
}

// WriteFile serializes the schedule as JSON (the -replay format).
func (s *Schedule) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadScheduleFile loads a serialized schedule and validates its config.
func ReadScheduleFile(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("harness: bad schedule file %s: %w", path, err)
	}
	if s.Cfg, err = s.Cfg.Norm(); err != nil {
		return nil, err
	}
	return &s, nil
}
