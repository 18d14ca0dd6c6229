package harness

import (
	"fmt"

	"ipa/internal/runtime"
	"ipa/internal/wan"
)

// BackendDigest runs one seeded, fault-free workload sequentially on the
// given backend — settling replication after every operation — and
// returns the application digest at quiescence.
//
// The sequential-settled discipline makes the digest a pure function of
// the generated op sequence: each operation observes the totally ordered,
// fully replicated effects of all its predecessors, so precondition
// checks, compensation decisions, and tag sequence numbers come out
// identical on every backend. The same seed must therefore digest
// identically on sim and netrepl — the cross-backend equivalence check
// that pins the two substrates to one store semantics (wire encoding,
// causal delivery, CRDT application) end to end.
func BackendDigest(cfg Config, seed uint64, backend string) (string, error) {
	cfg.Backend = backend
	cfg.Faults = -1 // Norm treats 0 as "default"; the generator skips negatives
	cfg, err := cfg.Norm()
	if err != nil {
		return "", err
	}
	s, err := Generate(cfg, seed)
	if err != nil {
		return "", err
	}
	if len(s.Faults) > 0 {
		return "", fmt.Errorf("harness: equivalence runs are fault-free, got %d faults", len(s.Faults))
	}
	app, err := newApp(cfg)
	if err != nil {
		return "", err
	}

	var ctx *Ctx
	var cluster runtime.Cluster
	switch backend {
	case runtime.BackendSim:
		ctx = newCtx(s)
		cluster = ctx.Cluster
	case runtime.BackendNet:
		sites := wan.SiteIDs(cfg.Replicas)
		cluster, err = runtime.NewNetCluster(sites, chaosNetConfig(""))
		if err != nil {
			return "", err
		}
		defer cluster.Close()
		ctx = NewCtx(cfg, cluster, sites)
	default:
		return "", fmt.Errorf("harness: unknown backend %q", backend)
	}

	app.Setup(ctx)
	if err := cluster.Settle(); err != nil {
		return "", err
	}
	for _, op := range s.Ops {
		app.Apply(ctx, op)
		if err := cluster.Settle(); err != nil {
			return "", err
		}
	}
	if v, err := Quiesce(ctx, app); err != nil {
		return "", err
	} else if v != nil {
		return "", fmt.Errorf("harness: %s backend not clean at quiescence: %s", backend, v)
	}
	return app.Digest(ctx, 0), nil
}
