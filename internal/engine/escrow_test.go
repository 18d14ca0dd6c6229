package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ipa/internal/analysis"
	"ipa/internal/runtime"
	"ipa/internal/spec"
	"ipa/internal/store"
	"ipa/internal/wan"
)

// escrowSpec is a minimal stock application: a numeric field with a
// lower bound. The analysis flags buy ∥ buy as a numeric conflict and
// synthesises a replenish compensation; the engine materializes stock
// as a bounded escrow counter.
const escrowSpec = `
spec stockdemo

invariant forall (Item: i) :- stock(i) >= 0

operation restock(Item: i) {
    stock(i) += 5
}
operation buy(Item: i) {
    stock(i) -= 1
}
`

func mountEscrow(t *testing.T) (*App, *wan.Sim, runtime.Cluster) {
	t.Helper()
	s := spec.MustParse(escrowSpec)
	res, err := analysis.Run(s, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	foundRepl := false
	for _, c := range res.Compensations {
		if c.Kind == analysis.Replenish && c.Pred == "stock" {
			foundRepl = true
		}
	}
	if !foundRepl {
		t.Fatalf("no replenish compensation synthesised: %s", res.Summary())
	}
	sim := wan.NewSim(11)
	cluster := runtime.NewSimCluster(store.NewCluster(sim, wan.PaperTopology(), sites()))
	app, err := Mount(nil, res, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if ni := app.nums["stock"]; ni == nil || !ni.bounded || ni.bound != 0 {
		t.Fatalf("stock not materialized as a bounded counter: %+v", app.nums["stock"])
	}
	return app, sim, cluster
}

// TestBoundedCounterEscrowFastPath: the origin holding rights consumes
// without any overdraft risk, and a locally visible violation of the
// bound is refused up front.
func TestBoundedCounterEscrowFastPath(t *testing.T) {
	app, sim, cluster := mountEscrow(t)
	east := cluster.Replica(wan.USEast)

	if err := app.Call(east, "buy", "widget"); !errors.Is(err, ErrPrecondition) {
		t.Fatalf("buy at zero stock: err = %v, want ErrPrecondition", err)
	}
	if err := app.Call(east, "restock", "widget"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := app.Call(east, "buy", "widget"); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Call(east, "buy", "widget"); !errors.Is(err, ErrPrecondition) {
		t.Fatalf("6th buy of 5 stocked: err = %v, want ErrPrecondition", err)
	}
	sim.Run()
	for _, id := range cluster.Replicas() {
		if msgs := app.CheckQuiescent(cluster.Replica(id)); len(msgs) > 0 {
			t.Fatalf("replica %s: %v", id, msgs)
		}
	}
}

// TestPartitionedOverdraftCompensation is the §3.4 drill: two
// partitioned replicas drain the same stock — the rights holder through
// the escrow fast path, the other optimistically against its stale
// visible value — so the merged state overdrafts the bound; the
// replenish compensation restores it at read time.
func TestPartitionedOverdraftCompensation(t *testing.T) {
	app, sim, cluster := mountEscrow(t)
	east, west := cluster.Replica(wan.USEast), cluster.Replica(wan.USWest)

	if err := app.Call(east, "restock", "widget"); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	cluster.SetPartitioned(wan.USEast, wan.USWest, true)
	cluster.SetPartitioned(wan.USEast, wan.EUWest, true)
	cluster.SetPartitioned(wan.USWest, wan.EUWest, true)

	// East holds the 5 granted rights: escrow consumes. West holds none
	// but still sees value 5: optimistic overdraft consumes.
	for i := 0; i < 4; i++ {
		if err := app.Call(east, "buy", "widget"); err != nil {
			t.Fatalf("east buy %d: %v", i, err)
		}
		if err := app.Call(west, "buy", "widget"); err != nil {
			t.Fatalf("west buy %d: %v", i, err)
		}
	}

	cluster.SetPartitioned(wan.USEast, wan.USWest, false)
	cluster.SetPartitioned(wan.USEast, wan.EUWest, false)
	cluster.SetPartitioned(wan.USWest, wan.EUWest, false)
	sim.Run()

	// Merged: 5 - 8 = -3. The continuous checks stay silent (the clause
	// is read-repaired), the quiescent check sees the violation.
	if in := app.Interp(east); in.Nums["stock(widget)"] != -3 {
		t.Fatalf("merged stock = %d, want -3", in.Nums["stock(widget)"])
	}
	if msgs := app.CheckInvariants(east); len(msgs) != 0 {
		t.Fatalf("read-repaired clause leaked into the continuous checks: %v", msgs)
	}
	if msgs := app.CheckQuiescent(east); len(msgs) == 0 {
		t.Fatal("overdraft not visible to the quiescent check before repair")
	}

	// The quiescence protocol: repair everywhere, settle, twice.
	for round := 0; round < 2; round++ {
		for _, id := range cluster.Replicas() {
			app.Repair(cluster.Replica(id))
		}
		sim.Run()
	}
	var digests []string
	for _, id := range cluster.Replicas() {
		r := cluster.Replica(id)
		if msgs := app.CheckQuiescent(r); len(msgs) > 0 {
			t.Fatalf("replica %s still violated after repair: %v", id, msgs)
		}
		// Exactly-once: all three replicas repaired the same deficit from
		// the same settled state, so the ledger holds ONE entry and the
		// stock lands on the bound — not bound + 2 extra deficits.
		in := app.Interp(r)
		if in.Nums["stock(widget)"] != 0 {
			t.Fatalf("replica %s: stock = %d after replenish, want exactly 0", id, in.Nums["stock(widget)"])
		}
		digests = append(digests, app.Digest(r))
	}
	for _, d := range digests[1:] {
		if d != digests[0] {
			t.Fatalf("digests diverged after compensation: %v", digests)
		}
	}
	if !strings.Contains(digests[0], "stock(widget)=") {
		t.Fatalf("digest missing the numeric field: %s", digests[0])
	}
}

// TestReplenishUnfundedField: a field the invariant demands a positive
// floor for counts as zero even when no operation ever funded it — the
// repair must create it at the bound instead of skipping it forever.
func TestReplenishUnfundedField(t *testing.T) {
	const src = `
spec shelf

invariant forall (Item: i) :- stock(i) >= 1

operation list(Item: i) {
    item(i) := true
}
operation grant(Item: i) {
    stock(i) += 2
}
operation buy(Item: i) {
    stock(i) -= 1
}
`
	s := spec.MustParse(src)
	res, err := analysis.Run(s, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim := wan.NewSim(41)
	cluster := runtime.NewSimCluster(store.NewCluster(sim, wan.PaperTopology(), sites()))
	app, err := Mount(nil, res, cluster)
	if err != nil {
		t.Fatal(err)
	}
	east := cluster.Replica(wan.USEast)
	if err := app.Call(east, "list", "w"); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if msgs := app.CheckQuiescent(east); len(msgs) == 0 {
		t.Fatal("unfunded floor-1 field not reported before repair")
	}
	for round := 0; round < 2; round++ {
		for _, id := range cluster.Replicas() {
			app.Repair(cluster.Replica(id))
		}
		sim.Run()
	}
	for _, id := range cluster.Replicas() {
		r := cluster.Replica(id)
		if msgs := app.CheckQuiescent(r); len(msgs) > 0 {
			t.Fatalf("replica %s: violation survives repair: %v", id, msgs)
		}
		if got := app.Interp(r).Nums["stock(w)"]; got != 1 {
			t.Fatalf("replica %s: stock(w) = %d, want exactly 1", id, got)
		}
	}
}

// TestZeroArityNumericField pins the key scheme for 0-ary fields: the
// guard, the checks, and the extraction must all see the same `total`,
// with the escrow guard refusing a locally visible overdraft.
func TestZeroArityNumericField(t *testing.T) {
	const src = `
spec vault

invariant total() >= 0

operation deposit() {
    total += 5
}
operation withdraw() {
    total -= 1
}
`
	// The bare-identifier trap is rejected at mount: `total >= 0` reads
	// the always-zero constant, not the field.
	bad := spec.MustParse(strings.Replace(src, "total()", "total", 1))
	if _, err := Mount(nil, &analysis.Result{Spec: bad}, nil); err == nil ||
		!strings.Contains(err.Error(), "also a numeric field") {
		t.Fatalf("bare-constant invariant over a field accepted: %v", err)
	}

	s := spec.MustParse(src)
	res, err := analysis.Run(s, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim := wan.NewSim(21)
	cluster := runtime.NewSimCluster(store.NewCluster(sim, wan.PaperTopology(), sites()))
	app, err := Mount(nil, res, cluster)
	if err != nil {
		t.Fatal(err)
	}
	east := cluster.Replica(wan.USEast)
	if err := app.Call(east, "withdraw"); !errors.Is(err, ErrPrecondition) {
		t.Fatalf("withdraw from empty vault: err = %v, want ErrPrecondition", err)
	}
	if err := app.Call(east, "deposit"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := app.Call(east, "withdraw"); err != nil {
			t.Fatalf("withdraw %d: %v", i, err)
		}
	}
	if err := app.Call(east, "withdraw"); !errors.Is(err, ErrPrecondition) {
		t.Fatalf("withdraw past the bound: err = %v, want ErrPrecondition", err)
	}
	sim.Run()
	for _, id := range cluster.Replicas() {
		r := cluster.Replica(id)
		if msgs := app.CheckQuiescent(r); len(msgs) > 0 {
			t.Fatalf("replica %s: %v", id, msgs)
		}
		if got := app.Interp(r).Nums["total"]; got != 0 {
			t.Fatalf("replica %s: total = %d, want 0 (interp: %v)", id, got, app.Interp(r).Nums)
		}
	}
}

// TestTrimExcessSellsThrough pins the Fig. 3 count-bound semantics: a
// trim-compensated aggregate bound does NOT guard the origin — sales
// continue past the limit and the read-time repair trims back to it.
func TestTrimExcessSellsThrough(t *testing.T) {
	const src = `
spec gig

const Cap = 2

invariant forall (Ticket: k, Event: e) :- sold(k, e) => event(e)
invariant forall (Event: e) :- #sold(*, e) <= Cap

operation add_event(Event: e) {
    event(e) := true
}
operation buy(Ticket: k, Event: e) {
    sold(k, e) := true
}
`
	s := spec.MustParse(src)
	res, err := analysis.Run(s, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	trim := false
	for _, c := range res.Compensations {
		if c.Kind == analysis.TrimExcess && c.Pred == "sold" {
			trim = true
		}
	}
	if !trim {
		t.Fatalf("no trim compensation synthesised: %s", res.Summary())
	}
	sim := wan.NewSim(31)
	cluster := runtime.NewSimCluster(store.NewCluster(sim, wan.PaperTopology(), sites()))
	app, err := Mount(nil, res, cluster)
	if err != nil {
		t.Fatal(err)
	}
	east := cluster.Replica(wan.USEast)
	if err := app.Call(east, "add_event", "show"); err != nil {
		t.Fatal(err)
	}
	// Four sales against capacity 2: every one must execute (the bound
	// is compensated at read time, not guarded at the origin).
	for _, k := range []string{"k1", "k2", "k3", "k4"} {
		if err := app.Call(east, "buy", k, "show"); err != nil {
			t.Fatalf("buy %s: %v", k, err)
		}
	}
	sim.Run()
	if msgs := app.CheckInvariants(east); len(msgs) != 0 {
		t.Fatalf("count bound leaked into the continuous checks: %v", msgs)
	}
	if msgs := app.CheckQuiescent(east); len(msgs) == 0 {
		t.Fatal("oversell invisible to the quiescent check before repair")
	}
	for round := 0; round < 2; round++ {
		for _, id := range cluster.Replicas() {
			app.Repair(cluster.Replica(id))
		}
		sim.Run()
	}
	var digests []string
	for _, id := range cluster.Replicas() {
		r := cluster.Replica(id)
		if msgs := app.CheckQuiescent(r); len(msgs) > 0 {
			t.Fatalf("replica %s still oversold after repair: %v", id, msgs)
		}
		n := 0
		for atom, v := range app.Interp(r).Truth {
			if v && strings.HasPrefix(atom, "sold(") {
				n++
			}
		}
		if n != 2 {
			t.Fatalf("replica %s: %d tickets after trim, want 2", id, n)
		}
		digests = append(digests, app.Digest(r))
	}
	for _, d := range digests[1:] {
		if d != digests[0] {
			t.Fatalf("digests diverged after trim: %v", digests)
		}
	}
}

// TestReplenishIsDeterministic re-runs the overdraft schedule and
// requires bit-identical digests: compensations are a pure function of
// the observed state.
func TestReplenishIsDeterministic(t *testing.T) {
	run := func() string {
		app, sim, cluster := mountEscrow(t)
		east, west := cluster.Replica(wan.USEast), cluster.Replica(wan.USWest)
		if err := app.Call(east, "restock", "w"); err != nil {
			t.Fatal(err)
		}
		sim.Run()
		cluster.SetPartitioned(wan.USEast, wan.USWest, true)
		for i := 0; i < 3; i++ {
			must := func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			}
			must(app.Call(east, "buy", "w"))
			must(app.Call(west, "buy", "w"))
		}
		cluster.SetPartitioned(wan.USEast, wan.USWest, false)
		sim.Run()
		for round := 0; round < 2; round++ {
			for _, id := range cluster.Replicas() {
				app.Repair(cluster.Replica(id))
			}
			sim.Run()
		}
		return app.Digest(east)
	}
	d1, d2 := run(), run()
	if d1 != d2 {
		t.Fatalf("replenish nondeterministic:\n%s\nvs\n%s", d1, d2)
	}
	if d1 == "" {
		t.Fatal(fmt.Errorf("empty digest"))
	}
}
