package harness

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"ipa/internal/apps/tpcw"
	"ipa/internal/crdt"
	"ipa/internal/store"
)

// tpcwChaos drives the storefront with both the TPC-W single-item
// purchases and the TPC-C-style multi-line orders. Initial stock is tiny
// (4 units per item) against a purchase-heavy mix, so stock goes negative
// constantly and the restock compensation must repair it; rem_product
// races against concurrent purchases exercise the add-wins touch repair.
//
// Mid-flight checks cover the merge-repaired invariants — referential
// integrity (orders reference listed products) and the atomicity of
// multi-line orders (an order is entirely visible or entirely absent at
// every replica). The stock lower bound is read-repaired (ReadStock's
// restock ledger), so it is only checked at quiescence after repair reads.
type tpcwChaos struct {
	cfg       Config
	ipa       *tpcw.App
	causal    *tpcw.App
	items     []string
	customers []string
	// generation-side order id counter and issued ids (for deliveries)
	nextOrder int
	orders    []string
	// execution-side: multi-line orders actually placed, for atomicity
	// checks (single-item purchases are single-update, trivially atomic),
	// and orders whose delivery committed, which every site must end up
	// reading as delivered. placedMu guards both: with Concurrency > 1
	// several workers Apply (and the checker reads) concurrently.
	placedMu  sync.Mutex
	placed    []placedOrder
	delivered []string
}

type placedOrder struct {
	id    string
	lines int
}

// orderAtomic checks the highly-available-transaction guarantee for one
// multi-line order at a replica: the order-index entries and the order's
// line set commit in one transaction, so either both are fully visible or
// neither is. Status is not part of the check: Deliver writes it in a
// transaction of its own, and a delivery may reach a site before the
// order it delivers (FinalCheck checks every delivery at quiescence).
func (a *tpcwChaos) orderAtomic(ctx *Ctx, site int, po placedOrder) (bool, string) {
	r := ctx.Replica(site)
	// Read both keys in one transaction: the index entries and the line
	// set must come from one transaction-consistent snapshot, or a remote
	// NewOrder group applying between two separate read transactions
	// would be misreported as a torn order.
	tx := r.Begin()
	ordersRef := store.AWSetAt(tx, tpcw.KeyOrders)
	linesRef := store.AWSetAt(tx, tpcw.OrderKey(po.id))
	entries := len(ordersRef.ElemsWhere(crdt.MatchPattern(po.id, "")))
	lines := linesRef.Size()
	tx.Commit()
	if entries == 0 && lines == 0 {
		return true, ""
	}
	if entries == po.lines && lines == po.lines {
		return true, ""
	}
	return false, fmt.Sprintf("entries=%d lines=%d want=%d", entries, lines, po.lines)
}

const initialStock = 4

func newTPCWChaos(cfg Config) *tpcwChaos {
	a := &tpcwChaos{cfg: cfg, ipa: tpcw.New(tpcw.IPA), causal: tpcw.New(tpcw.Causal)}
	for i := 0; i < 3; i++ {
		a.items = append(a.items, fmt.Sprintf("item%d", i))
	}
	for i := 0; i < 2; i++ {
		a.customers = append(a.customers, fmt.Sprintf("cust%d", i))
	}
	return a
}

func (a *tpcwChaos) pick(kind string) *tpcw.App {
	if a.cfg.Variant == "causal" || a.cfg.BreakOp == kind {
		return a.causal
	}
	return a.ipa
}

func (a *tpcwChaos) Setup(ctx *Ctx) {
	first := ctx.Replica(0)
	for _, i := range a.items {
		a.ipa.AddProduct(first, i, initialStock)
	}
	for _, c := range a.customers {
		a.ipa.AddCustomer(first, c, 100)
	}
}

func (a *tpcwChaos) newOrderID() string {
	a.nextOrder++
	id := fmt.Sprintf("o%04d", a.nextOrder)
	a.orders = append(a.orders, id)
	return id
}

func (a *tpcwChaos) Gen(rng *rand.Rand) Op {
	item := a.items[rng.Intn(len(a.items))]
	cust := a.customers[rng.Intn(len(a.customers))]
	x := rng.Float64()
	switch {
	case x < 0.30:
		return Op{Kind: "purchase", Args: []string{a.newOrderID(), item}}
	case x < 0.45:
		// Multi-line order: 2–3 distinct items, qty 1–2 each.
		n := 2 + rng.Intn(2)
		perm := rng.Perm(len(a.items))
		args := []string{cust, a.newOrderID()}
		for _, idx := range perm[:n] {
			args = append(args, a.items[idx], strconv.Itoa(1+rng.Intn(2)))
		}
		return Op{Kind: "new_order", Args: args}
	case x < 0.55:
		return Op{Kind: "payment", Args: []string{cust, strconv.Itoa(1 + rng.Intn(5))}}
	case x < 0.62:
		if len(a.orders) > 0 {
			return Op{Kind: "deliver", Args: []string{a.orders[rng.Intn(len(a.orders))]}}
		}
		return Op{Kind: "read_stock", Args: []string{item}}
	case x < 0.80:
		return Op{Kind: "read_stock", Args: []string{item}}
	case x < 0.93:
		return Op{Kind: "rem_product", Args: []string{item}}
	default:
		return Op{Kind: "add_product", Args: []string{item}}
	}
}

func (a *tpcwChaos) Apply(ctx *Ctx, op Op) {
	r := ctx.Replica(op.Site)
	app := a.pick(op.Kind)
	switch op.Kind {
	case "purchase":
		app.Purchase(r, op.Args[0], op.Args[1])
	case "new_order":
		var lines []tpcw.OrderLine
		for i := 2; i+1 < len(op.Args); i += 2 {
			qty, _ := strconv.ParseInt(op.Args[i+1], 10, 64)
			lines = append(lines, tpcw.OrderLine{Item: op.Args[i], Qty: qty})
		}
		app.NewOrder(r, op.Args[0], op.Args[1], lines)
		a.placedMu.Lock()
		a.placed = append(a.placed, placedOrder{id: op.Args[1], lines: len(lines)})
		a.placedMu.Unlock()
	case "payment":
		amt, _ := strconv.ParseInt(op.Args[1], 10, 64)
		app.Payment(r, op.Args[0], amt)
	case "deliver":
		app.Deliver(r, op.Args[0])
		a.placedMu.Lock()
		a.delivered = append(a.delivered, op.Args[0])
		a.placedMu.Unlock()
	case "read_stock":
		app.ReadStock(r, op.Args[0])
	case "rem_product":
		// The paper's model has every operation verify its preconditions
		// at the origin: delisting requires that no visible order still
		// references the product. Violations can then only come from
		// concurrency — which is what the IPA touch repair addresses.
		item := op.Args[0]
		tx := r.Begin()
		referenced := len(store.AWSetAt(tx, tpcw.KeyOrders).ElemsWhere(crdt.MatchPattern("", item))) > 0
		tx.Commit()
		if !referenced {
			app.RemProduct(r, item)
		}
	case "add_product":
		app.AddProduct(r, op.Args[0], initialStock)
	default:
		panic("harness: unknown tpcw op " + op.Kind)
	}
}

// placedOrders snapshots the placed list under its lock.
func (a *tpcwChaos) placedOrders() []placedOrder {
	a.placedMu.Lock()
	defer a.placedMu.Unlock()
	return append([]placedOrder(nil), a.placed...)
}

// MidCheck asserts the merge-repaired invariants: order atomicity and
// referential integrity.
func (a *tpcwChaos) MidCheck(ctx *Ctx, site int) []string {
	r := ctx.Replica(site)
	var out []string
	for _, po := range a.placedOrders() {
		if ok, msg := a.orderAtomic(ctx, site, po); !ok {
			out = append(out, fmt.Sprintf("order %s not atomic: %s", po.id, msg))
		}
	}
	tx := r.Begin()
	products := store.AWSetAt(tx, tpcw.KeyProducts)
	for _, o := range store.AWSetAt(tx, tpcw.KeyOrders).Elems() {
		parts := crdt.SplitTuple(o)
		if !products.Contains(parts[1]) {
			out = append(out, fmt.Sprintf("order %s references delisted product %s", parts[0], parts[1]))
		}
	}
	tx.Commit()
	return out
}

func (a *tpcwChaos) Repair(ctx *Ctx, site int) {
	app := a.ipa
	if a.cfg.Variant == "causal" {
		app = a.causal
	}
	for _, i := range a.items {
		app.ReadStock(ctx.Replica(site), i)
	}
}

// FinalCheck adds the read-repaired stock bound and the delivered status
// of every committed delivery to the mid-flight checks.
func (a *tpcwChaos) FinalCheck(ctx *Ctx, site int) []string {
	app := a.ipa
	if a.cfg.Variant == "causal" {
		app = a.causal
	}
	out := app.Violations(ctx.Replica(site), a.items)
	for _, po := range a.placedOrders() {
		if ok, msg := a.orderAtomic(ctx, site, po); !ok {
			out = append(out, fmt.Sprintf("order %s not atomic: %s", po.id, msg))
		}
	}
	a.placedMu.Lock()
	delivered := append([]string(nil), a.delivered...)
	a.placedMu.Unlock()
	for _, id := range delivered {
		if s := app.OrderStatus(ctx.Replica(site), id); s != "delivered" {
			out = append(out, fmt.Sprintf("order %s delivered but reads %q", id, s))
		}
	}
	return out
}

func (a *tpcwChaos) Digest(ctx *Ctx, site int) string {
	r := ctx.Replica(site)
	tx := r.Begin()
	parts := []string{
		digestList("products", store.AWSetAt(tx, tpcw.KeyProducts).Elems()),
		digestList("orders", store.AWSetAt(tx, tpcw.KeyOrders).Elems()),
	}
	tx.Commit()
	for _, i := range a.items {
		parts = append(parts, fmt.Sprintf("stock(%s)=%d", i, a.ipa.Stock(r, i)))
	}
	for _, c := range a.customers {
		parts = append(parts, fmt.Sprintf("bal(%s)=%d", c, a.ipa.Balance(r, c)))
	}
	for _, po := range a.placedOrders() {
		parts = append(parts, fmt.Sprintf("status(%s)=%s", po.id, a.ipa.OrderStatus(r, po.id)))
	}
	return strings.Join(parts, " ")
}
