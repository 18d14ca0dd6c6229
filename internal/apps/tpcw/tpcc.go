package tpcw

import (
	"fmt"
	"sort"
	"strconv"

	"ipa/internal/crdt"
	"ipa/internal/runtime"
	"ipa/internal/store"
)

// TPC-C-style transactions layered on the same storefront state: a
// multi-item NewOrder (every line decrements a stock counter and records
// an order line atomically — the highly-available-transaction guarantee
// keeps the order internally consistent at every replica), Payment
// (customer balance counter), and Delivery (order status set).
//
// These exercise the paper's observation that standard benchmarks lack
// listing management: NewOrder under IPA touches every ordered product so
// concurrent delistings cannot strand order lines, and the stock lower
// bound is protected by the restock compensation of ReadStock.

// Object keys for the TPC-C-style state.
const (
	KeyCustomers = "tpcw/customers"
)

func balanceKey(customer string) string { return "tpcw/balance/" + customer }
func orderKey(order string) string      { return "tpcw/order/" + order }
func statusKey(order string) string     { return "tpcw/status/" + order }

// An order's status set holds the statuses it has reached; the furthest
// one is its status.
const (
	statusNew       = "new"
	statusDelivered = "delivered"
)

// OrderKey returns the order-lines set key of an order — exported so
// checkers can read an order's index entries and its lines inside one
// transaction (a transaction-consistent snapshot; two separate
// transactions could straddle a remote NewOrder group).
func OrderKey(order string) string { return orderKey(order) }

// OrderLine is one item/quantity pair of a NewOrder.
type OrderLine struct {
	Item string
	Qty  int64
}

// AddCustomer registers a customer with an initial balance.
func (a *App) AddCustomer(r runtime.Replica, customer string, balance int64) *store.Txn {
	tx := r.Begin()
	store.AWSetAt(tx, KeyCustomers).Add(customer, "")
	store.CounterAt(tx, balanceKey(customer)).Add(balance)
	tx.Commit()
	return tx
}

// NewOrder places a multi-line order atomically: order lines, per-item
// stock decrements, and (IPA) product touches all commit in one
// transaction and integrate atomically at every replica.
func (a *App) NewOrder(r runtime.Replica, customer, order string, lines []OrderLine) *store.Txn {
	tx := r.Begin()
	olSet := store.AWSetAt(tx, orderKey(order))
	for _, l := range lines {
		store.AWSetAt(tx, KeyOrders).Add(crdt.JoinTuple(order, l.Item), "")
		olSet.Add(crdt.JoinTuple(l.Item, strconv.FormatInt(l.Qty, 10)), "")
		store.CounterAt(tx, stockKey(l.Item)).Add(-l.Qty)
		if a.variant == IPA {
			store.AWSetAt(tx, KeyProducts).Touch(l.Item)
		}
	}
	store.AWSetAt(tx, statusKey(order)).Add(statusNew, "")
	tx.Commit()
	return tx
}

// OrderLines reads back an order's lines at replica r.
func (a *App) OrderLines(r runtime.Replica, order string) []OrderLine {
	tx := r.Begin()
	defer tx.Commit()
	var out []OrderLine
	for _, e := range store.AWSetAt(tx, orderKey(order)).Elems() {
		parts := crdt.SplitTuple(e)
		qty, _ := strconv.ParseInt(parts[1], 10, 64)
		out = append(out, OrderLine{Item: parts[0], Qty: qty})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Item < out[j].Item })
	return out
}

// Payment debits the customer's balance.
func (a *App) Payment(r runtime.Replica, customer string, amount int64) *store.Txn {
	tx := r.Begin()
	store.CounterAt(tx, balanceKey(customer)).Add(-amount)
	tx.Commit()
	return tx
}

// Balance reads the customer's balance at replica r.
func (a *App) Balance(r runtime.Replica, customer string) int64 {
	tx := r.Begin()
	defer tx.Commit()
	return store.CounterAt(tx, balanceKey(customer)).Value()
}

// Deliver marks the order delivered. Status is an add-wins set that
// nothing removes from, so it only moves forward: concurrent deliveries
// converge, and a delivery wins over every NewOrder it has seen.
func (a *App) Deliver(r runtime.Replica, order string) *store.Txn {
	tx := r.Begin()
	store.AWSetAt(tx, statusKey(order)).Add(statusDelivered, "")
	tx.Commit()
	return tx
}

// OrderStatus reads an order's status at replica r: the furthest status
// present, or "" when the order has none.
func (a *App) OrderStatus(r runtime.Replica, order string) string {
	tx := r.Begin()
	defer tx.Commit()
	return orderStatus(store.AWSetAt(tx, statusKey(order)))
}

func orderStatus(set store.AWSetRef) string {
	switch {
	case set.Contains(statusDelivered):
		return statusDelivered
	case set.Contains(statusNew):
		return statusNew
	}
	return ""
}

// OrderConsistent checks the atomicity guarantee at one replica: either
// the order is entirely visible (entry, lines, status) or entirely
// absent. Returns an error description when a partial order is visible.
func (a *App) OrderConsistent(r runtime.Replica, order string, wantLines int) (bool, string) {
	tx := r.Begin()
	defer tx.Commit()
	entries := len(store.AWSetAt(tx, KeyOrders).ElemsWhere(crdt.MatchPattern(order, "")))
	lines := store.AWSetAt(tx, orderKey(order)).Size()
	statusSet := store.AWSetAt(tx, statusKey(order))
	hasStatus := statusSet.Size() > 0
	if entries == 0 && lines == 0 && !hasStatus {
		return true, "" // entirely absent
	}
	if entries == wantLines && lines == wantLines && hasStatus {
		return true, ""
	}
	return false, fmt.Sprintf("partial order: entries=%d lines=%d/%d status=%q", entries, lines, wantLines, orderStatus(statusSet))
}
