package tpcw

import (
	"testing"

	"ipa/internal/wan"
)

func TestNewOrderAtomicVisibility(t *testing.T) {
	sim, c := newCluster(10)
	app := New(IPA)
	app.AddProduct(c.Replica(wan.USEast), "a", 100)
	app.AddProduct(c.Replica(wan.USEast), "b", 100)
	app.AddCustomer(c.Replica(wan.USEast), "cust", 500)
	sim.Run()

	lines := []OrderLine{{Item: "a", Qty: 2}, {Item: "b", Qty: 1}}
	app.NewOrder(c.Replica(wan.USWest), "cust", "o1", lines)

	// Mid-replication, each replica sees the order entirely or not at all.
	sim.RunUntil(sim.Now() + wan.Ms(39)) // before the 40ms one-way delivery
	for _, id := range c.Replicas() {
		if ok, detail := app.OrderConsistent(c.Replica(id), "o1", 2); !ok {
			t.Fatalf("replica %s: %s", id, detail)
		}
	}
	sim.Run()
	for _, id := range c.Replicas() {
		if ok, detail := app.OrderConsistent(c.Replica(id), "o1", 2); !ok {
			t.Fatalf("replica %s after convergence: %s", id, detail)
		}
		got := app.OrderLines(c.Replica(id), "o1")
		if len(got) != 2 || got[0] != (OrderLine{Item: "a", Qty: 2}) || got[1] != (OrderLine{Item: "b", Qty: 1}) {
			t.Fatalf("replica %s lines = %v", id, got)
		}
		if s := app.Stock(c.Replica(id), "a"); s != 98 {
			t.Fatalf("replica %s stock(a) = %d", id, s)
		}
	}
}

func TestConcurrentNewOrdersUnderflowCompensated(t *testing.T) {
	sim, c := newCluster(11)
	app := New(IPA)
	app.AddProduct(c.Replica(wan.USEast), "scarce", 3)
	sim.Run()

	// Two concurrent multi-qty orders overshoot the stock.
	app.NewOrder(c.Replica(wan.USEast), "c1", "oe", []OrderLine{{Item: "scarce", Qty: 2}})
	app.NewOrder(c.Replica(wan.USWest), "c2", "ow", []OrderLine{{Item: "scarce", Qty: 2}})
	sim.Run()

	if s := app.Stock(c.Replica(wan.EUWest), "scarce"); s != -1 {
		t.Fatalf("raw stock = %d, want -1", s)
	}
	got, _ := app.ReadStock(c.Replica(wan.EUWest), "scarce")
	if got < 0 {
		t.Fatalf("read should trigger restock, got %d", got)
	}
	sim.Run()
	for _, id := range c.Replicas() {
		if v := app.Violations(c.Replica(id), []string{"scarce"}); len(v) != 0 {
			t.Fatalf("replica %s: %v", id, v)
		}
	}
}

func TestPaymentConverges(t *testing.T) {
	sim, c := newCluster(12)
	app := New(Causal)
	app.AddCustomer(c.Replica(wan.USEast), "cust", 100)
	sim.Run()
	// Concurrent payments from different sites: counters merge additively.
	app.Payment(c.Replica(wan.USEast), "cust", 30)
	app.Payment(c.Replica(wan.USWest), "cust", 20)
	sim.Run()
	for _, id := range c.Replicas() {
		if b := app.Balance(c.Replica(id), "cust"); b != 50 {
			t.Fatalf("replica %s balance = %d", id, b)
		}
	}
}

func TestConcurrentDeliveryConverges(t *testing.T) {
	sim, c := newCluster(13)
	app := New(Causal)
	app.AddProduct(c.Replica(wan.USEast), "a", 10)
	sim.Run()
	app.NewOrder(c.Replica(wan.USEast), "cust", "o1", []OrderLine{{Item: "a", Qty: 1}})
	sim.Run()

	// Two sites deliver concurrently; both add the same status to the
	// order's add-wins set, so every site reads delivered.
	app.Deliver(c.Replica(wan.USEast), "o1")
	app.Deliver(c.Replica(wan.USWest), "o1")
	sim.Run()
	var status []string
	for _, id := range c.Replicas() {
		status = append(status, app.OrderStatus(c.Replica(id), "o1"))
	}
	if status[0] != "delivered" {
		t.Fatalf("status = %q", status[0])
	}
	if status[0] != status[1] || status[1] != status[2] {
		t.Fatalf("status diverged: %v", status)
	}
}

// TestCausallyLaterDeliverWins places an order at a site that has
// committed many transactions, then delivers it at a site that has seen
// the order but committed little: the delivery happens after the order,
// so every site must end up reading "delivered", whatever either origin's
// own sequence number is.
func TestCausallyLaterDeliverWins(t *testing.T) {
	sim, c := newCluster(15)
	app := New(Causal)
	app.AddCustomer(c.Replica(wan.USEast), "cust", 100)
	for i := 0; i < 20; i++ {
		app.Payment(c.Replica(wan.USEast), "cust", 1)
	}
	app.NewOrder(c.Replica(wan.USEast), "cust", "o1", []OrderLine{{Item: "a", Qty: 1}})
	sim.Run()
	if s := app.OrderStatus(c.Replica(wan.USWest), "o1"); s != "new" {
		t.Fatalf("us-west before delivery: status = %q, want new", s)
	}
	app.Deliver(c.Replica(wan.USWest), "o1")
	sim.Run()
	for _, id := range c.Replicas() {
		if s := app.OrderStatus(c.Replica(id), "o1"); s != "delivered" {
			t.Fatalf("replica %s: status = %q, want delivered", id, s)
		}
	}
}

func TestNewOrderVsDelistIPA(t *testing.T) {
	sim, c := newCluster(14)
	app := New(IPA)
	app.AddProduct(c.Replica(wan.USEast), "gadget", 10)
	sim.Run()

	app.RemProduct(c.Replica(wan.USEast), "gadget")
	app.NewOrder(c.Replica(wan.USWest), "cust", "o7", []OrderLine{{Item: "gadget", Qty: 1}})
	sim.Run()

	for _, id := range c.Replicas() {
		if v := app.Violations(c.Replica(id), nil); len(v) != 0 {
			t.Fatalf("replica %s: %v", id, v)
		}
	}
}
