package crdt

import (
	"fmt"
	"reflect"
)

// The constructor registry is the single place that knows how to build an
// empty CRDT instance — by kind name (the Type() string) or from a
// replicated operation. Every replication backend shares it: the
// simulator-backed store instantiates remotely created objects through
// NewForOp, the TCP transport decodes the same operations from the wire
// (each op type's wire codec, checked below), and the typed transaction
// helpers of package store create local objects through Ctor. Before the
// registry the same kind→constructor mapping was duplicated in
// store.newForOp, the store wire setup, and per-application mk closures.

// Kind names. Each equals the Type() string of the corresponding CRDT.
const (
	KindAWSet          = "aw-set"
	KindRWSet          = "rw-set"
	KindPNCounter      = "pn-counter"
	KindBoundedCounter = "bounded-counter"
	// KindCompSet is registered for op routing only: a Compensation Set
	// carries its bound in the object, so it cannot be constructed empty
	// from a remote operation — it must be seeded at every replica (see
	// store.SeedCompSet). Its ops are plain AWSet ops, so they route to
	// KindAWSet; the constant exists for Type() comparisons.
	KindCompSet = "comp-set"
)

var (
	ctors   = map[string]func() CRDT{}
	opKinds = map[reflect.Type]string{}
)

// register installs the constructor for one kind and associates the
// operation types that create objects of that kind when they arrive at a
// replica that has no object under the key yet.
func register(kind string, ctor func() CRDT, ops ...Op) {
	if _, dup := ctors[kind]; dup {
		panic("crdt: duplicate kind " + kind)
	}
	ctors[kind] = ctor
	for _, op := range ops {
		t := reflect.TypeOf(op)
		if k, dup := opKinds[t]; dup {
			panic(fmt.Sprintf("crdt: op %v registered for both %s and %s", t, k, kind))
		}
		opKinds[t] = kind
		// Every replicable op must also speak the binary wire codec
		// (wire.go): catching a missing MarshalWire/decoder here means a
		// new op type fails at init — in every test run — instead of
		// failing to replicate on a live mesh.
		checkWireCodec(op)
	}
}

func init() {
	register(KindAWSet, func() CRDT { return NewAWSet() },
		AWAddOp{}, AWRemoveOp{})
	register(KindRWSet, func() CRDT { return NewRWSet() },
		RWAddOp{}, RWRemoveOp{}, RWRemoveWhereOp{Pred: MatchPattern("")}) // a wildcard remove decodes only with an indexable pattern
	register(KindPNCounter, func() CRDT { return NewPNCounter() },
		CounterOp{})
	register(KindBoundedCounter, func() CRDT { return NewBoundedCounter(nil) },
		BCConsumeOp{}, BCGrantOp{}, BCTransferOp{})
}

// Ctor returns the constructor for a kind, for lazily creating an object
// on first local use (the mk argument of the store's Object accessor).
func Ctor(kind string) func() CRDT {
	ctor, ok := ctors[kind]
	if !ok {
		panic("crdt: no constructor registered for kind " + kind)
	}
	return ctor
}

// KindForOp reports which CRDT kind integrates the operation.
func KindForOp(op Op) (string, bool) {
	kind, ok := opKinds[reflect.TypeOf(op)]
	return kind, ok
}

// NewForOp creates the right empty CRDT for a remotely created object:
// the first operation to arrive under an unknown key determines the type.
func NewForOp(op Op) CRDT {
	kind, ok := KindForOp(op)
	if !ok {
		panic(fmt.Sprintf("crdt: no constructor for op %T", op))
	}
	return ctors[kind]()
}
