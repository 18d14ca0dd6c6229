package crdt

import "ipa/internal/clock"

// LWWRegister is a last-writer-wins register. Writes are ordered by a
// logical timestamp (the store's per-transaction sequence) with the
// replica ID as a deterministic tie-break, so all replicas pick the same
// winner regardless of delivery order.
type LWWRegister struct {
	value string
	ts    uint64
	by    clock.ReplicaID
	set   bool
}

// NewLWWRegister returns an unset register.
func NewLWWRegister() *LWWRegister { return &LWWRegister{} }

// Type implements CRDT.
func (r *LWWRegister) Type() string { return "lww-register" }

// LWWSetOp writes Value at logical time TS.
type LWWSetOp struct {
	Value string
	TS    uint64
	Tag   clock.EventID
}

// ID implements Op.
func (o LWWSetOp) ID() clock.EventID { return o.Tag }

// PrepareSet builds a write; ts must be monotone at the origin (the store
// uses the transaction's logical commit time).
func (r *LWWRegister) PrepareSet(value string, ts uint64, tag clock.EventID) LWWSetOp {
	return LWWSetOp{Value: value, TS: ts, Tag: tag}
}

// Apply implements CRDT.
func (r *LWWRegister) Apply(op Op) {
	o, ok := op.(LWWSetOp)
	if !ok {
		return
	}
	if !r.set || o.TS > r.ts || (o.TS == r.ts && r.by < o.Tag.Replica) {
		r.value, r.ts, r.by, r.set = o.Value, o.TS, o.Tag.Replica, true
	}
}

// Compact implements CRDT.
func (r *LWWRegister) Compact(clock.Vector) {}

// Value returns the current value and whether the register was ever set.
func (r *LWWRegister) Value() (string, bool) { return r.value, r.set }
