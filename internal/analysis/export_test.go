package analysis

import (
	"ipa/internal/logic"
	"ipa/internal/spec"
)

// Hooks for the external tests (package analysis_test), which import the
// bundled applications and so cannot live inside this package.

// ApplyRepair lets the differential test replay Run's repair loop.
var ApplyRepair = applyRepair

// PairBindings lists the bindings IsConflicting enumerates for a pair.
func PairBindings(s *spec.Spec, op1, op2 *spec.Operation, opts Options) [][2]map[string]string {
	dom := domainFor(s, opts.withDefaults().Scope)
	var out [][2]map[string]string
	for _, b1 := range enumBindings(op1.Params, dom, true) {
		for _, b2 := range enumBindings(op2.Params, dom, false) {
			out = append(out, [2]map[string]string{b1, b2})
		}
	}
	return out
}

// Session exposes a session's two verdicts.
type Session struct{ ss *session }

func NewSession(s *spec.Spec, opts Options) (*Session, error) {
	ss, err := newSession(s, opts.withDefaults())
	return &Session{ss}, err
}

// Conflicting is the session's conflict verdict for one binding, against
// every clause or only the boolean ones (the repair search's filter).
func (s *Session) Conflicting(op1, op2 *spec.Operation, b1, b2 map[string]string, boolOnly bool) (bool, error) {
	var filter clauseFilter
	if boolOnly {
		filter = boolClausesOnly
	}
	return s.ss.conflicting(op1, op2, b1, b2, s.ss.checked(filter))
}

func (s *Session) Executable(op1, op2 *spec.Operation, b1, b2 map[string]string) (bool, error) {
	return s.ss.executable(op1, op2, b1, b2)
}

// FreshConflict is checkBinding, the witness path: one fresh encoder for
// one binding.
func FreshConflict(s *spec.Spec, op1, op2 *spec.Operation, b1, b2 map[string]string, opts Options, boolOnly bool) (*Conflict, error) {
	sig, err := s.Signature()
	if err != nil {
		return nil, err
	}
	clauses := logic.Clauses(s.Invariant())
	var checked []logic.Formula
	for _, cl := range clauses {
		if !boolOnly || boolClausesOnly(cl) {
			checked = append(checked, cl)
		}
	}
	return checkBinding(s, domainFor(s, opts.withDefaults().Scope), sig, clauses, checked, op1, op2, b1, b2)
}
