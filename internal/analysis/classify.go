package analysis

import (
	"ipa/internal/logic"
	"ipa/internal/spec"
)

// InvariantClass is one of the paper's Table 1 invariant categories.
type InvariantClass string

// Invariant classes (paper §5.1.1).
const (
	SequentialIDs         InvariantClass = "Sequential id."
	UniqueIDs             InvariantClass = "Unique id."
	NumericInvariant      InvariantClass = "Numeric inv."
	AggregationConstraint InvariantClass = "Aggreg. const."
	AggregationInclusion  InvariantClass = "Aggreg. incl."
	ReferentialIntegrity  InvariantClass = "Ref. integrity"
	Disjunction           InvariantClass = "Disjunctions"
)

// AllClasses lists the classes in the paper's Table 1 row order.
var AllClasses = []InvariantClass{
	SequentialIDs, UniqueIDs, NumericInvariant, AggregationConstraint,
	AggregationInclusion, ReferentialIntegrity, Disjunction,
}

// Support is a cell of Table 1.
type Support string

// Support levels.
const (
	SupportYes  Support = "Yes"
	SupportNo   Support = "No"
	SupportComp Support = "Comp."
	SupportNone Support = "—"
)

// ClassifiedClause is the classification of one invariant clause.
type ClassifiedClause struct {
	Clause logic.Formula
	Class  InvariantClass
	// IConfluent reports whether the original (unmodified) operations are
	// already I-confluent with respect to this clause alone.
	IConfluent bool
	// IPASupport is how IPA handles the clause: effect repairs (Yes),
	// compensations (Comp.), or not at all (No).
	IPASupport Support
}

// ClassifyClause determines the Table 1 category of a single clause from
// its syntactic shape.
func ClassifyClause(cl logic.Formula) InvariantClass {
	body := cl
	if fa, ok := body.(*logic.Forall); ok {
		body = fa.Body
	}
	if cmp, ok := body.(*logic.Cmp); ok {
		if containsCountTerm(cmp.L) || containsCountTerm(cmp.R) {
			return AggregationConstraint
		}
		return NumericInvariant
	}
	switch g := body.(type) {
	case *logic.Implies:
		if containsDisjunction(g.B) {
			return Disjunction
		}
		return ReferentialIntegrity
	case *logic.Not, *logic.Or:
		// not(A and B) ≡ ¬A or ¬B: a disjunction over predicate states.
		return Disjunction
	}
	return AggregationInclusion
}

func containsCountTerm(t logic.NumTerm) bool {
	switch u := t.(type) {
	case *logic.Count:
		return true
	case *logic.NumBin:
		return containsCountTerm(u.L) || containsCountTerm(u.R)
	}
	return false
}

func containsDisjunction(f logic.Formula) bool {
	switch g := f.(type) {
	case *logic.Or:
		return true
	case *logic.And:
		for _, c := range g.L {
			if containsDisjunction(c) {
				return true
			}
		}
	case *logic.Not:
		return containsDisjunction(g.F)
	case *logic.Implies:
		return containsDisjunction(g.A) || containsDisjunction(g.B)
	}
	return false
}

// Classify analyses every invariant clause of the spec: its class, whether
// the unmodified operations are I-confluent for it, and how IPA supports
// it. Tag-only classes (unique/sequential identifiers, which live in the
// ID-generation scheme rather than the state invariants) are reported from
// spec tags.
func Classify(s *spec.Spec, opts Options) ([]ClassifiedClause, error) {
	opts = opts.withDefaults()
	var out []ClassifiedClause

	for _, tag := range s.Tags {
		switch tag {
		case "unique-ids":
			out = append(out, ClassifiedClause{Class: UniqueIDs, IConfluent: true, IPASupport: SupportYes})
		case "sequential-ids":
			out = append(out, ClassifiedClause{Class: SequentialIDs, IConfluent: false, IPASupport: SupportNo})
		case "aggregation-inclusion":
			out = append(out, ClassifiedClause{Class: AggregationInclusion, IConfluent: true, IPASupport: SupportYes})
		}
	}

	for _, cl := range logic.Clauses(s.Invariant()) {
		cc := ClassifiedClause{Clause: cl, Class: ClassifyClause(cl)}

		// I-confluence of the original operations w.r.t. this clause.
		sub := s.Clone()
		sub.Invariants = []logic.Formula{cl}
		conflict, err := anyConflict(sub, opts)
		if err != nil {
			return nil, err
		}
		cc.IConfluent = conflict == nil

		switch {
		case cc.IConfluent:
			cc.IPASupport = SupportYes
		case logic.HasCount(cl):
			// Numeric route: supported iff a compensation can be built.
			if _, ok := SynthesizeCompensation(conflict); ok {
				cc.IPASupport = SupportComp
			} else {
				cc.IPASupport = SupportNo
			}
		default:
			// Effect-repair route: supported iff Run leaves no unsolved
			// boolean conflicts for this clause.
			res, err := Run(sub, opts)
			if err != nil {
				return nil, err
			}
			if len(res.Unsolved) == 0 {
				cc.IPASupport = SupportYes
			} else {
				cc.IPASupport = SupportNo
			}
		}
		out = append(out, cc)
	}
	return out, nil
}

// anyConflict returns the first conflict among all pairs, or nil.
func anyConflict(s *spec.Spec, opts Options) (*Conflict, error) {
	return findFirstConflict(s, opts, map[string]bool{}, nil, &groundings{})
}

// ClassSupport aggregates per-clause results into the Table 1 row for one
// application: for each class present in the spec, whether weak
// consistency alone preserves it (I-confluent) and how IPA handles it.
type ClassSupport struct {
	Class      InvariantClass
	Present    bool
	IConfluent Support
	IPA        Support
}

// SummarizeClasses folds classified clauses into Table 1 rows.
func SummarizeClasses(ccs []ClassifiedClause) []ClassSupport {
	byClass := map[InvariantClass]*ClassSupport{}
	for _, c := range AllClasses {
		byClass[c] = &ClassSupport{Class: c, IConfluent: SupportNone, IPA: SupportNone}
	}
	for _, cc := range ccs {
		row := byClass[cc.Class]
		row.Present = true
		conf := SupportNo
		if cc.IConfluent {
			conf = SupportYes
		}
		// A class is I-confluent only if every clause of the class is.
		if row.IConfluent == SupportNone || (row.IConfluent == SupportYes && conf == SupportYes) {
			row.IConfluent = conf
		} else if conf == SupportNo {
			row.IConfluent = SupportNo
		}
		// IPA support: weakest across clauses (No < Comp. < Yes).
		row.IPA = weakestSupport(row.IPA, cc.IPASupport)
	}
	out := make([]ClassSupport, 0, len(AllClasses))
	for _, c := range AllClasses {
		out = append(out, *byClass[c])
	}
	return out
}

func weakestSupport(a, b Support) Support {
	rank := func(s Support) int {
		switch s {
		case SupportNo:
			return 0
		case SupportComp:
			return 1
		case SupportYes:
			return 2
		}
		return 3 // SupportNone: not yet seen
	}
	if rank(b) < rank(a) {
		return b
	}
	return a
}
