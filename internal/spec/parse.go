package spec

import (
	"fmt"
	"strconv"
	"strings"

	"ipa/internal/logic"
)

// Parse reads a specification in the textual format. The format is
// line-oriented at the top level:
//
//	spec NAME
//	const NAME = INT
//	rule PRED add-wins|rem-wins
//	tag NAME
//	invariant FORMULA            (one line)
//	operation NAME(Sort: a, ...) {
//	    requires FORMULA
//	    [injected] pred(a, *, ...) := true|false
//	    [injected] fn(a) += INT | fn(a) -= INT
//	}
//
// '//' starts a comment anywhere on a line. "injected" marks an effect
// the analysis added (Effect.Injected): the analysed spec prints it, so
// its text alone tells an operation's own effects from the repairs.
func Parse(src string) (*Spec, error) {
	s := New("")
	lines := strings.Split(src, "\n")
	i := 0
	for i < len(lines) {
		line := stripComment(lines[i])
		i++
		if line == "" {
			continue
		}
		word, rest := splitWord(line)
		switch word {
		case "spec":
			if rest == "" {
				return nil, fmt.Errorf("spec: line %d: missing spec name", i)
			}
			s.Name = rest

		case "tag":
			if rest == "" {
				return nil, fmt.Errorf("spec: line %d: missing tag", i)
			}
			s.Tags = append(s.Tags, rest)

		case "const":
			name, eq := splitWord(rest)
			eq = strings.TrimSpace(eq)
			if !strings.HasPrefix(eq, "=") {
				return nil, fmt.Errorf("spec: line %d: expected 'const NAME = INT'", i)
			}
			n, err := strconv.Atoi(strings.TrimSpace(eq[1:]))
			if err != nil {
				return nil, fmt.Errorf("spec: line %d: bad constant value: %v", i, err)
			}
			s.Consts[name] = n

		case "rule":
			pred, pol := splitWord(rest)
			switch strings.TrimSpace(pol) {
			case "add-wins":
				s.Rules[pred] = AddWins
			case "rem-wins":
				s.Rules[pred] = RemWins
			default:
				return nil, fmt.Errorf("spec: line %d: rule must be add-wins or rem-wins", i)
			}

		case "invariant":
			f, err := logic.Parse(rest)
			if err != nil {
				return nil, fmt.Errorf("spec: line %d: %v", i, err)
			}
			s.Invariants = append(s.Invariants, f)

		case "operation":
			op, err := parseOpHeader(rest, i)
			if err != nil {
				return nil, err
			}
			for {
				if i >= len(lines) {
					return nil, fmt.Errorf("spec: operation %s: missing closing '}'", op.Name)
				}
				body := stripComment(lines[i])
				i++
				if body == "" {
					continue
				}
				if body == "}" {
					break
				}
				kw, rest := splitWord(body)
				if kw == "requires" {
					if rest == "" {
						return nil, fmt.Errorf("spec: line %d: requires needs a formula", i)
					}
					pre, err := logic.Parse(rest)
					if err != nil {
						return nil, fmt.Errorf("spec: line %d: %v", i, err)
					}
					op.Pre = append(op.Pre, pre)
					continue
				}
				injected := kw == "injected"
				if injected {
					body = rest
				}
				eff, err := parseEffect(body, i)
				if err != nil {
					return nil, err
				}
				eff.Injected = injected
				op.Effects = append(op.Effects, eff)
			}
			s.Operations = append(s.Operations, op)

		default:
			return nil, fmt.Errorf("spec: line %d: unknown directive %q", i, word)
		}
	}
	if s.Name == "" {
		return nil, fmt.Errorf("spec: missing 'spec NAME' header")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustParse is Parse that panics on error; for embedded app specs.
func MustParse(src string) *Spec {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

func stripComment(line string) string {
	if idx := strings.Index(line, "//"); idx >= 0 {
		line = line[:idx]
	}
	return strings.TrimSpace(line)
}

func splitWord(s string) (word, rest string) {
	s = strings.TrimSpace(s)
	idx := strings.IndexAny(s, " \t")
	if idx < 0 {
		return s, ""
	}
	return s[:idx], strings.TrimSpace(s[idx:])
}

// parseOpHeader parses `name(Sort: a, Sort: b, c) {`.
func parseOpHeader(rest string, lineNo int) (*Operation, error) {
	open := strings.Index(rest, "(")
	closeIdx := strings.LastIndex(rest, ")")
	if open < 0 || closeIdx < open {
		return nil, fmt.Errorf("spec: line %d: malformed operation header", lineNo)
	}
	name := strings.TrimSpace(rest[:open])
	if name == "" {
		return nil, fmt.Errorf("spec: line %d: operation missing name", lineNo)
	}
	tail := strings.TrimSpace(rest[closeIdx+1:])
	if tail != "{" {
		return nil, fmt.Errorf("spec: line %d: operation header must end with '{'", lineNo)
	}
	op := &Operation{Name: name}
	paramSrc := strings.TrimSpace(rest[open+1 : closeIdx])
	if paramSrc == "" {
		return op, nil
	}
	var cur logic.Sort
	for _, part := range strings.Split(paramSrc, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("spec: line %d: empty parameter", lineNo)
		}
		if idx := strings.Index(part, ":"); idx >= 0 {
			cur = logic.Sort(strings.TrimSpace(part[:idx]))
			part = strings.TrimSpace(part[idx+1:])
		}
		if cur == "" {
			return nil, fmt.Errorf("spec: line %d: parameter %q has no sort", lineNo, part)
		}
		if part == "" {
			return nil, fmt.Errorf("spec: line %d: sort %q has no parameter name", lineNo, cur)
		}
		op.Params = append(op.Params, logic.Var{Name: part, Sort: cur})
	}
	return op, nil
}

// parseEffect parses one effect line.
func parseEffect(line string, lineNo int) (Effect, error) {
	for _, opTok := range []struct {
		tok  string
		kind EffectKind
		sign int
	}{
		{":=", BoolAssign, 0},
		{"+=", NumDelta, 1},
		{"-=", NumDelta, -1},
	} {
		idx := strings.Index(line, opTok.tok)
		if idx < 0 {
			continue
		}
		head := strings.TrimSpace(line[:idx])
		valSrc := strings.TrimSpace(line[idx+len(opTok.tok):])
		pred, args, err := parsePredApp(head, lineNo)
		if err != nil {
			return Effect{}, err
		}
		e := Effect{Kind: opTok.kind, Pred: pred, Args: args}
		if opTok.kind == BoolAssign {
			switch valSrc {
			case "true":
				e.Val = true
			case "false":
				e.Val = false
			default:
				return Effect{}, fmt.Errorf("spec: line %d: boolean effect needs true/false, got %q", lineNo, valSrc)
			}
		} else {
			n, err := strconv.Atoi(valSrc)
			if err != nil || n <= 0 {
				return Effect{}, fmt.Errorf("spec: line %d: numeric effect needs a positive integer, got %q", lineNo, valSrc)
			}
			e.Delta = opTok.sign * n
		}
		return e, nil
	}
	return Effect{}, fmt.Errorf("spec: line %d: effect must use :=, += or -=", lineNo)
}

// parsePredApp parses `pred(a, *, b)`.
func parsePredApp(src string, lineNo int) (string, []logic.Term, error) {
	open := strings.Index(src, "(")
	if open < 0 {
		// 0-ary predicate.
		if !validIdent(src) {
			return "", nil, fmt.Errorf("spec: line %d: bad predicate %q", lineNo, src)
		}
		return src, nil, nil
	}
	if !strings.HasSuffix(src, ")") {
		return "", nil, fmt.Errorf("spec: line %d: missing ')' in %q", lineNo, src)
	}
	pred := strings.TrimSpace(src[:open])
	if !validIdent(pred) {
		return "", nil, fmt.Errorf("spec: line %d: bad predicate %q", lineNo, pred)
	}
	inner := strings.TrimSpace(src[open+1 : len(src)-1])
	if inner == "" {
		return pred, nil, nil
	}
	var args []logic.Term
	for _, part := range strings.Split(inner, ",") {
		part = strings.TrimSpace(part)
		switch {
		case part == "*":
			args = append(args, logic.Wild())
		case validIdent(part):
			args = append(args, logic.V(part))
		default:
			return "", nil, fmt.Errorf("spec: line %d: bad argument %q", lineNo, part)
		}
	}
	return pred, args, nil
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
