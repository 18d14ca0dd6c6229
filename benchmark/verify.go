package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"ipa/internal/server"
)

// maxRepairRounds bounds the REPAIR + SETTLE rounds after a run. A
// repair's own writes must replicate before the next read, so one round
// is rarely the last; scratch runs needed a third about once in 25.
const maxRepairRounds = 4

// errDiverged marks a run whose sites still hold different tuples after
// the last repair round: acknowledged calls were applied, no invariant
// need be broken, but the replicas will never agree. See README.md,
// "Known defect", for the one this benchmark has caught.
var errDiverged = errors.New("sites diverged")

// verification is what the quiescence protocol measured on the way.
type verification struct {
	drain        time.Duration // SETTLE right after the last reply: replication backlog at load stop
	repairRounds int
	check        time.Duration
	digest       string // the digest every site agreed on
}

// verify runs the quiescence protocol over a control connection: SETTLE;
// REPAIR + SETTLE rounds until DIGEST is identical at every site;
// STABILIZE; CHECK must report no violation; DIGEST must still agree.
func verify(ctl *server.Client, tr *tracer, parent int) (verification, error) {
	var v verification
	timed := func(name string, args ...string) (time.Duration, error) {
		id := tr.begin(name, parent, 0)
		t0 := time.Now()
		err := ctl.DoOK(args...)
		tr.end(id)
		return time.Since(t0), err
	}
	var err error
	if v.drain, err = timed("verify.settle", "SETTLE"); err != nil {
		return v, err
	}
	for {
		if _, err = timed("verify.repair", "REPAIR", appName); err != nil {
			return v, err
		}
		if _, err = timed("verify.settle", "SETTLE"); err != nil {
			return v, err
		}
		v.repairRounds++
		lines, err := digests(ctl, tr, parent)
		if err != nil {
			return v, err
		}
		diff := digestDiff(lines)
		if diff == "" {
			break
		}
		if v.repairRounds == maxRepairRounds {
			return v, fmt.Errorf("%w: still different after %d repair rounds:\n%s", errDiverged, maxRepairRounds, diff)
		}
	}
	if _, err = timed("verify.stabilize", "STABILIZE"); err != nil {
		return v, err
	}
	id := tr.begin("verify.check", parent, 0)
	t0 := time.Now()
	rp, err := ctl.Do("CHECK", appName)
	tr.end(id)
	v.check = time.Since(t0)
	if err == nil {
		err = rp.Err()
	}
	if err != nil {
		return v, fmt.Errorf("CHECK: %w", err)
	}
	if viol := rp.Strings(); len(viol) > 0 {
		return v, fmt.Errorf("invariant violations after the run:\n  %s", strings.Join(viol, "\n  "))
	}
	lines, err := digests(ctl, tr, parent)
	if err != nil {
		return v, err
	}
	if diff := digestDiff(lines); diff != "" {
		return v, fmt.Errorf("%w after the final STABILIZE:\n%s", errDiverged, diff)
	}
	_, v.digest = splitDigest(lines[0])
	return v, nil
}

// digests asks for DIGEST: one "<site> <tuple> <tuple> ..." line per site.
func digests(ctl *server.Client, tr *tracer, parent int) ([]string, error) {
	id := tr.begin("verify.digest", parent, 0)
	defer tr.end(id)
	rp, err := ctl.Do("DIGEST", appName)
	if err == nil {
		err = rp.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("DIGEST: %w", err)
	}
	lines := rp.Strings()
	if len(lines) == 0 {
		return nil, errors.New("DIGEST: empty reply")
	}
	return lines, nil
}

func splitDigest(line string) (site, digest string) {
	site, digest, _ = strings.Cut(line, " ")
	return site, digest
}

// digestDiff compares the per-site DIGEST lines. It returns "" when
// every site holds the same tuples, and otherwise one line per tuple
// that some site lacks, naming the sites that have it and those that do
// not — the report a failed verification prints.
func digestDiff(lines []string) string {
	sites := make([]string, len(lines))
	has := map[string][]bool{} // tuple → per-site presence
	same := true
	for i, line := range lines {
		site, digest := splitDigest(line)
		sites[i] = site
		if _, first := splitDigest(lines[0]); digest != first {
			same = false
		}
		for _, tuple := range strings.Fields(digest) {
			if has[tuple] == nil {
				has[tuple] = make([]bool, len(lines))
			}
			has[tuple][i] = true
		}
	}
	if same {
		return ""
	}
	var out []string
	for tuple, at := range has {
		var in, notIn []string
		for i, ok := range at {
			if ok {
				in = append(in, sites[i])
			} else {
				notIn = append(notIn, sites[i])
			}
		}
		if len(notIn) > 0 {
			out = append(out, fmt.Sprintf("  %s: at %s, not at %s", tuple, strings.Join(in, ","), strings.Join(notIn, ",")))
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
