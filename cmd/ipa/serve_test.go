package main

import (
	"errors"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ipa"
	"ipa/internal/analysis"
	"ipa/internal/apps"
	"ipa/internal/apps/ticket"
	"ipa/internal/apps/tournament"
	"ipa/internal/apps/tpcw"
	"ipa/internal/apps/twitter"
	"ipa/internal/engine"
	"ipa/internal/runtime"
	"ipa/internal/server"
	"ipa/internal/spec"
	"ipa/internal/store"
	"ipa/internal/wan"
)

var update = flag.Bool("update", false, "rewrite the checked-in patched specs from the recorded analyses")

// recorded is the full analysis of every bundled application, with its
// recorded repair choices where it has them (the paper's figures): the
// search whose output internal/apps/<app>/<app>.patched.spec records.
var recorded = map[string]func() *analysis.Result{
	"tournament": tournament.Analysis,
	"twitter":    twitter.Analysis,
	"ticket":     sync.OnceValue(func() *analysis.Result { return mustAnalyze(ticket.Spec()) }),
	"tpcw":       sync.OnceValue(func() *analysis.Result { return mustAnalyze(tpcw.Spec()) }),
}

func mustAnalyze(s *spec.Spec) *analysis.Result {
	res, err := analysis.Run(s, analysis.Options{})
	if err != nil {
		panic(err)
	}
	return res
}

// TestPatchedSpecsPinAnalysis holds each checked-in <app>.patched.spec,
// and the embedded copy `ipa serve -app` mounts, to the spec its
// recorded analysis derives, byte for byte. After a change to the
// analysis, a spec or a chooser, regenerate the files with
//
//	go test ./cmd/ipa -run TestPatchedSpecsPinAnalysis -update
//
// and review the diff.
func TestPatchedSpecsPinAnalysis(t *testing.T) {
	if got, want := slices.Sorted(maps.Keys(recorded)), slices.Sorted(maps.Keys(bundled)); !slices.Equal(got, want) {
		t.Fatalf("apps with a recorded analysis %v, bundled apps %v: every app needs its pinned file", got, want)
	}
	for name, res := range recorded {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("..", "..", "internal", "apps", name, name+".patched.spec")
			want := res().Spec.String()
			if *update {
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := string(data); got != want {
				t.Fatalf("%s differs from the analysis's output (- file, + analysis):\n%s\nregenerate it with: go test ./cmd/ipa -run TestPatchedSpecsPinAnalysis -update",
					path, lineDiff(got, want))
			}
			if *update {
				return // this binary embeds the file as it was before the write
			}
			if got, _ := apps.Patched(name); got != want {
				t.Fatalf("the embedded %s differs from its file (- embedded, + file):\n%s", path, lineDiff(got, want))
			}
		})
	}
}

// TestServedMountMatchesFullAnalysis holds the mount serving does
// (Server.Mount of the checked-in patched spec: Alg. 1 re-run on it) to
// a mount of the full recorded analysis: the same clause classes, and,
// with each analysis mounted on a simulated cluster running the same
// seeded call sequence, the same verdict on every call and the same
// digest after it at the calling site (at every site when the clusters
// settle, every 50 calls).
func TestServedMountMatchesFullAnalysis(t *testing.T) {
	for name, full := range recorded {
		t.Run(name, func(t *testing.T) {
			srv := newServer(t)
			src, _ := apps.Patched(name)
			got, err := srv.Mount(src, true)
			if err != nil {
				t.Fatal(err)
			}
			mounted, _ := srv.App(got)
			servedSim := newSim()
			served, err := engine.Mount(nil, mounted.Result(), servedSim)
			if err != nil {
				t.Fatal(err)
			}
			wantSim := newSim()
			want, err := engine.Mount(nil, full(), wantSim)
			if err != nil {
				t.Fatal(err)
			}

			if got, exp := clauseClasses(served), clauseClasses(want); !slices.Equal(got, exp) {
				t.Fatalf("clause classes:\nserved %v\nfull   %v", got, exp)
			}
			ops := served.Operations()
			if exp := want.Operations(); !slices.Equal(ops, exp) {
				t.Fatalf("operations: served %v, full %v", ops, exp)
			}
			sites := servedSim.Replicas()
			rng := rand.New(rand.NewSource(1))
			refused := 0
			for i := 0; i < 600; i++ {
				opName := ops[rng.Intn(len(ops))]
				op, _ := served.Spec().Operation(opName)
				args := make([]string, len(op.Params))
				for j, p := range op.Params {
					args[j] = fmt.Sprintf("%s%d", strings.ToLower(string(p.Sort)), rng.Intn(3))
				}
				site := sites[rng.Intn(len(sites))]
				gotErr := served.Call(servedSim.Replica(site), opName, args...)
				wantErr := want.Call(wantSim.Replica(site), opName, args...)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("call %d %s%v at %s: served %v, full %v", i, opName, args, site, gotErr, wantErr)
				}
				if gotErr != nil {
					refused++
				}
				at := []ipa.ReplicaID{site}
				if i%50 == 49 {
					settle(t, servedSim, wantSim)
					at = sites
				}
				for _, site := range at {
					if got, exp := served.Digest(servedSim.Replica(site)), want.Digest(wantSim.Replica(site)); got != exp {
						t.Fatalf("after call %d %s%v: digest at %s: served %s, full %s", i, opName, args, site, got, exp)
					}
				}
			}
			t.Logf("%s: 600 calls, %d refused, digests equal after each", name, refused)
		})
	}
}

// TestServeRefusesNonFixedPoint: a spec that carries injected effects
// claims to be the analysis's output; one the analysis still repairs is
// not, and MOUNT refuses it, naming the pair. The text is the tournament
// output with disenroll's two injected match wipes deleted.
func TestServeRefusesNonFixedPoint(t *testing.T) {
	src, _ := apps.Patched("tournament")
	lines := strings.Split(src, "\n")
	kept := slices.DeleteFunc(slices.Clone(lines), func(line string) bool {
		return strings.HasPrefix(strings.TrimSpace(line), "injected inMatch(")
	})
	if deleted := len(lines) - len(kept); deleted != 2 {
		t.Fatalf("deleted %d injected inMatch wipes from tournament.patched.spec, want disenroll's 2", deleted)
	}
	srv := newServer(t)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown() })
	c, err := server.Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rp, err := c.Do("MOUNT", strings.Join(kept, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rp.Kind != '-' {
		t.Fatalf("MOUNT accepted a tournament spec without disenroll's injected wipes: %+v", rp)
	}
	if !strings.Contains(rp.Str, "fixed point") || !strings.Contains(rp.Str, "disenroll ∥ do_match") {
		t.Fatalf("refusal %q must say why and name disenroll ∥ do_match", rp.Str)
	}
}

// TestServeAppRefusesRepairedText: ticket's patched spec carries no
// injected mark (its analysis applies no repair), yet it is the
// analysis's output, so the -app path holds it to being a fixed point.
// With rem_event added, buy ∥ rem_event conflicts on sold(k, e) =>
// event(e): the -app path refuses the text, while MOUNT, which cannot
// know where a text without marks came from, analyses and repairs it.
func TestServeAppRefusesRepairedText(t *testing.T) {
	src, _ := apps.Patched("ticket")
	if strings.Contains(src, "injected") {
		t.Fatal("ticket.patched.spec carries an injected mark; this test needs one without")
	}
	conflicted := src + "\noperation rem_event(Event: e) {\n    event(e) := false\n}\n"
	_, err := mountApp(newServer(t), "ticket", conflicted)
	if err == nil || !strings.Contains(err.Error(), "fixed point") || !strings.Contains(err.Error(), "rem_event") {
		t.Fatalf("-app mounted ticket with rem_event added, or refused it without saying why: %v", err)
	}
	if _, err := newServer(t).Mount(conflicted, false); err != nil {
		t.Fatalf("MOUNT of the unmarked text must analyse and repair it: %v", err)
	}
	if _, err := mountApp(newServer(t), "ticket", src); err != nil {
		t.Fatalf("-app refused ticket's own patched spec: %v", err)
	}
}

// TestServeBackendFlag: ipa serve runs on sockets only. -backend sim is
// refused with an error that names netrepl, -backend netrepl parses and
// reaches the next check, and -seed, which only the simulator read, is
// no flag at all.
func TestServeBackendFlag(t *testing.T) {
	if err := runServe([]string{"-backend", "sim", "-app", "tournament"}); err == nil || !strings.Contains(err.Error(), "netrepl") {
		t.Fatalf("-backend sim: %v, want an error naming netrepl", err)
	}
	if err := runServe([]string{"-backend", "netrepl"}); err == nil || !strings.Contains(err.Error(), "nothing to serve") {
		t.Fatalf("-backend netrepl: %v, want it accepted and the missing -app reported", err)
	}
	if err := runServe([]string{"-seed", "7", "-app", "tournament"}); !errors.Is(err, errReported) {
		t.Fatalf("-seed 7: %v, want a flag error", err)
	}
}

// newServer builds a server over a one-site socket cluster.
func newServer(t *testing.T) *server.Server {
	t.Helper()
	c, err := runtime.NewNetCluster(wan.SiteIDs(1), runtime.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return server.New(c, server.Config{})
}

func newSim() *runtime.SimCluster {
	return runtime.NewSimCluster(store.NewCluster(wan.NewSim(7), wan.PaperTopology(), wan.SiteIDs(3)))
}

func settle(t *testing.T, clusters ...*runtime.SimCluster) {
	t.Helper()
	for _, c := range clusters {
		if err := c.Settle(); err != nil {
			t.Fatal(err)
		}
	}
}

func clauseClasses(app *engine.App) []string {
	var out []string
	for _, cl := range app.Clauses() {
		out = append(out, fmt.Sprintf("%s: %v", cl.Formula, cl.Class))
	}
	return out
}

// lineDiff renders the lines a and b do not share, in order, from their
// longest common subsequence: "-" for a's, "+" for b's.
func lineDiff(a, b string) string {
	x, y := strings.Split(a, "\n"), strings.Split(b, "\n")
	// lcs[i][j] is the longest common subsequence of x[i:] and y[j:].
	lcs := make([][]int, len(x)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(y)+1)
	}
	for i := len(x) - 1; i >= 0; i-- {
		for j := len(y) - 1; j >= 0; j-- {
			if x[i] == y[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var out strings.Builder
	i, j := 0, 0
	for i < len(x) || j < len(y) {
		switch {
		case i < len(x) && j < len(y) && x[i] == y[j]:
			i, j = i+1, j+1
		case j < len(y) && (i == len(x) || lcs[i][j+1] >= lcs[i+1][j]):
			fmt.Fprintf(&out, "+%d: %s\n", j+1, y[j])
			j++
		default:
			fmt.Fprintf(&out, "-%d: %s\n", i+1, x[i])
			i++
		}
	}
	return out.String()
}
