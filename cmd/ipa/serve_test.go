package main

import (
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ipa"
	"ipa/internal/analysis"
	"ipa/internal/apps/tournament"
	"ipa/internal/apps/twitter"
	"ipa/internal/engine"
	"ipa/internal/runtime"
	"ipa/internal/spec"
	"ipa/internal/store"
	"ipa/internal/wan"
)

var update = flag.Bool("update", false, "rewrite the checked-in patched specs from the recorded analyses")

// recorded is the full analysis, with the recorded repair choices, of
// every bundled application that serving starts from a checked-in
// patched spec.
var recorded = map[string]func() *analysis.Result{
	"tournament": tournament.Analysis,
	"twitter":    twitter.Analysis,
}

// TestPatchedSpecsPinAnalysis holds each checked-in <app>.patched.spec to
// the spec its recorded analysis derives, byte for byte, and the parsed
// PatchedSpec serving starts from to the same text. After a change to
// the analysis, the spec or a chooser, regenerate the files with
//
//	go test ./cmd/ipa -run TestPatchedSpecsPinAnalysis -update
//
// and review the diff.
func TestPatchedSpecsPinAnalysis(t *testing.T) {
	if got, want := slices.Sorted(maps.Keys(bundledAnalysis)), slices.Sorted(maps.Keys(recorded)); !slices.Equal(got, want) {
		t.Fatalf("apps served from a patched spec %v, apps with a recorded analysis %v: every file needs its pin", got, want)
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
				t.Fatalf("%s differs from %s.Analysis().Spec.String() (- file, + analysis):\n%s\nregenerate it with: go test ./cmd/ipa -run TestPatchedSpecsPinAnalysis -update",
					path, name, lineDiff(got, want))
			}
			if *update {
				return // this binary embeds the file as it was before the write
			}
			if got := bundledAnalysis[name]().String(); got != want {
				t.Fatalf("%s.PatchedSpec() does not print as its file (- PatchedSpec, + file):\n%s", name, lineDiff(got, want))
			}
		})
	}
}

// TestServedMountMatchesFullAnalysis holds the mount serving does (Alg. 1
// re-run on the checked-in patched spec) to a mount of the full recorded
// analysis: the same clause classes, and, on two simulated clusters
// running the same seeded call sequence, the same verdict on every call
// and the same digest after it at the calling site (at every site when
// the clusters settle, every 50 calls).
func TestServedMountMatchesFullAnalysis(t *testing.T) {
	for name, full := range recorded {
		t.Run(name, func(t *testing.T) {
			orig, res, err := bundledResult(name)
			if err != nil {
				t.Fatal(err)
			}
			served, servedSim := mountSim(t, orig, res)
			want, wantSim := mountSim(t, bundled[name](), full())

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

// TestServeRefusesNonFixedPoint: a patched spec the analysis still
// repairs is not the analysis's output, and serving refuses it, naming
// the application.
func TestServeRefusesNonFixedPoint(t *testing.T) {
	saved := bundledAnalysis["tournament"]
	t.Cleanup(func() { bundledAnalysis["tournament"] = saved })
	bundledAnalysis["tournament"] = tournament.Spec // the unrepaired original
	_, _, err := bundledResult("tournament")
	if err == nil {
		t.Fatal("serving accepted the unrepaired tournament spec as its patched spec")
	}
	if !strings.Contains(err.Error(), "tournament") || !strings.Contains(err.Error(), "fixed point") {
		t.Fatalf("refusal %q must name the app and say why", err)
	}
}

func mountSim(t *testing.T, orig *spec.Spec, res *analysis.Result) (*engine.App, *runtime.SimCluster) {
	t.Helper()
	cluster := runtime.NewSimCluster(store.NewCluster(wan.NewSim(7), wan.PaperTopology(), serveSites(3)))
	app, err := engine.Mount(orig, res, cluster)
	if err != nil {
		t.Fatal(err)
	}
	return app, cluster
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
