package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestCallGenDeterministicPerSeed(t *testing.T) {
	for _, p := range []pools{smallPools, widePools} {
		a, b := stream(p, 42, 2000), stream(p, 42, 2000)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("pools %+v: the same seed generated two different streams", p)
		}
		if reflect.DeepEqual(a, stream(p, 43, 2000)) {
			t.Fatalf("pools %+v: seeds 42 and 43 generated the same stream", p)
		}
	}
	// Connections draw from seed + 7919·conn, so they differ from each
	// other and conn 1 of seed s is conn 0 of seed s + 7919.
	c0, c1 := newCallGen(smallPools, 42, 0), newCallGen(smallPools, 42, 1)
	shifted := newCallGen(smallPools, 42+seedStride, 0)
	same := true
	for i := 0; i < 100; i++ {
		x, y, z := c0.next(), c1.next(), shifted.next()
		same = same && reflect.DeepEqual(x, y)
		if !reflect.DeepEqual(y, z) {
			t.Fatalf("call %d: conn 1 of seed 42 drew %v, conn 0 of seed 42+%d drew %v", i, y, seedStride, z)
		}
	}
	if same {
		t.Fatal("conn 0 and conn 1 generated the same stream")
	}
}

func TestCallGenPoolsAndMix(t *testing.T) {
	if mixWeight != 100 {
		t.Fatalf("the mix is written in percent but its weights sum to %d", mixWeight)
	}
	enrolling := map[string]bool{}
	for _, name := range playerNames[:enrolPlayers] {
		enrolling[name] = true
	}
	for _, w := range workloads {
		const n = 50_000
		seen := map[string]int{}
		seeded := map[string]bool{}
		for _, call := range w.pools.seedCalls() {
			seeded[call[1]] = true
		}
		for _, call := range stream(w.pools, 7, n) {
			seen[call[0]]++
			switch call[0] {
			case "enroll", "disenroll":
				if !enrolling[call[1]] {
					t.Fatalf("%s: %v enrols a player outside the first %d", w.name, call, enrolPlayers)
				}
			case "do_match":
				if !enrolling[call[1]] || !enrolling[call[2]] {
					t.Fatalf("%s: %v matches a player outside the first %d", w.name, call, enrolPlayers)
				}
			}
			if call[0] != "add_player" && call[0] != "add_tourn" {
				if tourn := call[len(call)-1]; !seeded[tourn] {
					t.Fatalf("%s: %v names a tournament that was not seeded", w.name, call)
				}
			}
		}
		for _, m := range mix {
			got := 100 * float64(seen[m.op]) / n
			if d := got - float64(m.weight); d < -1 || d > 1 {
				t.Errorf("%s: %s is %.1f %% of the stream, the mix says %d %%", w.name, m.op, got, m.weight)
			}
		}
	}
	// serve-wide does not grow: add_player and add_tourn stay within the
	// seeded state.
	seeded := map[string]bool{}
	for _, call := range widePools.seedCalls() {
		seeded[call[1]] = true
	}
	for _, call := range stream(widePools, 7, 20_000) {
		if (call[0] == "add_player" || call[0] == "add_tourn") && !seeded[call[1]] {
			t.Fatalf("serve-wide: %v adds state that was not seeded", call)
		}
	}
}

func TestPercentile(t *testing.T) {
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1) // 1..100
	}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(hundred, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
	if got := percentile([]int64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("nearest-rank median of 1..4 = %d, want 2", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
	if got := samplesBeyond(100_000, 99); got != 1000 {
		t.Errorf("samplesBeyond(100000, 99) = %d, want 1000", got)
	}
}

func TestDecayRatio(t *testing.T) {
	// 40 completions in the first quarter of a 1000 ns window, 10 in the last.
	var done []int64
	for i := 0; i < 40; i++ {
		done = append(done, int64(i))
	}
	for i := 0; i < 25; i++ {
		done = append(done, 500)
	}
	for i := 0; i < 10; i++ {
		done = append(done, 990)
	}
	if got := decayRatio(done, 1000); got != 0.25 {
		t.Errorf("decayRatio = %v, want 0.25", got)
	}
}

func TestDigestDiff(t *testing.T) {
	agree := []string{
		"us-east enrolled(p1,t0) player(p1) tournament(t0)",
		"us-west enrolled(p1,t0) player(p1) tournament(t0)",
		"eu-west enrolled(p1,t0) player(p1) tournament(t0)",
	}
	if diff := digestDiff(agree); diff != "" {
		t.Errorf("identical digests reported a difference:\n%s", diff)
	}
	if diff := digestDiff(agree[:1]); diff != "" {
		t.Errorf("a single site reported a difference:\n%s", diff)
	}
	differ := []string{
		"us-east enrolled(p1,t0) inMatch(p1,p2,t0) player(p1)",
		"us-west enrolled(p1,t0) player(p1)",
		"eu-west enrolled(p1,t0) inMatch(p1,p2,t0) player(p1) player(p9)",
	}
	want := "  inMatch(p1,p2,t0): at us-east,eu-west, not at us-west\n" +
		"  player(p9): at eu-west, not at us-east,us-west"
	if diff := digestDiff(differ); diff != want {
		t.Errorf("differing tuples report:\n%s\nwant:\n%s", diff, want)
	}
	// An empty site against a populated one.
	if diff := digestDiff([]string{"a x(1)", "b"}); diff != "  x(1): at a, not at b" {
		t.Errorf("empty-site report: %q", diff)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "call", Start: 0, End: 100, Parent: -1},
		{Name: "append", Start: 10, End: 30, Parent: 0},
		{Name: "recv", Start: 50, End: 90, Parent: 0},
		{Name: "overlap", Start: 80, End: 95, Parent: 0}, // 80–90 already covered by recv
		{Name: "parse", Start: 60, End: 70, Parent: 2},   // a grandchild covers nothing of the root
		{Name: "spill", Start: 90, End: 120, Parent: 0},  // clipped to its parent's interval
	}
	// call: 100 − (20 + 40 + 5 + 5) = 30; recv: 40 − 10 = 30.
	want := []int64{30, 20, 30, 15, 10, 30}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	by := selfByName(spans)
	if by["call"].SelfNs != 30 || by["call"].TotalNs != 100 || by["recv"].Count != 1 {
		t.Errorf("selfByName = %+v", by)
	}
}

func TestTracerNilAndBounded(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", -1, 0)) // a nil tracer records nothing and does not panic
	tr := &tracer{spans: make([]span, 0, 2)}
	a := tr.begin("a", -1, 1)
	b := tr.begin("b", a, 1)
	c := tr.begin("c", a, 1) // past the bound: dropped, not grown
	tr.end(c)
	tr.end(b)
	tr.end(a)
	if c != -1 || tr.dropped != 1 || len(tr.spans) != 2 {
		t.Errorf("bounded tracer: c=%d dropped=%d spans=%d", c, tr.dropped, len(tr.spans))
	}
	if tr.spans[b].Parent != a || tr.spans[a].End < tr.spans[b].End {
		t.Errorf("spans not nested: %+v", tr.spans)
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json (what the
// driver reads) and the program's catalogue (what it prints) in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(doc.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		hasSetup = hasSetup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	layer := perLayer()
	if len(doc.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(doc.PerLayer), len(layer))
	}
	if len(layer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(layer))
	}
	names := map[string]bool{}
	for i, m := range layer {
		if got := doc.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %s/%s/%s", i, got, m.name, m.unit, m.better)
		}
		if m.layer == "" || m.moves == "" || m.what == "" {
			t.Errorf("%s: the catalogue must say its layer, what it is and what it should move", m.name)
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), layer...) {
		if names[m.name] {
			t.Errorf("metric name %s is used twice", m.name)
		}
		names[m.name] = true
		if len(m.name) > 64 || len(m.unit) > 16 {
			t.Errorf("%s (%s): name or unit too long for the contract", m.name, m.unit)
		}
	}
}
