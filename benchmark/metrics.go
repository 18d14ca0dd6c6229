package main

// The metric catalogue: every number the benchmark prints, by name. It
// is the one place that says what a metric is, which layer (module) owns
// it and which end-to-end metric, on which workload, a change to it
// should move. BENCHMARK.json repeats the names, units and directions;
// a test keeps the two in step.

type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is how much worse (as a share of the parent's median) an
	// end-to-end metric may get before it counts as a regression. Layer
	// metrics have none. The measured spreads that sized each bound are in
	// README.md, "Repeatability".
	bound float64
	layer string // module that owns a layer metric
	moves string // what a layer metric should move, and where
	what  string
}

var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		what: "spawn → listening → seed calls → SETTLE (almost all tournament.Analysis())"},
	{name: "call_ops_per_s", unit: "1/s", better: "higher", bound: 0.25,
		what: "completed calls ÷ window (serve-unattended: of the median episode)"},
	{name: "call_p50_ms", unit: "ms", better: "lower", bound: 0.25,
		what: "median flush → reply"},
	{name: "call_p99_ms", unit: "ms", better: "lower", bound: 0.25,
		what: "p99 flush → reply"},
	{name: "server_cpu_us_per_call", unit: "us", better: "lower", bound: 0.25,
		what: "server utime+stime over the window ÷ completed calls; counts the asynchronous replication and GC work latency does not"},
	{name: "server_peak_rss_mb", unit: "MB", better: "lower", bound: 0.25,
		what: "server VmHWM at the end of the window"},
}

// Layer metrics the wire run derives from INFO deltas at the window
// edges and the benchmark's own clocks. They describe the selected
// workload.
var wireLayer = []metric{
	{name: "engine.refused_share", unit: "ratio", better: "lower", layer: "engine",
		moves: "call_ops_per_s on every workload, for free — must stay within ±0.02 of its baseline",
		what:  "guarded no-ops (-PRECONDITION) ÷ completed calls"},
	{name: "server.decay_ratio", unit: "ratio", better: "higher", layer: "server",
		moves: "call_ops_per_s on serve-unattended; ≈ 1 elsewhere",
		what:  "completions in the last quarter of the window ÷ the first"},
	{name: "netrepl.txns_per_frame", unit: "count", better: "higher", layer: "netrepl",
		moves: "server_cpu_us_per_call on serve-steady",
		what:  "achieved batching: transactions ÷ frames acknowledged by peers"},
	{name: "netrepl.bytes_per_txn", unit: "B", better: "lower", layer: "netrepl",
		moves: "server_cpu_us_per_call, server_peak_rss_mb on serve-unattended",
		what:  "replicated frame bytes ÷ transactions sent"},
	{name: "netrepl.backpressure_waits", unit: "count", better: "lower", layer: "netrepl",
		moves: "call_p99_ms on serve-steady",
		what:  "commits that blocked on a full peer queue in the window"},
	{name: "netrepl.send_errors", unit: "count", better: "lower", layer: "netrepl",
		moves: "call_p99_ms on serve-steady",
		what:  "failed dials and frame writes in the window"},
	{name: "store.wal_appends_per_sync", unit: "count", better: "higher", layer: "store",
		moves: "call_ops_per_s, call_p50_ms on serve-durable only",
		what:  "group commit: WAL records ÷ fsyncs"},
	{name: "store.wal_bytes_per_call", unit: "B", better: "lower", layer: "store",
		moves: "call_ops_per_s on serve-durable only",
		what:  "WAL bytes appended (all sites) ÷ calls"},
	{name: "store.snapshots", unit: "count", better: "lower", layer: "store",
		moves: "call_p99_ms on serve-durable only",
		what:  "snapshots written between the window's start and the end of verification"},
	{name: "store.diverged_runs", unit: "count", better: "lower", layer: "store",
		moves: "nothing gated: a known defect's count (README, Known defect)",
		what:  "runs of this workload voided and repeated because the sites still differed after the repair rounds (0 or 1)"},
	{name: "store.recover_s", unit: "s", better: "lower", layer: "store",
		moves: "nothing gated; serve-durable only",
		what:  "restart-to-listening over the crashed data dir minus the first start's"},
	{name: "runtime.stabilize_p50_ms", unit: "ms", better: "lower", layer: "runtime",
		moves: "call_p99_ms on serve-steady, serve-wide",
		what:  "median STABILIZE round trip (the foreground stall it causes)"},
	{name: "runtime.stabilize_max_ms", unit: "ms", better: "lower", layer: "runtime",
		moves: "call_p99_ms on serve-steady, serve-wide",
		what:  "slowest STABILIZE round trip in the window"},
	{name: "runtime.stabilize_time_share", unit: "ratio", better: "lower", layer: "runtime",
		moves: "call_ops_per_s on serve-steady, serve-wide",
		what:  "share of the window conn 0 spent inside STABILIZE"},
	{name: "runtime.drain_ms", unit: "ms", better: "lower", layer: "runtime",
		moves: "nothing gated",
		what:  "SETTLE after the last reply: replication backlog at load stop"},
	{name: "engine.check_s", unit: "s", better: "lower", layer: "engine",
		moves: "nothing gated; serve-wide",
		what:  "CHECK over every site at quiescence"},
	{name: "engine.repair_rounds", unit: "count", better: "lower", layer: "engine",
		moves: "nothing gated",
		what:  "REPAIR + SETTLE rounds until every site digests alike"},
	{name: "client.completed_share", unit: "ratio", better: "higher", layer: "client",
		moves: "nothing: a failed call already fails the result line's `failed` count",
		what:  "completed ÷ attempted calls (1 − the issue's call_failed_share); exactly 1 on every run so far"},
	{name: "client.call_p999_ms", unit: "ms", better: "lower", layer: "client",
		moves: "nothing gated",
		what:  "p99.9 flush → reply"},
}

// Layer metrics of the in-process ledger (ledger.go): cumulative stages
// S0 bare engine → S1 one netrepl node → S2 three-node mesh → S3 + WAL →
// S4 + server and client, each a fresh cluster, so a layer's cost is the
// difference between neighbours.
var ledgerLayer = []metric{
	{name: "analysis.run_s", unit: "s", better: "lower", layer: "analysis",
		moves: "setup_s on every workload", what: "tournament.Analysis()"},
	{name: "engine.mount_ms", unit: "ms", better: "lower", layer: "engine",
		moves: "setup_s on every workload", what: "engine.Mount of the analysed spec"},

	{name: "engine.ns_per_call", unit: "ns", better: "lower", layer: "engine",
		moves: "call_ops_per_s, server_cpu_us_per_call on serve-single-site",
		what:  "S0: engine.App.Call on a 1-site sim cluster, no transport"},
	{name: "engine.allocs_per_call", unit: "count", better: "lower", layer: "engine",
		moves: "server_cpu_us_per_call on serve-single-site", what: "S0 heap allocations per call"},
	{name: "engine.bytes_per_call", unit: "B", better: "lower", layer: "engine",
		moves: "server_cpu_us_per_call on serve-single-site", what: "S0 heap bytes per call"},
	{name: "engine.wide_ns_per_call", unit: "ns", better: "lower", layer: "engine",
		moves: "call_ops_per_s, server_cpu_us_per_call on serve-wide",
		what:  "S0 on serve-wide's state and stream"},
	{name: "engine.enroll_ns", unit: "ns", better: "lower", layer: "engine",
		moves: "call_ops_per_s on serve-single-site (35 % of the mix)", what: "S0 mean per enroll"},
	{name: "engine.do_match_ns", unit: "ns", better: "lower", layer: "engine",
		moves: "call_ops_per_s on serve-single-site (25 %)", what: "S0 mean per do_match"},
	{name: "engine.disenroll_ns", unit: "ns", better: "lower", layer: "engine",
		moves: "call_ops_per_s on serve-single-site (12 %)", what: "S0 mean per disenroll"},
	{name: "engine.begin_tourn_ns", unit: "ns", better: "lower", layer: "engine",
		moves: "call_ops_per_s on serve-single-site (10 %)", what: "S0 mean per begin_tourn"},
	{name: "engine.finish_tourn_ns", unit: "ns", better: "lower", layer: "engine",
		moves: "call_ops_per_s on serve-single-site (10 %)", what: "S0 mean per finish_tourn"},
	{name: "engine.add_player_ns", unit: "ns", better: "lower", layer: "engine",
		moves: "call_ops_per_s on serve-single-site (4 %)", what: "S0 mean per add_player"},
	{name: "engine.add_tourn_ns", unit: "ns", better: "lower", layer: "engine",
		moves: "call_ops_per_s on serve-single-site (4 %)", what: "S0 mean per add_tourn"},
	{name: "store.txn_ns", unit: "ns", better: "lower", layer: "store",
		moves: "call_ops_per_s on serve-single-site", what: "empty Begin + Commit on the S0 replica"},
	{name: "apps.causal_ns_per_call", unit: "ns", better: "lower", layer: "apps",
		moves: "nothing gated (reference)", what: "the S0 stream through hand-coded tournament.New(Causal)"},
	{name: "apps.ipa_ns_per_call", unit: "ns", better: "lower", layer: "apps",
		moves: "nothing gated (reference)", what: "the S0 stream through hand-coded tournament.New(IPA)"},
	{name: "apps.ipa_over_causal_ratio", unit: "ratio", better: "lower", layer: "apps",
		moves: "nothing gated: the paper's headline overhead", what: "apps.ipa_ns_per_call ÷ apps.causal_ns_per_call"},
	{name: "engine.over_handcoded_ratio", unit: "ratio", better: "lower", layer: "engine",
		moves: "call_ops_per_s on serve-single-site", what: "engine.ns_per_call ÷ apps.ipa_ns_per_call"},
	{name: "engine.unstable_slowdown_ratio", unit: "ratio", better: "lower", layer: "engine",
		moves: "call_ops_per_s, server.decay_ratio on serve-unattended",
		what:  "S0 with no Stabilize: ns/call of the last tenth of the stream ÷ the first tenth"},
	{name: "store.unstable_heap_bytes_per_call", unit: "B", better: "lower", layer: "store",
		moves: "server_peak_rss_mb on serve-unattended",
		what:  "S0 with no Stabilize: live heap growth ÷ calls"},

	{name: "netrepl.commit_ns_per_call", unit: "ns", better: "lower", layer: "netrepl",
		moves: "call_ops_per_s on serve-single-site", what: "S1 − S0 wall: a 1-site runtime.NetCluster's commit path"},

	{name: "netrepl.repl_cpu_ns_per_call", unit: "ns", better: "lower", layer: "netrepl",
		moves: "server_cpu_us_per_call, call_ops_per_s on serve-steady; no change on serve-single-site",
		what:  "S2 − S1 process CPU (not wall: replication is asynchronous), settled"},
	{name: "netrepl.repl_allocs_per_call", unit: "count", better: "lower", layer: "netrepl",
		moves: "server_cpu_us_per_call on serve-steady", what: "S2 − S1 heap allocations per call"},
	{name: "netrepl.visibility_p50_us", unit: "us", better: "lower", layer: "netrepl",
		moves: "nothing gated: the delay IPA trades for availability",
		what:  "S2: commit at site A until Replica(B).Clock() covers it, median"},
	{name: "netrepl.visibility_p99_us", unit: "us", better: "lower", layer: "netrepl",
		moves: "nothing gated", what: "S2: the same, p99"},
	{name: "netrepl.settle_ms", unit: "ms", better: "lower", layer: "netrepl",
		moves: "runtime.drain_ms", what: "S2: Settle after the last call"},
	{name: "runtime.stabilize_ns", unit: "ns", better: "lower", layer: "runtime",
		moves: "runtime.stabilize_p50_ms, call_p99_ms on serve-steady", what: "S2: median NetCluster.Stabilize"},
	{name: "store.frame_encode_ns_per_txn", unit: "ns", better: "lower", layer: "store",
		moves: "server_cpu_us_per_call on serve-steady", what: "FrameEncoder.Encode over captured transactions"},
	{name: "store.frame_decode_ns_per_txn", unit: "ns", better: "lower", layer: "store",
		moves: "server_cpu_us_per_call on serve-steady", what: "DecodeFrame over the same frames"},
	{name: "store.frame_decode_allocs_per_txn", unit: "count", better: "lower", layer: "store",
		moves: "server_cpu_us_per_call on serve-steady", what: "heap allocations per decoded transaction"},
	{name: "store.frame_bytes_per_txn", unit: "B", better: "lower", layer: "store",
		moves: "netrepl.bytes_per_txn", what: "encoded frame bytes ÷ transactions"},

	{name: "store.wal_ns_per_call", unit: "ns", better: "lower", layer: "store",
		moves: "call_p50_ms, call_ops_per_s on serve-durable only", what: "S3 − S2 wall: S2 with a DataDir"},
	{name: "store.wal_append_sync_us", unit: "us", better: "lower", layer: "store",
		moves: "call_p50_ms on serve-durable only", what: "median OpenWAL/Append/WaitSynced of one frame"},

	{name: "server.ns_per_call", unit: "ns", better: "lower", layer: "server",
		moves: "call_ops_per_s, call_p50_ms on serve-single-site (largest share), then serve-steady",
		what:  "S4 − S2 wall: S2 behind server.New, loopback TCP and server.Client.Do"},
	{name: "server.allocs_per_call", unit: "count", better: "lower", layer: "server",
		moves: "server_cpu_us_per_call on serve-single-site", what: "S4 − S2 heap allocations per call (server and client)"},
	{name: "server.ping_rtt_us", unit: "us", better: "lower", layer: "server",
		moves: "call_p50_ms on every workload", what: "S4: median PING round trip"},
	{name: "server.parse_command_ns", unit: "ns", better: "lower", layer: "server",
		moves: "server_cpu_us_per_call on serve-single-site", what: "server.ParseCommand over the stream's commands"},
	{name: "server.parse_command_allocs", unit: "count", better: "lower", layer: "server",
		moves: "server_cpu_us_per_call on serve-single-site", what: "heap allocations per parsed command"},
	{name: "client.append_command_ns", unit: "ns", better: "lower", layer: "client",
		moves: "call_ops_per_s (the client shares the host's cores)", what: "server.AppendCommand over the stream's commands"},
	{name: "client.parse_reply_ns", unit: "ns", better: "lower", layer: "client",
		moves: "call_ops_per_s (the client shares the host's cores)", what: "server.ParseReply over the stream's replies"},

	{name: "trace.overhead_share", unit: "ratio", better: "lower", layer: "trace",
		moves: "nothing: what recording spans costs", what: "(S4 with spans − S4) ÷ S4 wall"},
	{name: "ledger.residual_share", unit: "ratio", better: "lower", layer: "ledger",
		moves: "call_ops_per_s on serve-single-site",
		what:  "(server.ns_per_call − ping RTT − the three codecs) ÷ S4 wall: dispatch, session, buffers, wake-ups — what no stage explains"},
}

// perLayer is everything a traced run reports.
func perLayer() []metric { return append(append([]metric(nil), wireLayer...), ledgerLayer...) }
