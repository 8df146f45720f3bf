#!/bin/sh
# Benchmark battery for the protocol engines: the per-submission hot
# path (BenchmarkServerSubmit), the Fig6/Fig7 end-to-end experiment
# benches, the conflict-index microbenches (BenchmarkClosureDeepQueue,
# BenchmarkTickManyClients), the delivery-path microbenches from the
# pooled-encoding PR (BenchmarkEncodeBatch, BenchmarkPushFanOut,
# BenchmarkClientReconcileDeepQueue), the client stable-evaluation
# microbenches (BenchmarkClientApplyRemote, BenchmarkTxBlindWrite at 64
# and 1,024 writes), and the sharded-serializer round
# benches (BenchmarkShardedSubmit, BenchmarkShardedTick), the
# shardscale experiment sweep from the sharding PR, the adversarial
# delivery sweep from the superseding-queue PR (drop-at-cap vs
# in-place supersession under flash-crowd, trading-storm, and
# interest-churn stalls; see internal/experiments/adversarial.go), and
# the durablecommit sweep from the durability PR (engine submit-path
# overhead of the attached journal per fsync policy; see
# internal/experiments/durablecommit.go), and the cheataudit sweep from
# the integrity PR (enforcement overhead and cheat detection latency
# per audit sample rate; see internal/experiments/cheataudit.go).
#
# Writes the raw `go test -bench` output and a JSON summary to
# BENCH_PR10.json at the repo root. BenchmarkServerSubmit grows the
# uncommitted queue monotonically (no completions), so it runs with a
# pinned iteration count: letting benchtime ramp b.N would measure a
# queue three orders of magnitude deeper than the seed baseline did.
# The shardscale sweep reports best-of-3 per configuration (one
# measurement is tens of milliseconds of engine compute; see
# internal/experiments/shardscale.go) across a uniform workload and a
# flash-crowd skew variant; on a single-core host its wall_x column
# shows only the pipeline's serial overhead and achievable_x carries
# the scalability projection.
set -eu
cd "$(dirname "$0")/.."
out="${1:-BENCH_PR10.json}"
raw="$(mktemp)"
sweep="$(mktemp)"
adv="$(mktemp)"
dur="$(mktemp)"
aud="$(mktemp)"
trap 'rm -f "$raw" "$sweep" "$adv" "$dur" "$aud"' EXIT

go test -run '^$' -bench 'BenchmarkServerSubmit$' -benchmem -benchtime 10000x . | tee "$raw"
go test -run '^$' -bench 'BenchmarkClosureDeepQueue|BenchmarkTickManyClients' \
    -benchmem -benchtime 50x . | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkShardedSubmit|BenchmarkShardedTick' \
    -benchmem -benchtime 50x . | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkEncodeBatch|BenchmarkPushFanOut|BenchmarkClientReconcileDeepQueue' \
    -benchmem . | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkClientApplyRemote|BenchmarkTxBlindWrite' \
    -benchmem . | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkFig6|BenchmarkFig7' -benchmem . | tee -a "$raw"

# The shardscale sweep: sharded submit throughput and the phase-timing
# scalability projection per shard count (see internal/experiments).
go run ./cmd/seve-bench -experiment shardscale -csv | tee "$sweep"

# The adversarial delivery sweep: superseding on/off row pairs per
# stall scenario; bytes_x on an "on" row is the stalled-cohort byte
# reduction against its "off" twin.
go run ./cmd/seve-bench -experiment adversarial -csv | tee "$adv"

# The durablecommit sweep: engine submits/s with no journal vs the
# journal attached under each fsync policy, best-of-3 per row; the
# overhead column is relative to the journal=off baseline.
go run ./cmd/seve-bench -experiment durablecommit -csv | tee "$dur"

# The cheataudit sweep: honest-workload submits/s per audit sample rate
# (overhead relative to the integrity-off baseline) and the mean number
# of tampered completions a value-tampering cheater lands before the
# sampled auditor quarantines it (~1/rate; "-" = never detected).
go run ./cmd/seve-bench -experiment cheataudit -csv | tee "$aud"

# Fold the benchmark lines into JSON: {"benchmarks": [{name, iterations,
# ns_per_op, bytes_per_op, allocs_per_op}, ...], "shardscale":
# [{workload, shards, submits_per_s, wall_x, achievable_x, epochs,
# partitioned, imbalance}, ...]}.
awk '
BEGIN { print "{"; printf "  \"benchmarks\": [" ; n = 0 }
/^Benchmark/ {
    name = $1; iters = $2; ns = $3
    bytes = ""; allocs = ""
    for (i = 4; i <= NF; i++) {
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (n++) printf ","
    printf "\n    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns
    if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    printf "}"
}
END { printf "\n  ],\n" }
' "$raw" > "$out"
awk -F, '
BEGIN { printf "  \"shardscale\": ["; n = 0 }
/^(uniform|flash),/ {
    if (n++) printf ","
    printf "\n    {\"workload\": \"%s\", \"shards\": %s, \"submits_per_s\": %s, \"wall_x\": %s, \"achievable_x\": %s, \"epochs\": %s, \"partitioned\": %s, \"imbalance\": %s}",
        $1, $2, $3, $4, $5, $6, $7, $8
}
END { print "\n  ],\n" }
' "$sweep" >> "$out"
awk -F, '
BEGIN { printf "  \"adversarial\": ["; n = 0 }
/^(uniform|flash|auction|churn),(off|on),/ {
    if (n++) printf ","
    printf "\n    {\"workload\": \"%s\", \"superseding\": \"%s\", \"delivered_kb\": %s, \"stalled_kb\": %s, \"frames\": %s, \"avg_envs\": %s, \"enqueued\": %s, \"drops\": %s, \"drop_pct\": %s, \"superseded\": %s, \"coalesced\": %s, \"snapshots\": %s, \"max_stale\": %s, \"bytes_x\": %s}",
        $1, $2, $3, $4, $5, $6, $7, $8, $9, $10, $11, $12, $13, $14
}
END { print "\n  ],\n" }
' "$adv" >> "$out"
awk -F, '
BEGIN { printf "  \"durablecommit\": ["; n = 0 }
/^(off|batch|interval|ckpt),/ {
    pct = $3; sub(/%$/, "", pct)
    if (n++) printf ","
    printf "\n    {\"fsync\": \"%s\", \"submits_per_s\": %s, \"overhead_pct\": %s, \"group_commits\": %s, \"checkpoints\": %s, \"lag_at_end\": %s, \"drain_ms\": %s}",
        $1, $2, pct, $4, $5, $6, $7
}
END { print "\n  ],\n" }
' "$dur" >> "$out"
awk -F, '
BEGIN { printf "  \"cheataudit\": ["; n = 0 }
/^(off|[0-9]+\.[0-9]+),/ {
    ov = $3; sub(/%$/, "", ov)
    ap = $5; sub(/%$/, "", ap)
    det = $6; sub(/ .*/, "", det)
    if (det == "-") det = "null"
    if (n++) printf ","
    printf "\n    {\"rate\": \"%s\", \"submits_per_s\": %s, \"overhead_pct\": %s, \"audits\": %s, \"audited_pct\": %s, \"detect_at\": %s}",
        $1, $2, ov, $4, ap, det
}
END { print "\n  ]"; print "}" }
' "$aud" >> "$out"
echo "wrote $out"
