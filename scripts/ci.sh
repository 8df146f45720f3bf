#!/bin/sh
# CI gate: vet (generic + domain-specific), the full test suite under
# the race detector and again with shuffled test order, and a short fuzz
# smoke of the wire codec. The engine's push scheduler fans closure
# planning over goroutines and the shard router plans epochs on
# persistent lane workers, so every change must pass -race, not just
# plain `go test` — the -race run covers TestShardedEquivalence, the
# sharded-vs-single-lane byte-identity differential, and the netsim
# cheat-injection matrix (TestCheat*: every cheat class detected, zero
# false quarantines on honest churn, across shards × seeds);
# -shuffle=on keeps tests honest about shared state
# (the wire pool is process-global); seve-vet enforces the action
# read/write-set, pool-ownership, nocopy, determinism, lock-region,
# lane-affinity and delivery-class contracts (DESIGN.md §9, §14); the
# fuzz pass keeps Decode honest against hostile frames beyond the
# checked-in corpus; the coverage gate keeps the protocol engine, the
# reconnect-capable transport, and the client evaluation path's wall
# index, version store, transactions, actions and moves from losing
# test reach as they grow
# (baselines sit a little under the measured coverage so legitimate
# refactors don't trip on noise).
set -eu
cd "$(dirname "$0")/.."
go vet ./...

# seve-vet: one run produces the machine-readable findings artifact,
# diffs it against the checked-in baseline (failing on regressions AND
# on paid-off entries that should be deleted from the baseline), and
# audits for //seve:vet-ignore directives that suppress nothing. To
# intentionally accept a finding, prefer a reasoned //seve:vet-ignore;
# the baseline is for debt that cannot be suppressed at a single line.
go run ./cmd/seve-vet -json -baseline vet-baseline.json -audit-ignores ./... > seve-vet.json
echo "seve-vet: clean against vet-baseline.json (artifact: seve-vet.json)"
go test -race ./...
go test -shuffle=on ./...
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/wire

# Coverage gate: statement coverage of the packages the resume protocol
# and client move evaluation cut through must not regress below the floor.
cover_gate() {
    pkg="$1"
    floor="$2"
    profile="$(mktemp)"
    go test -coverprofile="$profile" "$pkg" >/dev/null
    total="$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $NF); print $NF}')"
    rm -f "$profile"
    if awk -v t="$total" -v f="$floor" 'BEGIN { exit !(t < f) }'; then
        echo "coverage gate: $pkg at ${total}% is below the ${floor}% floor" >&2
        exit 1
    fi
    echo "coverage gate: $pkg ${total}% (floor ${floor}%)"
}
cover_gate ./internal/core 90
cover_gate ./internal/transport 75
cover_gate ./internal/integrity 90
cover_gate ./internal/spatial 95
cover_gate ./internal/world 90
cover_gate ./internal/action 95
cover_gate ./internal/manhattan 85
