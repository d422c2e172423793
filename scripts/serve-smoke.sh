#!/bin/sh
# serve-smoke.sh boots vprobe-serve, runs the same scenario twice, and
# checks the daemon's core contracts from the outside:
#
#   1. the first POST completes with state "done";
#   2. the re-POST is answered from the determinism-keyed cache, and the
#      full response — report included — is byte-identical;
#   3. the run's event stream and telemetry re-download byte-identically;
#   4. the run's /metrics and the server's own /metrics parse as
#      Prometheus text exposition (via vprobe-metrics check);
#   5. the cluster front doors agree: a traced cluster spec file POSTed to
#      /v1/clusters reports and records spans byte-identically to the same
#      file run by vprobe-sim -spec and to vprobe-cluster with the same
#      settings, and its explain endpoint answers for the first recorded VM;
#   6. a paper cell served from its spec document (vprobe-sim -spec, with
#      "trace": true) reports and records spans byte-identically to
#      vprobe-sim running the same cell with -spans.
#
# Used by `make smoke-serve` and the CI "Serve API smoke" step.
set -eu

ADDR="${VPROBE_SERVE_ADDR:-127.0.0.1:18080}"
TMP="$(mktemp -d)"
trap 'kill $SERVE_PID 2>/dev/null || true; rm -rf "$TMP"' EXIT

go build -o "$TMP/vprobe-serve" ./cmd/vprobe-serve
"$TMP/vprobe-serve" -addr "$ADDR" &
SERVE_PID=$!

for _ in $(seq 1 100); do
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.1
done
curl -sf "http://$ADDR/healthz" >/dev/null

SPEC='{"scheduler":"vprobe","horizon":"2s","vms":[{"name":"vm0","memory_mb":2048,"vcpus":2,"apps":[{"name":"soplex"},{"name":"mcf"}]}]}'

curl -sf -d "$SPEC" "http://$ADDR/v1/simulations" >"$TMP/run1.json"
ID=$(jq -r .id "$TMP/run1.json")
STATE=$(jq -r .state "$TMP/run1.json")
[ "$STATE" = "done" ] || { echo "serve-smoke: first run state $STATE" >&2; exit 1; }

curl -sf "http://$ADDR/v1/runs/$ID/events" >"$TMP/events1.jsonl"
curl -sf "http://$ADDR/v1/runs/$ID/telemetry" >"$TMP/telemetry1.jsonl"
curl -sf "http://$ADDR/v1/runs/$ID/metrics" >"$TMP/run.prom"

curl -sf -d "$SPEC" "http://$ADDR/v1/simulations" >"$TMP/run2.json"
jq -e '.cached == true' "$TMP/run2.json" >/dev/null || {
    echo "serve-smoke: identical spec missed the cache" >&2; exit 1; }
# Normalize both responses the same way (sorted keys, cached flag
# dropped); the remainder — report text included — must match exactly.
jq -S 'del(.cached)' "$TMP/run1.json" >"$TMP/run1-norm.json"
jq -S 'del(.cached)' "$TMP/run2.json" >"$TMP/run2-norm.json"
diff "$TMP/run1-norm.json" "$TMP/run2-norm.json" >/dev/null || {
    echo "serve-smoke: cached response differs from the original" >&2; exit 1; }

curl -sf "http://$ADDR/v1/runs/$ID/events" >"$TMP/events2.jsonl"
curl -sf "http://$ADDR/v1/runs/$ID/telemetry" >"$TMP/telemetry2.jsonl"
diff "$TMP/events1.jsonl" "$TMP/events2.jsonl" >/dev/null || {
    echo "serve-smoke: event stream not byte-identical" >&2; exit 1; }
diff "$TMP/telemetry1.jsonl" "$TMP/telemetry2.jsonl" >/dev/null || {
    echo "serve-smoke: telemetry not byte-identical" >&2; exit 1; }

go run ./cmd/vprobe-metrics check "$TMP/run.prom"
curl -sf "http://$ADDR/metrics" >"$TMP/serve.prom"
go run ./cmd/vprobe-metrics check "$TMP/serve.prom"

go build -o "$TMP/vprobe-cluster" ./cmd/vprobe-cluster
go build -o "$TMP/vprobe-sim" ./cmd/vprobe-sim
"$TMP/vprobe-cluster" -hosts 2 -horizon 30s -seed 1 -spans "$TMP/cli-spans.jsonl" \
    >"$TMP/cli-report.txt" 2>/dev/null
echo '{"hosts":2,"horizon":"30s","trace":true}' >"$TMP/cluster-spec.json"
"$TMP/vprobe-sim" -spec "$TMP/cluster-spec.json" -spans "$TMP/doc-spans.jsonl" \
    >"$TMP/doc-report.txt" 2>/dev/null
curl -sf -d @"$TMP/cluster-spec.json" "http://$ADDR/v1/clusters" >"$TMP/cluster.json"
CID=$(jq -r .id "$TMP/cluster.json")
# -j: the report text exactly, without the newline -r appends.
jq -j .report "$TMP/cluster.json" >"$TMP/served-report.txt"
curl -sf "http://$ADDR/v1/runs/$CID/spans" >"$TMP/served-spans.jsonl"
for front in cli doc; do
    cmp "$TMP/$front-report.txt" "$TMP/served-report.txt" || {
        echo "serve-smoke: served cluster report differs from the $front run's" >&2; exit 1; }
    cmp "$TMP/$front-spans.jsonl" "$TMP/served-spans.jsonl" || {
        echo "serve-smoke: served cluster spans differ from the $front run's -spans" >&2; exit 1; }
done
VM=$(curl -sf "http://$ADDR/v1/runs/$CID/explain" | jq -r '.vms[0]')
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/runs/$CID/explain?vm=$VM")
[ "$CODE" = "200" ] || { echo "serve-smoke: explain?vm=$VM answered $CODE" >&2; exit 1; }

CELL_PATH=fig4/mix/vprobe/seed0
"$TMP/vprobe-sim" -spec "$CELL_PATH" | jq '.trace = true' >"$TMP/cell.json"
"$TMP/vprobe-sim" -spec "$CELL_PATH" -spans "$TMP/cell-spans.jsonl" \
    >"$TMP/cell-report.txt" 2>/dev/null
curl -sf -d @"$TMP/cell.json" "http://$ADDR/v1/simulations" >"$TMP/cell-run.json"
CELL=$(jq -r .id "$TMP/cell-run.json")
jq -j .report "$TMP/cell-run.json" >"$TMP/served-cell-report.txt"
cmp "$TMP/cell-report.txt" "$TMP/served-cell-report.txt" || {
    echo "serve-smoke: served $CELL_PATH report differs from vprobe-sim's" >&2; exit 1; }
curl -sf "http://$ADDR/v1/runs/$CELL/spans" >"$TMP/served-cell-spans.jsonl"
cmp "$TMP/cell-spans.jsonl" "$TMP/served-cell-spans.jsonl" || {
    echo "serve-smoke: served $CELL_PATH spans differ from vprobe-sim -spans" >&2; exit 1; }

echo "serve-smoke: OK (run $ID cached and byte-identical; cluster $CID matches vprobe-cluster and vprobe-sim -spec; cell $CELL_PATH matches vprobe-sim)"
