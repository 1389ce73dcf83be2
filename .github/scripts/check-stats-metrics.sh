#!/usr/bin/env bash
# Counter-consistency check over a shard directory's stats sidecar:
# every counter and gauge `tune-cache serve-stats DIR --json` prints
# must equal the matching line of `tune-cache metrics DIR`, and
# `metrics` must print each counter under exactly one name. A counter
# the registry never bumped has no `metrics` line and reads 0. Per-tier
# enqueue counts net queue promotions, as the typed view does.
#
# usage: check-stats-metrics.sh TUNE_CACHE DIR
set -euo pipefail

TC=$1
DIR=$2
json=$("$TC" serve-stats "$DIR" --json)
metrics=$("$TC" metrics "$DIR" | grep -v '^#')
fail=0

# value NAME: the value of metric line NAME, 0 when absent.
value() {
  awk -v name="$1" '$1 == name { v = $2 } END { print v + 0 }' <<<"$metrics"
}

# promotions SIDE TIER: queue promotions with SIDE="TIER" (from/to).
promotions() {
  awk -v label="$1=\"$2\"" \
    'index($1, "iolb_queue_promotions_total{") == 1 && index($1, label) { s += $2 } END { print s + 0 }' \
    <<<"$metrics"
}

while IFS=: read -r key got; do
  key=${key//\"/}
  case $key in
    schema | v | shards | workloads | records | clock) continue ;;
    queue_len) want=$(value iolb_queue_len) ;;
    budget_left) want=$(value iolb_budget_left) ;;
    networks_served) want=$(value iolb_sessions_total) ;;
    sessions) want=$(value iolb_service_batch_groups_total) ;;
    requests) want=$(value iolb_service_batch_requests_total) ;;
    deduped) want=$(value iolb_service_batch_deduped_total) ;;
    hits) want=$(value iolb_service_shard_hits_total) ;;
    anchored) want=$(value iolb_anchor_hits_total) ;;
    retunes) want=$(value iolb_transfer_retunes_total) ;;
    transfer_enqueued)
      want=$(($(value iolb_service_transfer_enqueued_total) \
        + $(promotions to transfer) - $(promotions from transfer)))
      ;;
    stolen) want=$(value iolb_service_stolen_total) ;;
    inline) want=$(value iolb_service_inline_tuned_total) ;;
    background) want=$(value iolb_service_background_tuned_total) ;;
    fresh) want=$(value iolb_service_fresh_measurements_total) ;;
    cache_hits) want=$(value iolb_service_cache_hits_total) ;;
    infeasible) want=$(value iolb_service_infeasible_total) ;;
    *)
      echo "serve-stats --json prints \"$key\", which this check maps to no metric"
      fail=1
      continue
      ;;
  esac
  if [ "$got" != "$want" ]; then
    echo "$key: serve-stats --json says $got, metrics says $want"
    fail=1
  fi
done < <(tr -d '{}' <<<"$json" | tr ',' '\n')

dupes=$(awk '{ print $1 }' <<<"$metrics" | sort | uniq -d)
if [ -n "$dupes" ]; then
  echo "metrics prints these names more than once: $dupes"
  fail=1
fi
# Quantities once exported under a second name must now have one.
for alias in iolb_service_networks_served_total iolb_service_anchored_hits_total \
  iolb_service_transfer_retunes_total; do
  if grep -q "^$alias " <<<"$metrics"; then
    echo "metrics prints the retired alias $alias"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "serve-stats and metrics disagree on $DIR"
  exit 1
fi
echo "serve-stats and metrics agree on every counter in $DIR"
