#!/usr/bin/env python3
"""Validates a `facs_cli --serve` JSONL stream — the CI serve-smoke gate.

    facs_cli --serve ... | python3 tools/check_serve_stream.py [--warmup-windows N]

Checks, line by line (stdin or a file argument):
  * every line parses as a JSON object carrying the full window schema;
  * window indices count 0,1,2,... and [t0, t1) spans chain without gaps;
  * exactly one record has "final": true, and it is the last;
  * integer deltas are non-negative and cumulative doubles never shrink;
  * call-pool invariants hold (live <= high_water <= capacity... growth
    counters monotone);
  * flat steady state: after the first --warmup-windows records (default 2),
    pool_grow_events and pool_capacity never change again — the zero
    steady-state-allocation claim, asserted from the outside.

Exits 0 quietly-ish (a one-line summary) on success, 1 with the offending
line number and reason on any violation. Stdlib only.
"""

import argparse
import json
import sys

DELTA_KEYS = [
    "new_requests", "new_accepted", "new_blocked",
    "handoff_requests", "handoff_accepted", "handoff_dropped",
    "completed", "engine_events",
    "reservations_posted", "reservations_admitted", "reservations_dropped",
    "outage_forced_drops", "mutations_applied", "repartitions",
    "repartitions_skipped", "demand_deltas", "shadow_migrations",
]
CUMULATIVE_KEYS = ["busy_bu_seconds_cum", "observed_span_s_cum"]
# Run-cumulative per-lane committed events: a non-negative-int list whose
# length (the lane count) never changes, each element monotone.
LANE_ARRAY_KEY = "lane_events_cum"
POOL_KEYS = [
    "pool_capacity", "pool_live", "pool_high_water",
    "pool_acquired", "pool_released", "pool_grow_events",
]
REQUIRED = (["window", "t0", "t1", "final"] + DELTA_KEYS + CUMULATIVE_KEYS
            + ["percent_accepted_cum", "mean_utilization_cum"]
            + [LANE_ARRAY_KEY] + POOL_KEYS)
MONOTONE_KEYS = CUMULATIVE_KEYS + [
    "pool_high_water", "pool_acquired", "pool_released", "pool_grow_events",
]


def fail(line_no, reason):
    print(f"check_serve_stream: line {line_no}: {reason}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("stream", nargs="?", help="JSONL file (default stdin)")
    parser.add_argument(
        "--warmup-windows", type=int, default=2,
        help="records after which the pool must stop growing (default 2)")
    args = parser.parse_args()

    source = open(args.stream) if args.stream else sys.stdin
    records = 0
    finals = 0
    prev = None
    steady = None  # (pool_capacity, pool_grow_events) frozen after warmup
    with source:
        for line_no, line in enumerate(source, start=1):
            line = line.strip()
            if not line:
                fail(line_no, "blank line in the stream")
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                fail(line_no, f"not valid JSON: {err}")
            if not isinstance(rec, dict):
                fail(line_no, "record is not a JSON object")
            for key in REQUIRED:
                if key not in rec:
                    fail(line_no, f"missing key {key!r}")
            extra = set(rec) - set(REQUIRED)
            if extra:
                fail(line_no, f"unexpected keys {sorted(extra)}")

            if rec["window"] != records:
                fail(line_no, f"window index {rec['window']}, "
                              f"expected {records}")
            if rec["final"] is True:
                finals += 1
            elif rec["final"] is not False:
                fail(line_no, "'final' must be true or false")
            if finals and not rec["final"]:
                fail(line_no, "record after the final window")

            if rec["t1"] < rec["t0"]:
                fail(line_no, f"t1 {rec['t1']} before t0 {rec['t0']}")
            if prev is not None and rec["t0"] != prev["t1"]:
                fail(line_no, f"window gap: t0 {rec['t0']} != previous "
                              f"t1 {prev['t1']}")

            for key in DELTA_KEYS:
                if not isinstance(rec[key], int) or rec[key] < 0:
                    fail(line_no, f"{key} must be a non-negative integer, "
                                  f"got {rec[key]!r}")
            lanes = rec[LANE_ARRAY_KEY]
            if (not isinstance(lanes, list) or not lanes
                    or any(not isinstance(v, int) or v < 0 for v in lanes)):
                fail(line_no, f"{LANE_ARRAY_KEY} must be a non-empty list "
                              f"of non-negative integers, got {lanes!r}")
            if prev is not None:
                for key in MONOTONE_KEYS:
                    if rec[key] < prev[key]:
                        fail(line_no, f"{key} shrank: {prev[key]} -> "
                                      f"{rec[key]}")
                prev_lanes = prev[LANE_ARRAY_KEY]
                if len(lanes) != len(prev_lanes):
                    fail(line_no, f"{LANE_ARRAY_KEY} lane count changed: "
                                  f"{len(prev_lanes)} -> {len(lanes)}")
                for i, (now_v, was_v) in enumerate(zip(lanes, prev_lanes)):
                    if now_v < was_v:
                        fail(line_no, f"{LANE_ARRAY_KEY}[{i}] shrank: "
                                      f"{was_v} -> {now_v}")

            if rec["pool_live"] > rec["pool_high_water"]:
                fail(line_no, "pool_live above pool_high_water")
            if rec["pool_high_water"] > rec["pool_capacity"]:
                fail(line_no, "pool_high_water above pool_capacity")
            if rec["pool_acquired"] - rec["pool_released"] != rec["pool_live"]:
                fail(line_no, "pool_acquired - pool_released != pool_live")

            records += 1
            if records == args.warmup_windows:
                steady = (rec["pool_capacity"], rec["pool_grow_events"])
            elif steady is not None:
                now = (rec["pool_capacity"], rec["pool_grow_events"])
                if now != steady:
                    fail(line_no,
                         f"pool grew after warmup: capacity/grow_events "
                         f"{steady} -> {now} (steady state must be "
                         f"allocation-free)")
            prev = rec

    if records == 0:
        fail(0, "empty stream")
    if finals != 1:
        fail(records, f"expected exactly one final record, saw {finals}")
    print(f"check_serve_stream: OK ({records} windows, flat after "
          f"{min(args.warmup_windows, records)} warmup)")


if __name__ == "__main__":
    main()
