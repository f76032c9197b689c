#!/usr/bin/env python3
"""Hotspot lane-balance audit — the CI gate on the weighted partition.

    multi_cell_scaling --hotspot --partition both --groups 1,2,4 --json \
        | python3 tools/check_lane_balance.py [--max-weighted-imbalance R]
                                              [--min-improvement F]

Consumes multi_cell_scaling's --json output (which carries per-run
`lane_events` arrays and their max/mean `event_imbalance`) and enforces
two committed bounds on the skewed-hotspot scenario:

  * every weighted run with more than one group keeps its committed-event
    imbalance (max lane / mean lane) at or below --max-weighted-imbalance
    (default 1.45 — measured ~1.03-1.11 at 2-4 groups, so the bound has
    slack for arrival-sequence jitter across compilers but fails long
    before the partition degenerates toward contiguous's ~1.9);
  * at every group count > 1 present for BOTH partitions, weighted's
    event imbalance is at most --min-improvement of contiguous's
    (default 0.85: at least a 15% reduction — measured ~0.6).

Event imbalance (deterministic committed-event counts), not wall-time
imbalance, is gated: wall times wobble with CI-runner noise; the event
split is a pure function of (scenario, seed, partition).

Exits 0 with a per-run summary, 1 with the offending run on violation.
Stdlib only.
"""

import argparse
import json
import sys


def fail(msg):
    print(f"check_lane_balance: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("report", nargs="?",
                        help="multi_cell_scaling --json output "
                             "(default stdin)")
    parser.add_argument("--max-weighted-imbalance", type=float, default=1.45,
                        help="ceiling on weighted max/mean lane events "
                             "(default 1.45)")
    parser.add_argument("--min-improvement", type=float, default=0.85,
                        help="weighted imbalance must be <= this fraction "
                             "of contiguous at the same groups (default "
                             "0.85)")
    args = parser.parse_args()

    source = open(args.report) if args.report else sys.stdin
    with source:
        report = json.load(source)
    runs = report.get("runs", [])
    if not runs:
        fail("no runs in the report")
    if not report.get("hotspot", False):
        fail("report was not generated with --hotspot (the audit gates the "
             "skewed scenario; a uniform load proves nothing)")
    # The gate runs per policy (every policy commits from the full lane
    # count): name the policy in every line
    # so a violation in one policy's artifact reads unambiguously.
    policy = report.get("policy", "?")

    # event imbalance per (partition, groups); recomputed from lane_events
    # so the gate does not trust the bench's own ratio arithmetic.
    imbalance = {}
    for run in runs:
        lanes = run.get("lane_events")
        if not isinstance(lanes, list) or not lanes:
            fail(f"run {run} has no lane_events array")
        mean = sum(lanes) / len(lanes)
        ratio = (max(lanes) / mean) if mean > 0 else 1.0
        key = (run["partition"], run["commit_groups"])
        imbalance[key] = ratio
        print(f"check_lane_balance: policy={policy} "
              f"{run['partition']:>10} groups="
              f"{run['commit_groups']} shards={run['shards']} "
              f"imbalance={ratio:.4f} lane_events={lanes}")

    saw_weighted = False
    for (partition, groups), ratio in sorted(imbalance.items()):
        if partition != "weighted" or groups <= 1:
            continue
        saw_weighted = True
        if ratio > args.max_weighted_imbalance:
            fail(f"policy={policy} weighted groups={groups} imbalance "
                 f"{ratio:.4f} exceeds the committed bound "
                 f"{args.max_weighted_imbalance}")
        contiguous = imbalance.get(("contiguous", groups))
        if contiguous is not None and contiguous > 1.0:
            if ratio > contiguous * args.min_improvement:
                fail(f"policy={policy} weighted groups={groups} imbalance "
                     f"{ratio:.4f} is not <= {args.min_improvement} x "
                     f"contiguous ({contiguous:.4f}) — the load-aware "
                     f"partition stopped paying for itself")
    if not saw_weighted:
        fail("no weighted multi-group runs found (run with --partition "
             "both or weighted and --groups including a value > 1)")

    print("check_lane_balance: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
