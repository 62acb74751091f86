#!/usr/bin/env python3
"""CI perf guard for the micro benches and the failure ablation.

Checks freshly produced BENCH_*.json records, most of them against
the snapshots under bench/baseline/:

 - BENCH_ablation_failure_scenarios.json: two hard contracts checked
   on the current record alone, with no snapshot: the drawn fault plan
   must replay bit-identically through the trace format, and the
   faults-off scenario must report zero fault-engine activity. (The
   exact storage-fault counters are pinned by the ctest
   ExperimentFaults.AblationStorageFaultCountersArePinned.)
 - BENCH_micro_rs_*.json (google-benchmark format): bytes_per_second of
   every BM_RsEncode row (the encode MB/s trajectory).
 - BENCH_micro_runtime.json (google-benchmark format): items_per_second
   of the fiber/messaging/collective rows, plus a hard zero check on
   every allocsPerEvent and schedulerTripsPerEvent counter — the runtime
   hot path's allocation-free, scheduler-free contracts are pass/fail,
   not ratios.

The figure grids' wall clock is not guarded here: perfbench
(BENCHMARK.json) times them on one host with interleaved runs.

A throughput metric passes when current >= MIN_RATIO * baseline
(one-sided: being faster than the baseline is always fine). Metrics
present only in the baseline or only in the current record are
reported but never fail the guard, so adding or renaming benches stays
painless.
Refresh the baseline (copy a CI artifact over bench/baseline/) whenever
the runner hardware generation changes; a stale baseline from slower
hardware only loosens the guard, never breaks it.

Usage:
    perf_guard.py [--baseline DIR] [--current DIR]
"""

import argparse
import json
import os
import sys

# Fail a throughput metric below 70% of its baseline.
MIN_RATIO = 0.7

# The failure ablation's record: contract-checked, never ratio-compared.
FAILURE_ABLATION = "BENCH_ablation_failure_scenarios.json"


def load(path):
    with open(path) as fh:
        return json.load(fh)


def storage_fault_contract_failures(record):
    """Hard storage-fault contracts of the failure ablation, checked
    on the current record alone (no baseline needed): the drawn fault
    plan must round-trip through the trace format and replay
    bit-identically, and the faults-off scenario must report zero
    engine activity (the undecorated fast path)."""
    failures = []
    for flag in ("storageFaultTraceIdentical",
                 "storageFaultReplayBitIdentical"):
        value = record.get(flag)
        if value is None:
            continue
        if value:
            print("  + %-55s true" % flag)
        else:
            print("  ! %-55s FALSE" % flag)
            failures.append(
                "%s: %s is false (fault schedule not replayable)"
                % (FAILURE_ABLATION, flag))
    for row in record.get("storageFaults", []):
        if row.get("scenario") != "faults-off":
            continue
        dirty = [k for k, v in row.items()
                 if isinstance(v, (int, float)) and v and
                 k.startswith(("injected", "torn", "enospc", "priced",
                               "latency", "degraded", "skipped",
                               "failed"))]
        if dirty:
            print("  ! faults-off scenario has nonzero counters: %s"
                  % ", ".join(sorted(dirty)))
            failures.append(
                "%s: faults-off scenario touched the fault engine (%s)"
                % (FAILURE_ABLATION, ", ".join(sorted(dirty))))
    return failures


def micro_metrics(record):
    """(name, bytes_per_second) of every RS-encode micro-bench row."""
    metrics = {}
    for bench in record.get("benchmarks", []):
        name = bench.get("name", "")
        if "BM_RsEncode" not in name:
            continue
        if bench.get("run_type") == "aggregate":
            continue
        bps = bench.get("bytes_per_second")
        if bps:
            metrics["encodeBps[%s]" % name] = bps
    return metrics


def runtime_metrics(record):
    """(name, items_per_second) of every runtime micro-bench row."""
    metrics = {}
    for bench in record.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        ips = bench.get("items_per_second")
        if ips:
            metrics["itemsPerSecond[%s]" % bench.get("name", "")] = ips
    return metrics


# Runtime micro-bench counters that must be exactly zero: steady-state
# heap allocations per event (the hot path is allocation-free), and
# returns to the scheduler per event (a blocking rank hands off straight
# to the next runnable one).
ZERO_COUNTERS = ("allocsPerEvent", "schedulerTripsPerEvent")


def zero_contract_failures(record):
    """The runtime hot path's pass/fail contracts: every ZERO_COUNTERS
    counter in the runtime micro-bench must be exactly zero."""
    failures = []
    for counter in ZERO_COUNTERS:
        for bench in record.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            value = bench.get(counter)
            if value is None:
                continue
            name = bench.get("name", "")
            label = "%s[%s]" % (counter, name)
            if value > 0:
                print("  ! %-55s %g (must be 0)" % (label, value))
                failures.append("BENCH_micro_runtime.json: %s is %g per "
                                "event (contract: 0)"
                                % (label, value))
            else:
                print("  + %-55s 0" % label)
    return failures


def compare(label, baseline, current):
    failures = []
    for name in sorted(baseline):
        base = baseline[name]
        cur = current.get(name)
        if cur is None:
            print("  ~ %-55s only in baseline (skipped)" % name)
            continue
        if base <= 0:
            continue
        ratio = cur / base
        ok = ratio >= MIN_RATIO
        print("  %s %-55s %.3fx (%.3g -> %.3g)"
              % ("+" if ok else "!", name, ratio, base, cur))
        if not ok:
            failures.append("%s: %s at %.2fx < %.2fx"
                            % (label, name, ratio, MIN_RATIO))
    for name in sorted(set(current) - set(baseline)):
        print("  ~ %-55s new metric (no baseline)" % name)
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="bench/baseline")
    parser.add_argument("--current", default=".")
    args = parser.parse_args()

    extractors = {
        "BENCH_micro_rs_auto.json": micro_metrics,
        "BENCH_micro_rs_scalar.json": micro_metrics,
        "BENCH_micro_runtime.json": runtime_metrics,
    }

    failures = []
    compared = 0
    for name, extract in extractors.items():
        base_path = os.path.join(args.baseline, name)
        cur_path = os.path.join(args.current, name)
        if not os.path.exists(base_path):
            print("~ %s: no baseline snapshot (skipped)" % name)
            continue
        if not os.path.exists(cur_path):
            failures.append("%s: baseline exists but no current record "
                            "was produced" % name)
            continue
        print("%s (min ratio %.2f):" % (name, MIN_RATIO))
        cur_record = load(cur_path)
        failures += compare(name, extract(load(base_path)),
                            extract(cur_record))
        if name == "BENCH_micro_runtime.json":
            failures += zero_contract_failures(cur_record)
        compared += 1

    cur_path = os.path.join(args.current, FAILURE_ABLATION)
    if os.path.exists(cur_path):
        print("%s (contracts):" % FAILURE_ABLATION)
        failures += storage_fault_contract_failures(load(cur_path))
        compared += 1
    else:
        failures.append("%s: no current record was produced"
                        % FAILURE_ABLATION)

    if compared == 0:
        print("perf guard: nothing to compare — commit baselines under "
              "%s" % args.baseline)
        return 1
    if failures:
        print("\nperf guard FAILED:")
        for failure in failures:
            print("  " + failure)
        return 1
    print("\nperf guard passed (%d record(s))" % compared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
