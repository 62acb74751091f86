#!/usr/bin/env python3
"""Figure-grid benchmark: cells/s and per-layer cost of MATCH's grids.

Run from the repository root:

    python3 perfbench/run.py --workload ff-scaling --seed 42 --seconds 36 --trace 0

It builds perfbench_driver from source into .bench_build/, then drives it:
set-up probes, then one warm process that runs the workload's cell list
pass after pass, one cell at a time, for a fixed number of passes that
takes about --seconds.
A process that dies inside a cell is counted as one failed cell and is
respawned at the next cell. End-to-end times are scaled by a reference
kernel the driver times before each cell, which takes out most of the
host's speed drift. Statistics and correctness checks live here; the
last stdout line is the JSON result. See perfbench/NOTES.md.
"""

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
SANDBOX = ROOT / ".bench_build" / "sandbox"
PINS = HERE / "digests.json"

WORKLOADS = ("ff-scaling", "ckpt-write", "recover-multi")
SETUP_PROBES = 7
MIN_PASSES = 2
# One pass's wall seconds on the reference host (NOTES.md). A run makes
# the whole number of passes nearest to --seconds at this speed, at
# least MIN_PASSES, so every run of a workload has the same passes and
# samples whatever the host's speed at the time.
PASS_SECONDS = {"ff-scaling": 11.5, "ckpt-write": 4.3, "recover-multi": 12.5}
MAX_RESPAWNS = 100
KNOWN_DEFECTS = ("abort", "nondeterministic")
PHASES = ("serialize", "rs_encode", "drain", "io")  # util::Phase order
# The driver's reference kernel (an 8 MiB copy and a sort of 32 Ki keys,
# timed before every cell) takes about this long on the reference host.
# End-to-end times are scaled by this over the kernel's local median,
# which takes out most of the host's speed drift; see NOTES.md, "Host
# and noise".
REF_S = 4.2e-3
REF_WINDOW = 5


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def log(msg):
    print(msg, flush=True)


def build():
    if not (ROOT / "src" / "core" / "experiment.hh").is_file():
        raise BenchError(f"program sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmds = [["cmake", "--build", str(BUILD), "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        cmds.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(BUILD / "build.log", "w") as out:
        for cmd in cmds:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                raise BenchError(f"build failed, see {BUILD / 'build.log'}")


def no_core_dumps():
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


class Proc:
    """One finished driver process: its records, exit status and rusage."""

    def __init__(self, workload, seed, *args):
        self.spawned = time.monotonic()
        cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
               "--sandbox", str(SANDBOX)] + list(args)
        with open(BUILD / "driver.err", "ab") as err:
            p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                 preexec_fn=no_core_dumps)
        self.records = []
        try:
            for line in p.stdout:
                self.records.append(json.loads(line))
        except BaseException:
            p.kill()
            raise
        finally:
            p.stdout.close()
            _, status, ru = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        self.exited = time.monotonic()
        self.returncode = p.returncode
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0

    def first(self, kind):
        return next((r for r in self.records if r["kind"] == kind), None)

    def of(self, kind):
        return [r for r in self.records if r["kind"] == kind]

    def ready(self):
        r = self.first("ready")
        if r is None:
            raise BenchError(f"driver exited with {self.returncode} before its "
                             f"first cell; see {BUILD / 'driver.err'}")
        return r


def labels(workload):
    p = Proc(workload, 0, "--list")
    if p.returncode:
        raise BenchError(f"driver --list failed for {workload}")
    return [r["label"] for r in p.of("label")]


class Run:
    """Everything one benchmark run measured, across driver processes."""

    def __init__(self):
        self.setups = []        # seconds from spawn to the first timed cell
        self.execs = []         # timed cell executions
        self.digests = {}       # cell -> digests from every execution
        self.gridcheck = None
        self.cpu = 0.0          # driver CPU inside the timed windows
        self.rss_mb = 0.0
        self.respawns = 0
        self.problems = []      # correctness failures

    def note(self, msg):
        self.problems.append(msg)
        log(f"CHECK FAILED: {msg}")

    def add_setup(self, p):
        ready = p.ready()
        warm = p.first("warmup")
        self.setups.append(ready["t"] - p.spawned)
        self.digests.setdefault(warm["cell"], []).append(warm["digest"])
        return ready


def grid_args(workload, trace):
    """ckpt-write (the list the issue's grid-parallel workload ran) ends
    every run with the grid check; the other workloads only traced runs,
    where it gives the grid layers' metrics. Cells pinned "abort" are
    left out, since an abort would kill the whole grid."""
    if workload != "ckpt-write" and not trace:
        return []
    pins = json.loads(PINS.read_text()).get(workload, {})
    skip = [str(c) for c, name in enumerate(labels(workload))
            if pins.get(name) == "abort"]
    return ["--grid-check"] + (["--grid-skip", ",".join(skip)] if skip else [])


def measure(workload, seed, seconds, trace, probes=SETUP_PROBES):
    run = Run()
    passes = max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))
    args = ["--trace", "1" if trace else "0", "--passes", str(passes)]
    args += grid_args(workload, trace)
    for _ in range(probes):
        p = Proc(workload, seed, "--setup-only")
        run.add_setup(p)
        run.rss_mb = max(run.rss_mb, p.rss_mb)

    start_pass, start_pos = 0, 0
    while True:
        p = Proc(workload, seed, "--start-pass", str(start_pass),
                 "--start-pos", str(start_pos), *args)
        ready = run.add_setup(p)

        begins, cells = p.of("begin"), p.of("cell")
        for r in cells + p.of("gridcheck"):
            if r["computed"] != r["executions"]:
                run.note(f"experimentComputeCount {r['computed']} != "
                         f"{r['executions']} cell executions: a cell replayed")
        for c in cells:
            run.execs.append(c)
            if "digest" in c:
                run.digests.setdefault(c["cell"], []).append(c["digest"])
        end = p.first("end")
        if end is not None:
            if p.returncode != 0 or p.first("done") is None:
                raise BenchError(f"driver exited with {p.returncode} after its "
                                 f"timed window; see {BUILD / 'driver.err'}")
            run.cpu += end["cpu"] - ready["cpu"]
            run.rss_mb = max(run.rss_mb, end["rss_mb"])
            run.gridcheck = p.first("gridcheck")
            return run

        # The process died inside a cell: count one failed execution that
        # took until the death, and resume at the next position (past the
        # last one, the driver goes on with the next pass, if any).
        if len(begins) == len(cells):
            raise BenchError(f"driver exited with {p.returncode} outside a "
                             f"cell; see {BUILD / 'driver.err'}")
        dead = begins[-1]
        run.cpu += p.cpu - ready["cpu"]
        run.rss_mb = max(run.rss_mb, p.rss_mb)
        run.execs.append({"pass": dead["pass"], "cell": dead["cell"],
                          "wall": p.exited - dead["t"],
                          "traced": dead["traced"],
                          "error": f"process died with status {p.returncode}"})
        run.respawns += 1
        if run.respawns > MAX_RESPAWNS:
            raise BenchError("too many driver deaths")
        start_pass, start_pos = dead["pass"], dead["pos"] + 1


def judge(run, workload, names):
    """Returns the failed cells. A cell fails when it dies or throws, when
    its executions disagree (passes, traced/untraced, warm-up, the grid
    check), or when its digest differs from the seed program's pin. The
    cell configs do not depend on --seed, so the pins hold at every seed.
    Cells pinned as a known defect are counted as failed without failing
    the run; any other failure makes the run incorrect."""
    digests = {c: list(ds) for c, ds in run.digests.items()}
    errors = {e["cell"]: e["error"] for e in run.execs if "error" in e}
    if run.gridcheck is not None:
        for cell, digest in enumerate(run.gridcheck["digests"]):
            if digest is not None:
                digests.setdefault(cell, []).append(digest)
        for cell in run.gridcheck["failed_cells"]:
            errors.setdefault(cell, "quarantined by the grid check")

    pins = json.loads(PINS.read_text())[workload]
    failed = set()
    for cell, name in enumerate(names):
        pin = pins.get(name)
        known = pin in KNOWN_DEFECTS
        ds = set(digests.get(cell, []))
        if cell in errors:
            why = errors[cell]
        elif len(ds) > 1:
            why = f"{len(ds)} different digests across executions"
        elif not known and ds != {pin}:
            why = f"digest {min(ds, default=None)} != pinned {pin}"
        else:
            if known:
                log(f"note: {name} is pinned {pin} but ran consistently; re-pin")
            continue
        failed.add(cell)
        if known:
            log(f"failed cell (known defect, pinned {pin}): {name}: {why}")
        else:
            run.note(f"{name}: {why}")
    return failed


def median_by_cell(execs, key):
    by = {}
    for e in execs:
        by.setdefault(e["cell"], []).append(key(e))
    return {c: statistics.median(v) for c, v in by.items()}


def tail_quantile(n):
    """The highest quantile with at least ten of n samples beyond it."""
    return max(n - 10, n // 2) / n


def harrell_davis(values, q):
    """The Harrell-Davis estimate of quantile q: a mean of all order
    statistics weighted by a Beta(q(n+1), (1-q)(n+1)) density, integrated
    over each one's 1/n of the unit interval by the midpoint rule. Where
    the quantile of a sample falls in a gap between two groups of cells,
    the sample quantile jumps with whichever execution lands next to the
    gap; this estimate moves smoothly."""
    s = sorted(values)
    n = len(s)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 16
    weights = [sum(density((i + (k + 0.5) / steps) / n) for k in range(steps))
               for i in range(n)]
    return sum(w * v for w, v in zip(weights, s)) / sum(weights)


def ratio(a, b):
    return a / b if b else 0.0


def host_scales(execs):
    """Sets each execution's "scale": REF_S over the median reference
    time of the executions around it in time (REF_WINDOW on each side),
    so that a time multiplied by it reads as on the reference host at its
    usual speed. An execution that died has no reference of its own and
    takes the scale of the one before it. Returns the whole run's scale,
    which set-up and CPU times, measured per process, take."""
    refs = [e["ref"] for e in execs if "ref" in e]
    whole = REF_S / statistics.median(refs)
    i, scale = 0, whole
    for e in execs:
        if "ref" in e:
            near = refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]
            scale = REF_S / statistics.median(near)
            i += 1
        e["scale"] = scale
    return whole


def end_to_end(run, names, failed_cells):
    timed = [e for e in run.execs if not e.get("traced")]
    whole = host_scales(run.execs)
    scaled = lambda e: e["wall"] * e["scale"]
    wall = median_by_cell(timed, scaled)
    if len(wall) != len(names):
        raise BenchError(f"only {len(wall)} of {len(names)} cells were measured")
    walls = [scaled(e) for e in timed]
    raw = median_by_cell(timed, lambda e: e["wall"])
    failed = sum(1 for e in run.execs if e["cell"] in failed_cells)
    tail_q = tail_quantile(len(walls))
    # The reference kernels ran inside the timed windows; their CPU is
    # the driver's, not the program's.
    cpu = run.cpu - sum(e.get("ref", 0.0) for e in run.execs)
    metrics = {
        "cells_per_s": ((len(names) - len(failed_cells)) / sum(wall.values()), "1/s"),
        "cell_p50_s": (harrell_davis(walls, 0.5), "s"),
        "cell_tail_s": (harrell_davis(walls, tail_q), "s"),
        "cpu_s_per_cell": (cpu * whole / max(len(run.execs) - failed, 1), "s"),
        "rss_peak_mb": (run.rss_mb, "MB"),
        "setup_s": (statistics.median(run.setups) * whole, "s"),
    }
    log(f"cell_tail_s is p{100 * tail_q:.1f} of {len(walls)} timed executions; "
        f"setup_s is the median of {len(run.setups)} set-ups")
    scales = [e["scale"] for e in timed]
    log(f"host speed: reference kernel {1e3 * REF_S / whole:.3f} ms (reference "
        f"host {1e3 * REF_S:.3f} ms), time scales {min(scales):.3f}-"
        f"{max(scales):.3f}; unscaled cells_per_s "
        f"{(len(names) - len(failed_cells)) / sum(raw.values()):.6g}")
    return metrics, len(run.execs), failed


def per_layer(run, names):
    """Per-cell medians of each counter over the traced passes, summed over
    the list: one pass's worth of each layer's work."""
    traced = [e for e in run.execs if e.get("traced") and "digest" in e]
    if not traced:
        raise BenchError("the traced run measured no traced pass")
    # The phases are steady_clock wall time inside PhaseScopes, the cell's
    # CPU is CLOCK_THREAD_CPUTIME_ID, its wall CLOCK_MONOTONIC. Host
    # preemption inside a phase lands in the phase, so phases may exceed
    # the thread's CPU by at most the cell's off-CPU wait (wall - CPU);
    # more than that is time billed twice.
    for e in traced:
        excess = sum(e["phase_s"]) - e["thread_cpu"]
        if excess > e["wall"] - e["thread_cpu"]:
            run.note(f"{names[e['cell']]}: measured phases {sum(e['phase_s']):.6f} s "
                     f"exceed the cell thread's CPU {e['thread_cpu']:.6f} s by more "
                     f"than its off-CPU wait {e['wall'] - e['thread_cpu']:.6f} s")
    fields = {
        "wall": lambda r: r["wall"],
        "cpu": lambda r: r["thread_cpu"],
        "wait": lambda r: r["wall"] - r["thread_cpu"],
        "self": lambda r: r["thread_cpu"] - sum(r["phase_s"]),
    }
    for i, name in enumerate(PHASES):
        fields[name + "_s"] = lambda r, i=i: r["phase_s"][i]
        fields[name + "_n"] = lambda r, i=i: r["phase_n"][i]
    for k in ("allocs", "pool_hits", "bytes_copied", "bytes_stored", "delta_in",
              "delta_out", "compress_in", "compress_out", "decodes", "shipped",
              "attempts", "recoveries", "virtual_s"):
        fields[k] = lambda r, k=k: r[k]
    t = {k: sum(median_by_cell(traced, f).values()) for k, f in fields.items()}

    g = run.gridcheck
    if g is None:
        raise BenchError("the traced run made no grid check")
    plain = [e for e in run.execs if not e.get("traced") and "digest" in e]
    both = {e["cell"] for e in traced} & {e["cell"] for e in plain}
    tw = median_by_cell([e for e in traced if e["cell"] in both], lambda e: e["wall"])
    pw = median_by_cell([e for e in plain if e["cell"] in both], lambda e: e["wall"])
    log(f"tracing overhead: {100 * (ratio(sum(tw.values()), sum(pw.values())) - 1):+.2f}% "
        f"cell wall, traced vs untraced passes of this run ({len(both)} cells)")
    return {
        "core.cell_wall_s": (t["wall"], "s"),
        "core.cell_cpu_s": (t["cpu"], "s"),
        "core.wait_s": (t["wait"], "s"),
        "core.worker_busy_ratio": (g["busy_ratio"], "ratio"),
        "simcore.self_s": (t["self"], "s"),
        "simcore.share": (ratio(t["self"], t["cpu"]), "ratio"),
        "fti.serialize_s": (t["serialize_s"], "s"),
        "fti.serialize_calls": (t["serialize_n"], "count"),
        "fti.rs_encode_s": (t["rs_encode_s"], "s"),
        "fti.rs_encode_calls": (t["rs_encode_n"], "count"),
        "storage.io_s": (t["io_s"], "s"),
        "storage.io_ops": (t["io_n"], "count"),
        "storage.drain_s": (t["drain_s"], "s"),
        "storage.drain_jobs": (t["drain_n"], "count"),
        "storage.shipped_bytes": (t["shipped"], "B"),
        "storage.bytes_stored": (t["bytes_stored"], "B"),
        "storage.bytes_copied": (t["bytes_copied"], "B"),
        "storage.copied_per_stored": (ratio(t["bytes_copied"], t["bytes_stored"]),
                                      "ratio"),
        "storage.blob_allocs": (t["allocs"], "count"),
        "storage.pool_hit_ratio": (ratio(t["pool_hits"], t["pool_hits"] + t["allocs"]),
                                   "ratio"),
        "storage.delta_out_per_in": (ratio(t["delta_out"], t["delta_in"]), "ratio"),
        "storage.compress_out_per_in": (ratio(t["compress_out"], t["compress_in"]),
                                        "ratio"),
        "storage.transform_decodes": (t["decodes"], "count"),
        "ft.attempts": (t["attempts"], "count"),
        "ft.recoveries": (t["recoveries"], "count"),
        "ft.virtual_s": (t["virtual_s"], "s"),
        "grid.makespan_s": (g["makespan"], "s"),
        "grid.drain_s": (g["drain_s"], "s"),
        "grid.drain_jobs": (g["drain_jobs"], "count"),
    }


def pin():
    """Rewrite digests.json from two passes of each workload: a cell that
    dies is pinned "abort", one whose executions disagree
    "nondeterministic". Only for a change that alters simulated results
    on purpose, which must say so."""
    pins = {}
    for workload in WORKLOADS:
        names = labels(workload)
        run = measure(workload, 0, 1e-3, False, probes=0)
        errors = {e["cell"] for e in run.execs if "error" in e}
        pins[workload] = {
            name: "abort" if c in errors else
            run.digests[c][0] if len(set(run.digests[c])) == 1 else
            "nondeterministic"
            for c, name in enumerate(names)}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    log(f"wrote {PINS}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42,
                    help="orders the cells of every pass")
    ap.add_argument("--seconds", type=float, default=36.0,
                    help="about how long the timed passes take")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="rewrite digests.json and exit")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        raise BenchError("--seed must be >= 0 and --seconds > 0")
    if not a.pin and a.workload is None:
        raise BenchError("--workload is required")
    build()
    if a.pin:
        pin()
        return

    names = labels(a.workload)
    run = measure(a.workload, a.seed, a.seconds, bool(a.trace))
    failed_cells = judge(run, a.workload, names)
    if run.gridcheck is not None:
        g = run.gridcheck
        ran = sum(d is not None for d in g["digests"])
        log(f"grid check: {ran} cells on {g['workers']} workers with async "
            f"drain in {g['makespan']:.3f} s (busy ratio {g['busy_ratio']:.3f}), "
            f"digests compared with the serial passes")
    metrics, attempted, failed = end_to_end(run, names, failed_cells)
    log(f"{a.workload} seed {a.seed}: {attempted} timed cell executions, {failed} "
        f"failed (cells_failed_ratio {ratio(failed, attempted):.4f}), "
        f"{run.respawns} respawns")
    if a.trace:
        metrics = per_layer(run, names)
    for k, (v, unit) in metrics.items():
        log(f"  {k} = {v:.6g} {unit}")
    print(json.dumps({"correct": not run.problems, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}), flush=True)


if __name__ == "__main__":
    # A terminated run still kills and reaps its driver (Proc's handler).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
