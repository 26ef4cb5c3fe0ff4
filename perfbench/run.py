#!/usr/bin/env python3
"""Host-cost benchmark of the Morpheus simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite_batch --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (its own cargo workspace, depending on the
library crates by path) into `$CARGO_TARGET_DIR` (default `.bench_build`),
then runs repetitions of the workload, each in a fresh process, until
`--seconds` have passed and at least MIN_REPS repetitions have run. Every
repetition generates its inputs from the seed, stages them, runs the
measured pass and checks its outputs.

Prints, as the last line of stdout, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones (medians over repetitions, host times
calibrated to a reference host's speed; see calibrate()); with
`--trace 1` they are the per-layer ones, from an untraced repetition that
also runs the layer probes, a traced repetition, and one probe process.
See perfbench/README.md for the definitions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Memo setting of each workload's processes: the batch workload measures
# the parse work itself, so the deserialization memo must be off there.
MEMO = {"suite_batch": "0", "serve_ladder": None, "fleet_zipf_rw": None}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "conv_mb_per_s": "MB/s",
    "morpheus_mb_per_s": "MB/s",
    "p2p_mb_per_s": "MB/s",
    "conv_req_per_s": "1/s",
    "morpheus_req_per_s": "1/s",
    "p2p_req_per_s": "1/s",
}

LAYERS = ["host", "nvme", "ftl", "flash", "ssd", "pcie"]
SERVE_CELLS = [f"{m}.{r}" for m in ("conventional", "morpheus", "p2p") for r in (500, 1200, 2000)]

PER_LAYER = {
    "workloads.gen_s": "s",
    "ftl.stage_s": "s",
    "ftl.overwrite_s": "s",
    "format.parse_mb_per_s": "MB/s",
    "exec.conv_s": "s",
    "exec.morpheus_s": "s",
    "exec.p2p_s": "s",
    "kernels.s": "s",
    "storage_app.ns_per_byte_2mb": "ns/B",
    "storage_app.ns_per_byte_16mb": "ns/B",
    "storage_app.scaling": "ratio",
    "serve.host_us_per_req.conventional": "us",
    "serve.host_us_per_req.morpheus": "us",
    "serve.host_us_per_req.p2p": "us",
    "fleet.serve_s": "s",
    "fleet.aggregate_us": "us",
    "cache.lookup_ns": "ns",
    "telemetry.export_s": "s",
    **{f"sim.{l}.events": "count" for l in LAYERS},
    **{f"sim.{l}.busy_ms": "ms" for l in LAYERS},
    "sim.host_ns_per_event": "ns",
    "trace.overhead": "ratio",
    "sim.nvme.cmds_per_doorbell": "ratio",
    "sim.nvme.cmd_lat_p99_ns": "ns",
    "sim.flash.read_lat_p99_ns": "ns",
    "sim.ssd.core_util": "share",
    **{f"sim.serve.p99_us.{c}": "us" for c in SERVE_CELLS},
    **{f"sim.serve.shed.{c}": "count" for c in SERVE_CELLS},
    "sim.cache.hit_rate": "share",
    "sim.cache.evictions": "count",
    "sim.cache.invalidations": "count",
    "sim.fleet.rebalanced": "count",
    "sim.fleet.offered_skew": "ratio",
    "sim.control.transitions": "count",
    "model.fig8_speedup": "x",
    "model.fig8_err_vs_paper": "share",
}

# Per-layer metrics read from the traced repetition; every other one
# comes from the untraced repetition or the probe process.
TRACED = {f"sim.{l}.{k}" for l in LAYERS for k in ("events", "busy_ms")} | {
    "sim.nvme.cmd_lat_p99_ns", "sim.flash.read_lat_p99_ns"}
PROBED = ("storage_app.", "model.")

# Four repetitions at least: a suite pass takes several seconds, and the
# median of four rides out a burst of host noise within one run.
MIN_REPS = 4
# Every process must be gone well inside the 180 s a run may take.
DEADLINE_S = 170.0
# With the memo off, rerunning a Morpheus job costs about what the first
# run cost; a memo replay costs a small fraction of it.
MIN_MEMO_OFF_RATIO = 0.5
# glibc malloc settings of every child. By default glibc moves its mmap
# threshold each time a large block is freed, so whether a multi-MB
# buffer is a fresh mmap (page faults on every touch) or reused heap
# depends on the exact sizes and order of earlier frees. Those follow
# from the generated inputs, so the page-fault count of a suite pass
# changed about 3x from one seed to the next. Fixed thresholds (32 MiB,
# the largest glibc accepts, and a trim threshold above the workloads'
# heap) make large buffers reuse the heap the same way for every seed.
MALLOC_TUNABLES = "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=1073741824"
# Host seconds of the two calibration units (perfbench/src/calib.rs) on
# the reference host, a calm 2 GHz Xeon vCPU. A repetition's host times
# are scaled by these over the median unit times it measured between its
# operations, so they read as seconds on the reference host however fast
# the shared host ran meanwhile: set-up, `wall_s` and the conventional
# path by the parse unit alone, the Morpheus paths by both units together
# (see calibrate()).
REF_PARSE_S = 0.0105
REF_CHASE_S = 0.0095


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the child binary; returns its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log("build failed")
        return None
    return os.path.join(target, "release", "perfbench")


class Runner:
    def __init__(self, binary, seed, started):
        self.binary = binary
        self.seed = seed
        self.started = started
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def child(self, workload, memo, *flags):
        """Runs one repetition in a fresh process; returns its report."""
        env = dict(os.environ)
        env.pop("MORPHEUS_DESER_MEMO", None)
        env["GLIBC_TUNABLES"] = MALLOC_TUNABLES
        if memo is not None:
            env["MORPHEUS_DESER_MEMO"] = memo
        cmd = [self.binary, workload, "--seed", str(self.seed), *flags]
        left = DEADLINE_S - (time.monotonic() - self.started)
        try:
            done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=max(left, 1.0))
            rep = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0:
                raise ValueError(f"exit code {done.returncode}")
        except (subprocess.TimeoutExpired, ValueError, IndexError) as e:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{' '.join(cmd[1:])}: {e}")
            return None
        self.attempted += rep["attempted"]
        self.failed += rep["failed"]
        self.problems.extend(rep["errors"])
        return rep

    def elapsed(self):
        return time.monotonic() - self.started


def median_of(reps, name):
    vals = [r["metrics"].get(name, 0.0) for r in reps]
    return statistics.median(vals) if vals else 0.0


def check(workload, runner, reps):
    """Cross-repetition checks: determinism and the memo setting."""
    digests = {r["sim_digest"] for r in reps}
    if len(digests) > 1:
        runner.problems.append(f"repetitions disagree on sim_digest: {sorted(digests)}")
    if MEMO[workload] == "0":
        for r in reps:
            ratio = r["metrics"].get("selftest.memo_replay_ratio", 0.0)
            if r["memo_env"] != "0" or ratio < MIN_MEMO_OFF_RATIO:
                runner.problems.append(
                    f"memo self-test: child memo env {r['memo_env']!r}, "
                    f"rerun/first host-time ratio {ratio:.3f} < {MIN_MEMO_OFF_RATIO}")
    if reps:
        log(f"{workload}: {len(reps)} repetition(s)")
        print(f"sim_digest {workload} {reps[0]['sim_digest']}", flush=True)


def calibrate(runner, rep):
    """Scales a repetition's end-to-end host times to the reference host.

    Under a noisy neighbour the conventional path's parse and allocation
    work slows about as much as the parse unit, while the Morpheus paths'
    work (timing-model bookkeeping, the emit path's copies) slows less and
    tracks the sum of the parse unit and the memory-bound chase unit.
    """
    m = rep["metrics"]
    parse, chase = m.get("calib.parse_s", 0.0), m.get("calib.chase_s", 0.0)
    if parse <= 0 or chase <= 0:
        runner.problems.append("repetition reported no calibration time")
        return
    host = REF_PARSE_S / parse
    device = (REF_PARSE_S + REF_CHASE_S) / (parse + chase)
    for k in m:
        if k in ("setup_s", "wall_s") or k.startswith("op_s.conv."):
            m[k] *= host
        elif k.startswith(("op_s.morpheus.", "op_s.p2p.")):
            m[k] *= device


def measure(workload, runner, seconds):
    reps, raw = [], []
    while len(reps) < MIN_REPS or runner.elapsed() < seconds:
        per_rep = runner.elapsed() / max(len(reps), 1)
        if reps and runner.elapsed() + 2 * per_rep > DEADLINE_S:
            break
        rep = runner.child(workload, MEMO[workload])
        if rep is None:
            break
        raw.append(rep["metrics"]["wall_s"])
        calibrate(runner, rep)
        reps.append(rep)
    check(workload, runner, reps)
    if reps:
        log(f"raw wall_s median {statistics.median(raw):.4f} s; calibration "
            f"units {median_of(reps, 'calib.parse_s') * 1e3:.3f} ms parse, "
            f"{median_of(reps, 'calib.chase_s') * 1e3:.3f} ms chase")
    out = {name: median_of(reps, name) for name in ("setup_s", "wall_s", "peak_rss_mb")}
    out.update(mode_rates(reps))
    return out, reps


def mode_rates(reps):
    """Per-mode rates: simulated input bytes and requests over host time.

    A mode's host time is the sum over its operations of each operation's
    median across repetitions, so a burst of host noise during one
    operation of one repetition does not move the rate.
    """
    out = {}
    for key in ("conv", "morpheus", "p2p"):
        ops = sorted({k for r in reps for k in r["metrics"] if k.startswith(f"op_s.{key}.")})
        host = sum(median_of(reps, k) for k in ops)
        if host <= 0:
            out[f"{key}_mb_per_s"] = out[f"{key}_req_per_s"] = 0.0
            continue
        out[f"{key}_mb_per_s"] = median_of(reps, f"bytes.{key}") / 1e6 / host
        out[f"{key}_req_per_s"] = median_of(reps, f"reqs.{key}") / host
    return out


def measure_layers(workload, runner, seconds):
    plain, traced = [], []
    while not plain or runner.elapsed() < seconds:
        a = runner.child(workload, MEMO[workload], "--probe")
        b = runner.child(workload, MEMO[workload], "--trace")
        if a is None or b is None:
            break
        plain.append(a)
        traced.append(b)
    check(workload, runner, plain + traced)
    probe = runner.child("probe", "0")
    out = {}
    for name in PER_LAYER:
        if name in TRACED:
            out[name] = median_of(traced, name)
        elif name.startswith(PROBED):
            out[name] = median_of([probe] if probe else [], name)
        else:
            out[name] = median_of(plain, name)
    wall = median_of(plain, "wall_s")
    traced_wall = median_of(traced, "wall_s")
    events = median_of(traced, "sim.events")
    out["trace.overhead"] = traced_wall / wall - 1.0 if wall > 0 else 0.0
    out["sim.host_ns_per_event"] = wall * 1e9 / events if events > 0 else 0.0
    return out, plain


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(MEMO))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    runner = Runner(binary, args.seed % (1 << 64), time.monotonic())
    if args.trace:
        values, reps = measure_layers(args.workload, runner, args.seconds)
        units = PER_LAYER
    else:
        values, reps = measure(args.workload, runner, args.seconds)
        units = END_TO_END
    for p in runner.problems[:20]:
        log(f"problem: {p}")
    correct = bool(reps) and not runner.problems and runner.failed == 0
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
