"""occbench: the benchmark of `occ`, end to end and layer by layer.

    python3 occbench/run.py --workload {tower,pushforward,cli,all} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; `occ` is imported from its `src/`.  The
inputs are generated from the seed before anything is timed.  Each pass of
the op list runs in a fresh interpreter, one at a time, so no process-level
cache carries over.

--trace 0: passes run until their op lists have taken `--seconds` in all
(at least MIN_PASSES).  The first pass also runs every oracle after its op
list.  Times are CPU times (see worker.py), scaled to a reference machine
speed (PROBE_REF_S).
Reported: op_p50_ms and op_p90_ms over the ops, each op's latency being its
median over the passes; wall_s, the sum of those latencies; setup_s, the
median over the passes and SETUP_PROBES more set-up-only interpreters;
peak_rss_mb, the median over the passes.

--trace 1: one untraced pass that also runs the oracles, then one pass
under the outside-in tracer;
reported are the per-layer numbers of the traced pass and
trace.overhead_share, its wall time over the untraced one.

`--workload all` runs the three in turn, each printing its own block.  For
one workload, the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `correct` is false when passes
disagree on any output, when the traced outputs differ from the untraced
ones, or when an op fails for a reason that is not a known defect (see
ops.DEFECTS); `failed` counts every failed op of the op list.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_PASSES = 3
SETUP_PROBES = 9
DEADLINE_S = 170.0
# Times are reported at this speed of worker.speed_probe(): about the probe's
# CPU time in the fast state of the machine the benchmark was defined on
# (see baseline.json).  A time t measured while the probe took p seconds is
# reported as t * PROBE_REF_S / p.
PROBE_REF_S = 0.0015

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


def run_worker(spec_path, workdir, mode, deadline, tag, spans=None):
    """Run one pass in a fresh interpreter and return its result dict."""
    out = os.path.join(workdir, f"result-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), spec_path, out, mode]
    if spans:
        cmd.append(spans)
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before a pass could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def scaled_latencies(res):
    """A pass's op latencies, scaled to the reference machine speed."""
    return [t * PROBE_REF_S / p for t, p in zip(res["latencies_s"], res["op_probe_s"])]


def scaled_setup(res):
    return res["setup_s"] * PROBE_REF_S / res["setup_probe_s"]


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def write_inputs(spec, workdir):
    """Write task files and the spec; argv entries '@name' become file paths."""
    files = spec.pop("files", {})
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    for op in spec["ops"]:
        if "argv" in op:
            op["argv"] = [
                os.path.relpath(os.path.join(workdir, a[1:]), ROOT) if a.startswith("@") else a
                for a in op["argv"]
            ]
    spec["root"] = ROOT
    path = os.path.join(workdir, "spec.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return path


def measure(args, spec_path, workdir, deadline, n_ops):
    passes = []
    measured = last = 0.0
    # extra passes only while one more still leaves room for the set-up probes
    while len(passes) < MIN_PASSES or (measured < args.seconds and time.monotonic() + 2 * last + 15 < deadline):
        mode = "verify" if not passes else "run"
        started = time.monotonic()
        res = run_worker(spec_path, workdir, mode, deadline, f"pass{len(passes)}")
        last = time.monotonic() - started
        passes.append(res)
        measured += res["wall_s"]
    setups = [scaled_setup(p) for p in passes]
    for i in range(SETUP_PROBES):
        setups.append(scaled_setup(run_worker(spec_path, workdir, "setup", deadline, f"setup{i}")))
    # The machine's speed drifts by tens of percent over seconds and minutes,
    # even in CPU time (other tenants on the same cores).  Latencies are CPU
    # times scaled by the speed probe around each op, an op's latency is its
    # median over the passes, the percentiles run over the ops, and wall_s is
    # the op list's time as the sum of those.
    lat_s = [statistics.median(ts) for ts in zip(*(scaled_latencies(p) for p in passes))]
    lat_ms = [t * 1000.0 for t in lat_s]
    metrics = {
        "wall_s": sum(lat_s),
        "op_p50_ms": quantile(lat_ms, 50),
        "op_p90_ms": quantile(lat_ms, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    consistent = all(p["digest"] == passes[0]["digest"] for p in passes)
    lines = [
        f"passes {len(passes)}, ops {n_ops} per pass (percentiles over {len(lat_ms)} ops, each its median pass)",
        "pass wall-clock times " + ", ".join(f"{p['wall_s']:.3f}" for p in passes) + " s",
        "pass CPU times " + ", ".join(f"{sum(p['latencies_s']):.3f}" for p in passes) + " s (unscaled)",
        "speed probe median " + ", ".join(f"{statistics.median(p['op_probe_s']) * 1000:.3f}" for p in passes)
        + f" ms CPU per pass (reference {PROBE_REF_S * 1000:.3f} ms)",
        "setup samples " + ", ".join(f"{s:.4f}" for s in setups) + " s",
    ]
    for name, unit in END_TO_END.items():
        lines.append(f"{name:<12} {metrics[name]:>12.4f} {unit}")
    values = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    return passes[0], consistent, values, lines


def trace(workload, args, spec_path, workdir, deadline):
    base = run_worker(spec_path, workdir, "verify", deadline, "untraced")
    spans = os.path.join(os.path.dirname(workdir), f"spans-{workload}-seed{args.seed}.jsonl")
    traced = run_worker(spec_path, workdir, "trace", deadline, "traced", spans)
    layers = traced["layers"]
    wall = sum(scaled_latencies(traced))
    layers["trace.overhead_share"] = wall / sum(scaled_latencies(base))
    lines = [f"untraced wall {base['wall_s']:.3f} s, traced wall {traced['wall_s']:.3f} s (unscaled), "
             f"spans in {os.path.relpath(spans, ROOT)}",
             f"{'layer':<28} {'calls':>9} {'self_s':>10} {'share':>7} {'errors':>7}"]
    raw_wall = sum(traced["latencies_s"])
    groups = sorted({k.rsplit(".", 1)[0] for k in layers if k.endswith(".self_s")})
    for g in groups:
        self_s = layers[f"{g}.self_s"]
        lines.append(f"{g:<28} {layers[g + '.calls']:>9} {self_s:>10.4f} {self_s / raw_wall:>7.1%} {layers[g + '.errors']:>7}")
    for k in sorted(layers):
        if not k.endswith((".calls", ".self_s", ".errors")):
            lines.append(f"{k:<40} {layers[k]:.6g}")
    values = {name: {"value": layers[name], "unit": unit} for name, unit in per_layer_names()}
    return base, traced["digest"] == base["digest"], values, lines


def bench(workload, args):
    """Run and report one workload; 0 when it ran, 1 when a pass failed."""
    deadline = time.monotonic() + DEADLINE_S
    spec = workloads.generate(workload, args.seed)
    n_ops = len(spec["ops"])
    workdir = os.path.join(ROOT, ".occbench", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        spec_path = write_inputs(spec, workdir)
        if args.trace:
            verified, consistent, values, lines = trace(workload, args, spec_path, workdir, deadline)
        else:
            verified, consistent, values, lines = measure(args, spec_path, workdir, deadline, n_ops)
    except BenchError as exc:
        sys.stderr.write(f"occbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [c for c in verified["checks"] if not c["ok"]]
    unknown = [c for c in failed if c["defect"] is None]
    by_defect = collections.Counter(c["defect"] for c in failed if c["defect"])
    print(f"occbench {workload} seed={args.seed} trace={args.trace}")
    for line in lines:
        print("  " + line)
    print(f"  fail_share   {len(failed) / n_ops:>12.4f} ({len(failed)}/{n_ops} ops)")
    for d, n in sorted(by_defect.items()):
        print(f"  known defect {d} x{n}: {verified['defects'][d]}")
    for i, c in enumerate(verified["checks"]):
        if not c["ok"]:
            print(f"  FAIL op {i} [{c['defect'] or 'UNEXPECTED'}]: {c['detail']}")
    print(f"  outputs consistent: {consistent}; digest {verified['digest']}")
    correct = consistent and not unknown and len(verified["checks"]) == n_ops
    print(json.dumps({"correct": correct, "attempted": n_ops, "failed": len(failed), "metrics": values}), flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "occ", "__init__.py")):
        sys.stderr.write(f"occbench: no occ sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    for workload in workloads.WORKLOADS if args.workload == "all" else (args.workload,):
        status = bench(workload, args)
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
