"""Tests of the benchmark itself (not collected by the main suite).

    python3 -m pytest -q occbench/test_occbench.py

Passes here run on cheap slices of each workload's op list, so the tests
check the machinery -- determinism, digests, tracer restore, failure
accounting -- and not the timings.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def cheap_slice(spec):
    """The ops of a spec that stay under a few seconds in all."""
    if spec["workload"] == "cli":
        spec["ops"] = [op for op in spec["ops"] if not op["case"].startswith("check:")]
    elif spec["workload"] == "pushforward":
        spec["ops"] = [op for op in spec["ops"] if spec["rings"][op["ring"]]["law"][0] != "universal"]
    else:
        spec["ops"] = [op for op in spec["ops"] if op["law"][0] != "universal"]
    return spec


def passes(workload, seed, modes, tmp_path):
    spec = cheap_slice(workloads.generate(workload, seed))
    workdir = tmp_path / f"{workload}-{seed}"
    workdir.mkdir()
    spec_path = run.write_inputs(spec, str(workdir))
    deadline = time.monotonic() + 600
    return [run.run_worker(spec_path, str(workdir), mode, deadline, f"{mode}{i}") for i, mode in enumerate(modes)]


def test_same_seed_same_inputs_and_op_counts():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 7) == workloads.generate(w, 7)
        counts = {len(workloads.generate(w, seed)["ops"]) for seed in range(6)}
        assert len(counts) == 1, (w, counts)
    assert len(workloads.generate("pushforward", 0)["ops"]) >= 100
    assert len(workloads.generate("cli", 0)["ops"]) >= 100


def test_cli_cost_shape_is_the_same_for_every_seed():
    def shape(seed):
        spec = workloads.generate("cli", seed)
        cases = sorted(op["case"] for op in spec["ops"])
        ks = sorted(
            (task["law"], action["k"])
            for name, text in spec["files"].items() if name.startswith("task_")
            for task in [json.loads(text)]
            for action in task["actions"] if action["op"] == "n-series"
        )
        return cases, ks

    assert len({json.dumps(shape(seed)) for seed in range(6)}) == 1
    laws = {law for law, _ in shape(0)[1]}
    assert laws == {"additive", "multiplicative", "universal"}


def test_other_seed_other_inputs():
    for w in workloads.WORKLOADS:
        a, b = workloads.generate(w, 1), workloads.generate(w, 2)
        assert {**a, "seed": 0} != {**b, "seed": 0}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_digests_and_verdicts(workload, tmp_path):
    a, b = passes(workload, 3, ["verify", "verify"], tmp_path)
    assert a["digest"] == b["digest"]
    assert a["op_digests"] == b["op_digests"]
    assert a["checks"] == b["checks"]
    assert len(a["latencies_s"]) == len(a["checks"]) > 0
    assert all(c["ok"] or c["defect"] for c in a["checks"]), [c for c in a["checks"] if not c["ok"]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_digests_equal_untraced(workload, tmp_path):
    plain, traced = passes(workload, 4, ["run", "trace"], tmp_path)
    assert traced["digest"] == plain["digest"]
    layers = traced["layers"]
    assert layers["trace.spans"] > 0
    assert layers["series.mul.calls"] > 0
    assert 0 < layers["series.mul.kept_share"] <= 1


def test_tracer_patches_every_binding_and_restores_originals():
    import occ
    import occ.cli
    from occ.series import Series

    from tracer import TARGETS, Tracer, bindings

    before = [(owner, key, value) for owner, key, value in bindings()]
    names = {(getattr(owner, "__name__", None), key) for owner, key, _ in before}
    for alias in [("Series", "__rmul__"), ("Series", "__radd__"), ("occ", "invert_unit"),
                  ("occ.projective", "exact_divide"), ("occ.specialization", "tower_classes"),
                  ("occ.exprs", "invert_unit"), ("occ.cli", "tower_classes"), ("occ.cli", "evaluate"),
                  ("occ", "make_law"), ("occ.cli", "make_law")]:
        assert alias in names, alias
    assert len(before) > sum(len(t) for t in TARGETS.values())

    tracer = Tracer()
    tracer.install()
    try:
        for owner, key, value in before:
            assert vars(owner)[key] is not value, (owner, key)
        law = occ.make_law("multiplicative", 3)
        ctx = law.geometry_context(["u"])
        u = ctx.var("u")
        assert 2 * u == u + u
        with contextlib.redirect_stdout(io.StringIO()):
            assert occ.cli.main(["chi", "2", "1"]) == 0
    finally:
        tracer.uninstall()
    for owner, key, value in before:
        assert vars(owner)[key] is value, (owner, key)
    assert Series.__rmul__ is Series.__mul__
    stats = tracer.layer_stats()
    assert stats["fgl.make_law.calls"] >= 2
    assert stats["series.mul.calls"] >= 1
    assert stats["cli.main.calls"] == 1
    assert stats["specialization.euler_char.calls"] == 1


def test_exception_escaping_main_is_a_failed_op(tmp_path):
    import ops

    task = tmp_path / "task.json"
    task.write_text(json.dumps({"law": "additive", "actions": [{"op": "n-series", "k": "abc"}]}))
    op = {"kind": "cli", "argv": ["run", str(task)], "case": "malformed:non-integer-k",
          "expect": {"oracle": "exit", "code": 2}}
    runner = ops.CliRunner({"ops": [op]}, {})
    out = runner.run(op)
    assert out["error"] and out["error"].startswith("ValueError")
    check = runner.verify(0, [out])
    assert not check["ok"] and check["defect"] == "D2"


def test_without_the_program_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "occbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "occbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
