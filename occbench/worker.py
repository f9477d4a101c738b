"""One pass of a workload in a fresh interpreter.

    python3 occbench/worker.py <spec.json> <result.json> <mode> [<spans.jsonl>]

Modes: `setup` times set-up only; `run` times set-up and the op list;
`verify` does the same and then runs the oracles; `trace` runs the op list
under the outside-in tracer and writes the spans.  The result file holds
the timings, the digests of the outputs and, per mode, the oracle verdicts
or the per-layer numbers.

Set-up is timed from just before `import occ` to the first op, and covers
the laws the workload declares as set-up.  The clock runs around each op
only; canonicalizing outputs, digests and oracles come after the op list.

Times are CPU seconds of this process and its reaped children
(`cpu_clock`): `occ` computes in one thread and waits on nothing, so on an
idle machine an op's CPU time is its latency, and on a shared virtual
machine it leaves out the time the processor spent on other work.  The
pass's wall-clock time is recorded as well, for the human-readable lines.
"""

import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

PROBE_EVERY_S = 0.2  # CPU seconds


def cpu_clock():
    """CPU seconds of this process and of the children it has waited for."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def speed_probe():
    """CPU seconds for a fixed piece of exact arithmetic, the fastest of three.

    Even in CPU time the machine's speed drifts by tens of percent over
    seconds (other tenants share the cores and their caches).  The probe,
    run between ops, tells how fast the machine was around each op, so that
    op times can be scaled to one reference speed.  It uses no `occ` code.
    """
    best = float("inf")
    for _ in range(3):
        t = cpu_clock()
        acc = {}
        for i in range(1, 300):
            key = (i % 7, i % 5)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 13 + 1, i % 97 + 1) * Fraction(3, 7)
        best = min(best, cpu_clock() - t)
    return best


class Prober:
    """Runs speed_probe() every PROBE_EVERY_S CPU seconds, also inside ops.

    SIGPROF interrupts the op list every PROBE_EVERY_S seconds of CPU time
    and the handler runs the probe, so an op that takes seconds gets probe
    samples from its whole duration, not only from its two ends.  Each
    handler run is timed, so that its CPU time can be taken out of the op it
    interrupted.
    """

    def __init__(self):
        self.samples = []  # probe durations, in order
        self.spans = []  # (start, end) on cpu_clock of each probe run

    def sample(self, signum=None, frame=None):
        start = cpu_clock()
        self.samples.append(speed_probe())
        self.spans.append((start, cpu_clock()))

    def start(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def time_op(self, fn, arg):
        """(result, CPU seconds of fn(arg) less the probes, probe index range)."""
        n0 = len(self.samples)
        t0 = cpu_clock()
        out = fn(arg)
        t1 = cpu_clock()
        n1 = len(self.samples)
        inside = sum(e - s for s, e in self.spans[n0:n1] if t0 <= s and e <= t1)
        return out, t1 - t0 - inside, (n0, n1)

    def speed_around(self, n0, n1):
        """Mean probe over an op: the last sample before it, those inside
        it and the first after it."""
        return statistics.fmean(self.samples[n0 - 1 : n1 + 1])


def main(argv):
    spec_path, result_path, mode = argv[1:4]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)

    t0 = cpu_clock()
    import occ

    if spec["workload"] == "cli":
        import occ.cli  # noqa: F401
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    laws = {(kind, n): occ.make_law(kind, n) for kind, n in spec["setup_laws"]}
    setup_s = cpu_clock() - t0
    if not os.path.abspath(occ.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported occ from {occ.__file__}, not from {src}")
    prober = Prober()
    prober.sample()
    if mode == "setup":
        _write(result_path, {"setup_s": setup_s, "setup_probe_s": prober.samples[0]})
        return 0

    import ops

    runner = ops.RUNNERS[spec["workload"]](spec, laws)
    outputs, latencies, marks = [], [], []
    wall0 = time.perf_counter()
    prober.start()
    try:
        for i, op in enumerate(spec["ops"]):
            if tracer is not None:
                tracer.op = i
            out, cpu_s, mark = prober.time_op(runner.run, op)
            outputs.append(out)
            latencies.append(cpu_s)
            marks.append(mark)
    finally:
        prober.stop()
    wall_s = time.perf_counter() - wall0
    prober.sample()  # so that the last ops have a sample after them too
    op_probes = [prober.speed_around(n0, n1) for n0, n1 in marks]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "setup_probe_s": prober.samples[0],
        "wall_s": wall_s,
        "latencies_s": latencies,
        "op_probe_s": op_probes,
        "peak_rss_mb": rss_mb,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_stats()
        if len(argv) > 4:
            tracer.write_spans(argv[4])
    canon = [json.dumps(runner.canonical(out), sort_keys=True) for out in outputs]
    result["op_digests"] = [hashlib.sha256(c.encode()).hexdigest()[:16] for c in canon]
    result["digest"] = hashlib.sha256("\n".join(canon).encode()).hexdigest()
    if mode == "verify":
        result["checks"] = [runner.verify(i, outputs) for i in range(len(outputs))]
        result["defects"] = ops.DEFECTS
    _write(result_path, result)
    return 0


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
