#!/usr/bin/env python3
"""Benchmark for crflat: drives the real CLI verbs in-process on seeded inputs.

Usage (from the repository root):

    python3 bench/run.py --workload flatten-sheared --seed 1 --seconds 10 --trace 0

Workloads (see ``WHY``): ``flatten-sheared``, ``audit-uniqueness`` and
``screen-germs``.  One client runs a closed loop in this process: it calls
``crflat.cli.main(argv)`` with stdout captured, checks every report, and
starts the next op only after the previous one returned.  Whole passes over
the workload's op pool run until ``--seconds`` have passed and at least
``MIN_SAMPLES`` ops were measured.  ``setup_s`` is the median of ``SETUPS``
set-ups, each a fresh import of ``crflat`` plus the workload's warm-up op.

An op fails when a verb exits nonzero, raises, or prints a report that a
check in ``checks.py`` rejects; ``fail_ratio`` (failed over attempted ops) is
printed, and the result line carries both counts.

Times are scaled to a reference host speed.  A shared host can run this
process at half speed for a fraction of a second or for minutes, which
would swamp any change to the program.  So a timer signal runs a tiny fixed
exact-arithmetic kernel (``probe``) every ``TICK_S`` seconds while ops and
set-ups run, and each op's wall time is multiplied by the mean speed the
probes saw during it (``PROBE_REF_S`` over a probe's duration).  Changes to
the program still show in full, as the probe does not use it.  The
unscaled wall-clock figures are printed too.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced run
(see ``tracer.py``), whose spans are also written under ``.bench_out/``; it
times one untraced pass first, the base of ``trace.overhead``.
Inputs are generated under ``.bench_work/`` and removed afterwards.

``--record-digests`` runs every op of the default seed once and stores the
SHA-256 of its report bytes in ``digests.json``; later runs on that seed
must reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

WHY = {
    "flatten-sheared": "The paper's headline algorithm: flatten --order 10 of sheared parabolic "
                       "quadrics. Traced, germ.shear and germ.split hold 69% of op time and "
                       "linalg.solve 12%; no nullspace.",
    "audit-uniqueness": "unique-check --m 6..8, each op refilling its caches as a CLI process "
                        "does: 80% of the time is linalg.nullspace on sparse integral matrices, "
                        "the target of sparse elimination.",
    "screen-germs": "The classification and obstruction side: classify, jacobian, bishop --search 8 "
                    "and nonminimal-check on random germs. Quadratic grid search and crfields "
                    "brackets; no nullspace or shear.",
}
DEFAULT_SEED = 1
SETUPS = 3  # set-ups per run; setup_s is their median
MIN_SAMPLES = 11  # op_tail_s needs ten samples beyond it
PROBE_SIZE = 5
PROBE_REF_S = 0.0025  # probe seconds at the reference host speed
TICK_S = 0.1
DIGESTS = os.path.join(HERE, "digests.json")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")


def import_crflat():
    """A fresh import of ``crflat.cli`` from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "crflat" or m.startswith("crflat.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("crflat.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"crflat imported from {cli.__file__}, not from {SRC}")
    return cli


def crflat_caches() -> list:
    """Every ``functools`` cache in the loaded ``crflat`` modules."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "crflat" or name.startswith("crflat."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def probe() -> float:
    """Seconds a fixed exact-arithmetic kernel takes: the host's current speed.

    The kernel does the same kind of work as ``crflat`` (``Fraction``
    products and dict updates) and nothing of it, so it gauges the machine,
    not the program.
    """
    gc.disable()  # a collection here would time the program's heap, not the host
    try:
        start = time.perf_counter()
        poly = {(i, j): Fraction(i + 2 * j + 1, j + 3)
                for i in range(PROBE_SIZE) for j in range(PROBE_SIZE)}
        out: dict = {}
        for (i1, j1), c1 in poly.items():
            for (i2, j2), c2 in poly.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, 0) + c1 * c2
        return time.perf_counter() - start
    finally:
        gc.enable()


class Gauge:
    """Host speed sampled by ``probe`` every ``TICK_S`` seconds of wall time."""

    def __init__(self):
        self.speeds: list = []
        self.tracer = None  # when set, each probe is recorded as a span of its own

    def tick(self, *_) -> None:
        seconds = self.tracer.record("trace.probe", probe) if self.tracer else probe()
        self.speeds.append(PROBE_REF_S / seconds)

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def scaled(self, fn, *args):
        """``(result, scaled seconds, wall seconds)`` of ``fn(*args)``."""
        first = len(self.speeds)
        start = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - start
        if len(self.speeds) == first:
            self.tick()
        return out, elapsed * statistics.fmean(self.speeds[first:]), elapsed


def run_op(cli, op: dict):
    """Run the op's verbs; returns (report texts, error or None)."""
    texts = []
    for argv in op["argv"]:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
            return texts, f"{' '.join(argv)}: {exc!r}"
        if code != 0:
            return texts, f"{' '.join(argv)}: exit code {code}"
        texts.append(out.getvalue())
    return texts, None


class Workload:
    """Generated inputs plus the op loop and its checks for one run."""

    def __init__(self, name: str, seed: int, gauge: Gauge):
        self.name = name
        self.gauge = gauge
        self.dir = os.path.join(WORK, f"{name}-s{seed}")
        shutil.rmtree(self.dir, ignore_errors=True)
        self.manifest = inputs.write_inputs(name, seed, self.dir)
        self.ops = self.manifest["ops"]
        recorded = {}
        if seed == DEFAULT_SEED and os.path.exists(DIGESTS):
            with open(DIGESTS, encoding="utf-8") as fh:
                recorded = json.load(fh).get(name, {})
        self.expected = dict(recorded)  # op key -> digest; first sight fixes unrecorded keys
        self.cli = None
        self.caches: list = []
        self.problems: list = []

    def _fresh_warmup(self):
        self.cli = import_crflat()
        return run_op(self.cli, self.manifest["warmup"])

    def setup(self) -> tuple:
        """Import crflat afresh and run the warm-up op; returns (scaled, wall) seconds."""
        (texts, error), scaled, elapsed = self.gauge.scaled(self._fresh_warmup)
        self.caches = crflat_caches()
        self.verify(self.manifest["warmup"], "warmup", texts, error)
        return scaled, elapsed

    def before_op(self) -> None:
        # a CLI process fills its caches itself: unique-check ops never share them
        if self.name == "audit-uniqueness":
            for cache in self.caches:
                cache.cache_clear()

    def verify(self, op: dict, key: str, texts: list, error) -> bool:
        """Check one op's reports; records and returns whether it failed."""
        if error is None:
            info = self.manifest["inputs"].get(op.get("input"), {})
            pair = inputs.pair_of(info) if "A" in info else None
            try:
                problems = checks.check_op(op, texts, pair)
            except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
                problems = [f"unreadable report: {exc!r}"]
            digest = checks.digest(texts)
            if self.expected.setdefault(key, digest) != digest:
                problems.append("report bytes differ from the recorded digest")
        else:
            problems = [error]
        self.problems += [f"{key}: {p}" for p in problems]
        return bool(problems)

    def measure(self, seconds: float, min_samples: int, spans=None) -> list:
        """Closed loop over whole passes.

        Returns (key, scaled seconds, wall seconds, failed) per op.
        """
        samples = []
        start = time.perf_counter()
        while True:
            for op in self.ops:
                self.before_op()
                if spans is not None:
                    spans.op = len(samples)
                (texts, error), scaled, elapsed = self.gauge.scaled(run_op, self.cli, op)
                if spans is not None:
                    spans.counts["cli.report_bytes"] += sum(len(t.encode()) for t in texts)
                failed = self.verify(op, op["key"], texts, error)
                samples.append((op["key"], scaled, elapsed, failed))
            if time.perf_counter() - start >= seconds and len(samples) >= min_samples:
                return samples

    # ops run inside the work directory, so reports name their inputs the same
    # way wherever the checkout lives
    def __enter__(self):
        self._cwd = os.getcwd()
        os.chdir(self.dir)
        return self

    def __exit__(self, *exc):
        os.chdir(self._cwd)
        shutil.rmtree(self.dir, ignore_errors=True)


def rate(samples: list, column: int = 1) -> float:
    """Ops per second of one pass built from each op's median latency.

    Taking each op's median over the passes keeps one disturbed pass from
    moving the figure."""
    by_key: dict = {}
    for sample in samples:
        by_key.setdefault(sample[0], []).append(sample[column])
    return len(by_key) / sum(statistics.median(v) for v in by_key.values())


def tail(latencies: list):
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args) -> dict:
    with Gauge() as gauge, Workload(args.workload, args.seed, gauge) as work:
        for name, info in sorted(work.manifest["inputs"].items()):
            print(f"input {name} terms {info['terms']} degree {info['degree']} "
                  f"max_coeff_bits {info['max_coeff_bits']}")
        setups = [work.setup() for _ in range(1 if args.trace else SETUPS)]
        if args.trace:
            untraced = work.measure(0, 1)
            spans = tracer.Tracer()
            spans.install()
            gauge.tracer = spans
            try:
                samples = work.measure(args.seconds, 1, spans)
            finally:
                gauge.tracer = None
                spans.uninstall()
            metrics = tracer.layer_metrics(spans, len(samples), rate(samples), rate(untraced))
            os.makedirs(OUT, exist_ok=True)
            spans.write(os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.jsonl.gz"))
            for mod, own, inclusive in tracer.module_shares(spans.spans):
                print(f"layer {mod} self {100 * own:.1f}% inclusive {100 * inclusive:.1f}%")
            samples = untraced + samples
        else:
            samples = work.measure(args.seconds, MIN_SAMPLES)
            latencies = [s[1] for s in samples]
            tail_s, tail_pct = tail(latencies)
            metrics = {
                "ops_per_s": metric(rate(samples), "1/s"),
                "op_p50_s": metric(statistics.median(latencies), "s"),
                "op_tail_s": metric(tail_s, "s"),
                "setup_s": metric(statistics.median(s[0] for s in setups), "s"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                      "MB"),
            }
            print(f"op_tail_s is p{tail_pct:.1f} of {len(latencies)} samples")
            print(f"wall clock, unscaled: ops_per_s {rate(samples, 2)} "
                  f"op_p50_s {statistics.median(s[2] for s in samples)} "
                  f"op_tail_s {tail([s[2] for s in samples])[0]} "
                  f"setup_s {statistics.median(s[1] for s in setups)}")
    failed = sum(s[3] for s in samples)
    print(f"fail_ratio {failed / len(samples)} (failed/attempted, {failed}/{len(samples)})")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    for problem in work.problems[:20]:
        print(f"problem {problem}")
    return {
        "correct": not work.problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }


def record_digests() -> None:
    """Store the report digest of every op of the default seed, warm-up included."""
    table = {}
    for name in WHY:
        with Gauge() as gauge, Workload(name, DEFAULT_SEED, gauge) as work:
            work.expected = {}
            work.setup()
            work.measure(0, 1)
        if work.problems:
            raise SystemExit(f"{name}: {work.problems}")
        table[name] = work.expected
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WHY))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "crflat")):
        print(f"error: no crflat sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
