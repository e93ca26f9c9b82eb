"""Tests of the benchmark itself: generator, output checks and span analysis."""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from crflat import cli  # noqa: E402


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("workload", sorted(run.WHY))
def test_generator_gives_identical_files_for_one_seed(tmp_path, workload):
    first = inputs.write_inputs(workload, 7, str(tmp_path / "a"))
    second = inputs.write_inputs(workload, 7, str(tmp_path / "b"))
    assert first == second
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert mismatch == [] and errors == []
    other = inputs.write_inputs(workload, 8, str(tmp_path / "c"))
    if workload != "audit-uniqueness":
        assert other["inputs"] != first["inputs"]


def test_sheared_quadric_matches_the_programs_shear():
    from crflat.germ import KernelPolynomial, loads_germ, parabolic_quadric
    from crflat.numeric import GaussianRational

    terms, shears = inputs.sheared_quadric(random.Random(3), trunc=6)
    germ = parabolic_quadric(6)
    for m, coeffs in shears.items():
        kernel = {k: GaussianRational(x, y) for k, (x, y) in coeffs.items()}
        germ = germ.shear(KernelPolynomial(m, kernel))
    assert loads_germ(inputs.dumps_germ(terms, 6)) == germ


def test_hyperbolic_pairs_have_no_elliptic_direction():
    grid = inputs.search_grid()
    rng = random.Random(5)
    for _ in range(3):
        assert inputs.first_elliptic(*inputs.hyperbolic_pair(rng), grid) == 1.0


def screen_op(tmp_path):
    manifest = inputs.write_inputs("screen-germs", 3, str(tmp_path))
    op = manifest["ops"][0]
    path = str(tmp_path / op["input"])
    op = {"key": op["key"], "input": op["input"], "argv": [
        ["classify", path], ["jacobian", path], ["bishop", path, "--search", "3"],
        ["nonminimal-check", path, "--order", "6"],
    ]}
    pair = inputs.pair_of(manifest["inputs"][op["input"]])
    return op, [run_cli(argv) for argv in op["argv"]], pair


def test_checker_accepts_real_reports(tmp_path):
    op, texts, pair = screen_op(tmp_path)
    assert checks.check_op(op, texts, pair) == []
    unique = {"key": "m4", "argv": [["unique-check", "--m", "4"]]}
    assert checks.check_op(unique, [run_cli(unique["argv"][0])]) == []


def test_checker_flags_wrong_verdicts(tmp_path):
    op, texts, pair = screen_op(tmp_path)
    a, b = pair
    bishop = texts[2]
    direction = "(1, 0)"
    lam_sq, elliptic = checks.slice_invariant(a, b, checks.parse_direction(direction[1:-1]))
    wrong = "false" if elliptic else "true"
    forged = bishop + f"CANDIDATE search {direction} elliptic={wrong} lambda_sq={lam_sq}\n"
    assert checks.check_bishop(forged, a, b)
    swapped = texts[0].replace("\nA ", "\nX ").replace("\nB ", "\nA ").replace("\nX ", "\nB ")
    assert checks.check_classify(texts[0], a, b) == []
    assert checks.check_classify(swapped, a, b)
    flat = "".join(f"DEGREE {m}\nH_NORMALIZED_ZERO true\n" for m in range(3, 11))
    assert checks.check_flatten(flat + "FLATTENED_TO 10\n", "10") == []
    assert checks.check_flatten(flat.replace("true", "false", 1) + "FLATTENED_TO 10\n", "10")
    assert checks.check_flatten(flat + "OBSTRUCTION_AT 10\n", "10")
    assert checks.check_unique("M 6\nNULLSPACE_DIM 1\n", "6")


def test_verify_flags_one_altered_byte(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    work = run.Workload("screen-germs", 5, run.Gauge())
    monkeypatch.chdir(work.dir)
    op = dict(work.ops[0])
    op["argv"] = [argv for argv in op["argv"] if argv[0] in ("classify", "jacobian")]
    texts = [run_cli(argv) for argv in op["argv"]]
    assert not work.verify(op, op["key"], texts, None)
    altered = [texts[0].replace(".germ", ".gerM", 1), texts[1]]
    assert checks.check_op(op, altered, inputs.pair_of(work.manifest["inputs"][op["input"]])) == []
    assert work.verify(op, op["key"], altered, None)
    assert work.problems == [f"{op['key']}: report bytes differ from the recorded digest"]


def test_recorded_digests_cover_every_default_seed_op(tmp_path):
    with open(run.DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    for workload in run.WHY:
        manifest = inputs.write_inputs(workload, run.DEFAULT_SEED, str(tmp_path / workload))
        keys = {op["key"] for op in manifest["ops"]} | {"warmup"}
        assert set(recorded[workload]) == keys


def test_gauge_samples_the_host_during_a_call():
    def busy(seconds):
        end = run.time.perf_counter() + seconds
        while run.time.perf_counter() < end:
            pass
        return "done"

    with run.Gauge() as gauge:
        out, scaled, wall = gauge.scaled(busy, 3.5 * run.TICK_S)
    assert out == "done" and wall >= 3.5 * run.TICK_S
    assert len(gauge.speeds) >= 3 and scaled > 0


def test_self_time_subtracts_child_coverage():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("leaf", 2.0, 3.0, 1, 0),
        ("b", 5.0, 7.0, 0, 0),
        ("b", 6.0, 8.0, 0, 0),  # overlaps its sibling: covered time counts once
        ("root", 20.0, 21.0, -1, 1),
    ]
    got = tracer.self_times(spans)
    assert got == pytest.approx({"root": 4.0 + 1.0, "a": 2.0, "leaf": 1.0, "b": 4.0})
    shares = {m: (own, inc) for m, own, inc in tracer.module_shares(spans)}
    assert shares["root"] == pytest.approx((5.0 / 11.0, 1.0))


def test_tracer_records_layers_and_restores_the_program(tmp_path):
    terms, _ = inputs.sheared_quadric(random.Random(1), trunc=5)
    path = tmp_path / "g.germ"
    path.write_text(inputs.dumps_germ(terms, 5))
    from crflat import flatten, linalg

    before = (cli.main, flatten.solve, linalg.solve)
    t = tracer.Tracer()
    t.install()
    try:
        text = run_cli(["flatten", str(path), "--order", "5"])
    finally:
        t.uninstall()
    assert (cli.main, flatten.solve, linalg.solve) == before
    assert checks.values(text, "FLATTENED_TO") == ["5"]
    names = tracer.call_counts(t.spans)
    for layer in ("cli.main", "flatten.flatten_to_order", "flatten.solve_kernel",
                  "linalg.solve", "germ.shear", "series.mul"):
        assert names[layer] > 0, layer
    assert t.counts["numeric.mul"] > 0 and t.counts["linalg.solve.cells"] > 0
    metrics = tracer.layer_metrics(t, 1, 1.0, 1.0)
    assert [m[0] for m in tracer.PER_LAYER] == list(metrics)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == run.WHY
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in tracer.PER_LAYER]
    assert spec["paths"] == ["bench"]
