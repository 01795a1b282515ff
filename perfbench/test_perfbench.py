"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

import ladder
import oracle
import run
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ALL_CASES = {case.id: case for cases in ladder.WORKLOADS.values()
             for case in cases}


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, "case")


def test_self_time_subtracts_union_of_children():
    tree = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),      # overlaps a: covered once
        _span("c", 9.0, 12.0, 0),     # clipped to the parent's end
        _span("d", 1.5, 2.0, 1),      # grandchild: only a loses it
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 1.5, 3.0, 3.0, 0.5])
    # a later pass: the same tree, recorded after ten other spans
    later = [_span(s.name, s.start, s.end,
                   None if s.parent is None else s.parent + 10) for s in tree]
    assert spans.self_times(later, 10) == pytest.approx(
        [5.0, 1.5, 3.0, 3.0, 0.5])


def test_aggregate_sums_per_name():
    tree = [_span("outer", 0.0, 4.0, None), _span("inner", 1.0, 2.0, 0),
            _span("inner", 2.5, 3.0, 0)]
    tree[1].counts = {"cells": 3, "max_dim": 7}
    tree[2].counts = {"cells": 4, "max_dim": 5}
    agg = spans.aggregate(tree)
    assert agg["outer"]["calls"] == 1
    assert agg["outer"]["self_s"] == pytest.approx(2.5)
    assert agg["inner"]["calls"] == 2
    assert agg["inner"]["s"] == pytest.approx(1.5)
    assert agg["inner"]["counts"] == {"cells": 7, "max_dim": 7}


def _iso_report(want):
    modules = [list(m) for m in want["minus1_modules"]]
    return {"command": "check-iso", "result": {
        "verdict": want["verdict"],
        "sides": {
            "relations_model": {"dim": want["minus1_dim"],
                                "decomposition": modules},
            "cartanification": {"minus1_dim": want["minus1_dim"],
                                "decomposition": modules},
        }}}


def _expected(case_id):
    return oracle.derive(ALL_CASES[case_id])


def test_checker_accepts_expected_iso_report():
    want = _expected("C3w1")
    assert oracle.check_report("check-iso", _iso_report(want), want) == []


def test_checker_flags_corrupted_verdict():
    want = _expected("C3w1")
    report = _iso_report(want)
    report["result"]["verdict"] = "mismatch"
    assert oracle.check_report("check-iso", report, want)


def test_checker_flags_corrupted_iso_dim():
    want = _expected("B2w2")
    report = _iso_report(want)
    report["result"]["sides"]["relations_model"]["dim"] += 1
    assert oracle.check_report("check-iso", report, want)


def test_checker_flags_corrupted_relations_dim():
    want = _expected("D4w4W")
    report = {"command": "tha-minus1", "result": {
        "status": "complete", "dim": want["minus1_dim"],
        "decomposition": [{"highest_weight": hw, "multiplicity": m,
                           "dim": d} for hw, m, d in want["minus1_modules"]]}}
    assert oracle.check_report("tha-minus1", report, want) == []
    report["result"]["decomposition"][0]["dim"] -= 1
    assert oracle.check_report("tha-minus1", report, want)


def test_checker_flags_corrupted_cartanify_dim():
    want = _expected("A4w1S")
    report = {"command": "cartanify",
              "result": {"construction": "strong", "dims": dict(want["dims"])}}
    assert oracle.check_report("cartanify", report, want) == []
    report["result"]["dims"]["-2"] = 41
    assert oracle.check_report("cartanify", report, want)


def test_expected_file_rejects_a_corrupted_number(tmp_path):
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        table = json.load(f)
    corrupt = copy.deepcopy(table)
    corrupt["cases"]["A4w2W"]["minus1_dim"] = 66
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(corrupt))
    cases = list(ALL_CASES.values())
    with pytest.raises(oracle.ExpectedError):
        oracle.load_expected(str(path), cases)
    path.write_text(json.dumps(table))
    assert len(oracle.load_expected(str(path), cases)) == len(cases)


def test_closed_forms_match_known_dimensions():
    # dim W(3) = 3 * 2^3 = 24 and dim S(3) = (3 - 1) * 2^3 + 1 = 17
    assert sum(oracle.grassmann_dims(3, range(-3, 2), False).values()) == 24
    assert sum(oracle.grassmann_dims(3, range(-3, 2), True).values()) == 17
    a = ladder.cartan_matrix("D", 5)
    assert oracle.weyl_dimension(a, [1] * 5, (0, 0, 0, 0, 1)) == 16
    assert len(oracle.positive_roots(a, range(5))) == 20


def test_cache_counts_from_directory_snapshots():
    before = {"h/tha-minus1/result.json": (1, 10, 5),
              "h/build-b/deg0.json": (2, 20, 5)}
    after = dict(before)
    after["h/build-b/deg0.json"] = (3, 25, 9)     # rewritten
    after["h/build-b/deg-5.json"] = (4, 30, 9)    # new
    assert run.cache_counts(before, after) == {
        "hits": 1, "misses": 1, "files_written": 2, "bytes_written": 55}


def test_probe_samples_and_restores_the_handler():
    import signal
    import time
    import speed
    before = signal.getsignal(signal.SIGALRM)
    with speed.Probe() as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one sample on entry, one on exit, the rest from the handler
    assert len(probe.samples) >= 4
    assert probe.handler_s == pytest.approx(sum(probe.samples[1:-1]))


def test_tracer_removes_every_wrapper():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import importlib
    modules = {name: importlib.import_module("gradedlie." + name)
               for name in run.MODULES}

    def bindings():
        out = {}
        for _, targets, _ in spans.TARGETS:
            for module, path in targets:
                owner = modules[module]
                *outer, attribute = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                out[(module, path)] = owner.__dict__[attribute]
        return out

    original = bindings()
    tracer = spans.Tracer(modules)
    tracer.install()
    assert all(original[key] is not value
               for key, value in bindings().items())
    modules["linalg"].rank(modules["linalg"].RatMatrix.identity(2))
    modules["graded"].rref(modules["linalg"].RatMatrix.identity(2))
    tracer.uninstall()
    assert bindings() == original
    assert [s.name for s in tracer.spans] == ["linalg.rref"]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as f:
        bench = json.load(f)
    assert ([(m["name"], m["unit"]) for m in bench["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"]) for m in bench["per_layer"]]
            == list(run.PER_LAYER))
    assert [w["name"] for w in bench["workloads"]] == list(ladder.WORKLOADS)
