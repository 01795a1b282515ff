"""Tests for the command-line front end: spec parsing, reports, caching."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest
from referencing import Registry, Resource

import gradedlie
from gradedlie import cartan, cli, graded, rootsys

A2_SPEC = '{"cartan_matrix": [[2, -1], [-1, 2]], "lambda": [1, 0]}'
E6 = [
    [2, 0, -1, 0, 0, 0],
    [0, 2, 0, -1, 0, 0],
    [-1, 0, 2, -1, 0, 0],
    [0, -1, -1, 2, -1, 0],
    [0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, -1, 2],
]


def _schema(name):
    source = resources.files("gradedlie").joinpath("schemas", name)
    return json.loads(source.read_text())


def _report_validator():
    registry = Registry().with_resources([
        ("gradedlie:spec.schema.json/v1",
         Resource.from_contents(_schema("spec.schema.json"))),
    ])
    return jsonschema.Draft202012Validator(
        _schema("report.schema.json"), registry=registry)


def _strip_timing(text):
    report = json.loads(text)
    del report["provenance"]["timing_seconds"]
    return json.dumps(report, sort_keys=True)


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("GRADEDLIE_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


class TestParseSpec:
    def test_minimal_defaults(self):
        spec = cli.parse_spec('{"cartan_matrix": [[2]]}')
        assert spec.degree_range == (-4, 1)
        assert spec.variant == "W"
        assert spec.data.epsilon == (Fraction(1),)
        assert spec.data.lam == (0,)
        assert spec.restriction is None

    def test_zero_symmetrizer(self):
        with pytest.raises(cli.SpecError) as err:
            cli.parse_spec('{"cartan_matrix": [[2]], "epsilon": ["0/1"]}')
        assert "symmetrizer entries must be nonzero" in err.value.diagnostics

    def test_negative_weight(self):
        with pytest.raises(cli.SpecError, match="non-negative"):
            cli.parse_spec('{"cartan_matrix": [[2]], "lambda": [-1]}')

    def test_malformed_json_names_position(self):
        with pytest.raises(cli.SpecError, match="json: .*line 1"):
            cli.parse_spec("{not json")

    def test_unknown_field(self):
        with pytest.raises(cli.SpecError, match="tofu: unknown field"):
            cli.parse_spec('{"cartan_matrix": [[2]], "tofu": 1}')

    @pytest.mark.parametrize("matrix, message", [
        ([[2, -1]], "square matrix"),
        ([[1]], "diagonal entries must be 2"),
        ([[2, 1], [1, 2]], "off-diagonal entries must be non-positive"),
        ([[2, 0], [-1, 2]], "zero pattern must be symmetric"),
    ])
    def test_matrix_validation(self, matrix, message):
        with pytest.raises(cli.SpecError, match=message):
            cli.parse_spec(json.dumps({"cartan_matrix": matrix}))

    def test_epsilon_must_symmetrize(self):
        g2 = {"cartan_matrix": [[2, -1], [-3, 2]]}
        with pytest.raises(cli.SpecError, match="do not symmetrize"):
            cli.parse_spec(json.dumps({**g2, "epsilon": ["1", "1"]}))
        spec = cli.parse_spec(json.dumps({**g2, "epsilon": ["1", "3"]}))
        assert spec.data.epsilon == (Fraction(1), Fraction(3))

    def test_boolean_epsilon_is_rejected(self, capsys):
        spec = json.dumps({"cartan_matrix": [[2, -1], [-1, 2]],
                           "epsilon": [True, True]})
        with pytest.raises(cli.SpecError) as err:
            cli.parse_spec(spec)
        assert list(err.value.diagnostics) == [
            'epsilon[0]: expected a rational "p/q"',
            'epsilon[1]: expected a rational "p/q"']
        assert cli.main(["roots", "--spec", spec, "--no-cache"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            'spec error: epsilon[0]: expected a rational "p/q"',
            'spec error: epsilon[1]: expected a rational "p/q"']

    @pytest.mark.parametrize("window", [[0, 1], [-1, 0], [-1], [1, -1]])
    def test_degree_range_must_contain_unit_window(self, window):
        spec = {"cartan_matrix": [[2]], "degree_range": window}
        with pytest.raises(cli.SpecError, match="containing \\[-1, 1\\]"):
            cli.parse_spec(json.dumps(spec))

    def test_restriction_validation(self):
        base = {"cartan_matrix": [[2, -1], [-1, 2]]}
        with pytest.raises(cli.SpecError, match="restriction"):
            cli.parse_spec(json.dumps({**base, "restriction": [0, 0]}))
        with pytest.raises(cli.SpecError, match="restriction"):
            cli.parse_spec(json.dumps({**base, "restriction": [2]}))
        spec = cli.parse_spec(json.dumps({**base, "restriction": [1]}))
        assert spec.restriction == (1,)

    def test_round_trip_a4(self):
        raw = {
            "cartan_matrix": [
                [2, -1, 0, 0], [-1, 2, -1, 0],
                [0, -1, 2, -1], [0, 0, -1, 2],
            ],
            "epsilon": ["1", "1", "1", "1"],
            "lambda": [0, 1, 0, 0],
        }
        first = cli.parse_spec(json.dumps(raw))
        second = cli.parse_spec(cli.serialize_spec(first))
        assert first == second
        assert first.spec_hash() == second.spec_hash()

    def test_core_hash_ignores_degree_range(self):
        narrow = cli.parse_spec(
            '{"cartan_matrix": [[2]], "degree_range": [-2, 1]}')
        wide = cli.parse_spec(
            '{"cartan_matrix": [[2]], "degree_range": [-4, 1]}')
        assert narrow.spec_hash() != wide.spec_hash()
        assert narrow.core_hash() == wide.core_hash()

    def test_missing_file(self):
        with pytest.raises(cli.SpecError, match="no such file"):
            cli.parse_spec("definitely-not-here.json")


class TestJsonRendering:
    def test_fractions_and_keys(self):
        rendered = cli._jsonable(
            {-1: [Fraction(3, 4), (1, Fraction(-2))], "x": None})
        assert rendered == {"-1": ["3/4", [1, "-2"]], "x": None}

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            cli._jsonable(object())


class TestReports:
    def test_cartanify_a2_total(self, cache_env):
        spec = cli.parse_spec(A2_SPEC)
        report = cli.build_report("cartanify", spec, use_cache=False)
        assert report["result"]["total_dim"] == 24
        assert report["result"]["dims"]["-1"] == 9
        assert report["result"]["construction"] == "weak"

    def test_roots_e6(self, cache_env):
        spec = cli.parse_spec(json.dumps({"cartan_matrix": E6}))
        report = cli.build_report("roots", spec, use_cache=False)
        assert report["result"]["count"] == 72
        assert {entry["norm"] for entry in report["result"]["roots"]} == {"2"}

    def test_reports_conform_to_schema(self, cache_env):
        validator = _report_validator()
        spec = cli.parse_spec(A2_SPEC)
        for command in ("build-b", "tha-minus1", "roots", "check-iso"):
            report = cli.build_report(command, spec, use_cache=False)
            validator.validate(report)

    def test_spec_instances_conform_to_schema(self):
        validator = jsonschema.Draft202012Validator(
            _schema("spec.schema.json"))
        validator.validate(cli.parse_spec(A2_SPEC).canonical())


class TestMain:
    def test_cartanify_stdout(self, cache_env, capsys):
        assert cli.main(["cartanify", "--spec", A2_SPEC]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["total_dim"] == 24
        assert report["command"] == "cartanify"

    def test_out_file(self, cache_env, capsys):
        out = cache_env / "report.json"
        assert cli.main(
            ["tha-minus1", "--spec", A2_SPEC, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        report = json.loads(out.read_text())
        assert report["result"]["dim"] == 9
        assert report["result"]["status"] == "complete"

    def test_check_iso_verdict(self, cache_env, capsys):
        assert cli.main(["check-iso", "--spec", A2_SPEC]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["verdict"] == "isomorphic"
        assert report["result"]["surjective"] is True
        assert report["result"]["injective"] is True

    def test_precondition_error_exit_1(self, cache_env, capsys):
        code = cli.main(
            ["check-iso", "--spec", '{"cartan_matrix": [[2]], "lambda": [2]}'])
        assert code == 1
        err = capsys.readouterr().err
        assert "error in module iso" in err
        assert "pseudo-minuscule precondition fails" in err

    @pytest.mark.parametrize("exc", [ZeroDivisionError("division by zero"),
                                     KeyError(("f0", 7))])
    def test_engine_error_names_its_class(self, cache_env, capsys,
                                          monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli.tha, "build_minus1", fail)
        code = cli.main(["tha-minus1", "--spec", A2_SPEC, "--no-cache"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error in module tha: %s: %s\n" % (
            type(exc).__name__, exc)

    def test_spec_error_exit_2(self, cache_env, capsys):
        code = cli.main(
            ["build-b", "--spec",
             '{"cartan_matrix": [[2]], "epsilon": ["0/1"]}'])
        assert code == 2
        assert "symmetrizer entries must be nonzero" in capsys.readouterr().err

    def test_singular_datum_is_a_spec_error(self, cache_env, capsys,
                                            monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a singular datum reached the engine")

        monkeypatch.setattr(cli.tha, "build_minus1", fail)
        affine = '{"cartan_matrix": [[2, -2], [-2, 2]], "lambda": [1, 0]}'
        assert cli.main(["tha-minus1", "--spec", affine, "--no-cache"]) == 2
        assert capsys.readouterr().err == (
            "spec error: the Cartan matrix is singular\n")

    def test_indefinite_datum_is_a_spec_error(self, cache_env, capsys):
        spec = '{"cartan_matrix": [[2, -3], [-3, 2]]}'
        assert cli.main(["roots", "--spec", spec, "--no-cache"]) == 2
        assert capsys.readouterr().err == (
            "spec error: component [0, 1] of the Cartan matrix has "
            "indefinite type; finite type required\n")

    def test_each_failed_check_is_one_line(self, cache_env, capsys):
        g2 = '{"cartan_matrix": [[2, -1], [-3, 2]], "epsilon": ["0", "1"]}'
        assert cli.main(["roots", "--spec", g2, "--no-cache"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "spec error: symmetrizer entries must be nonzero",
            "spec error: entries do not symmetrize the Cartan matrix"]

    def test_overrides_apply_before_the_one_validation(
            self, cache_env, capsys, monkeypatch):
        calls = []
        original = cli.cartan_failures

        def counted(data):
            calls.append(data)
            return original(data)

        monkeypatch.setattr(cli, "cartan_failures", counted)
        # the file's degree range is invalid; the flag's value replaces it
        spec = ('{"cartan_matrix": [[2, -1], [-1, 2]], "lambda": [1, 0], '
                '"degree_range": [0, 1]}')
        assert cli.main(["roots", "--spec", spec, "--degrees=-2..1",
                         "--variant", "S", "--restrict", "1",
                         "--no-cache"]) == 0
        assert len(calls) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["spec"]["degree_range"] == [-2, 1]
        assert report["spec"]["restriction"] == [1]

    @pytest.mark.parametrize("command", ["roots", "check-iso", "check-all"])
    def test_cold_run_validates_the_datum_once(
            self, cache_env, capsys, monkeypatch, command):
        # the gate's datum is the one every model is built from, so the
        # positive roots reuse its validation
        calls = []
        original = rootsys.validate_cartan

        def counted(data):
            calls.append(data)
            return original(data)

        monkeypatch.setattr(rootsys, "validate_cartan", counted)
        assert cli.main([command, "--spec", A2_SPEC, "--degrees=-2..1"]) == 0
        datum = rootsys.CartanData([[2, -1], [-1, 2]], lam=(1, 0))
        assert calls.count(datum) == 1

    def test_degrees_and_variant_overrides(self, cache_env, capsys):
        assert cli.main(
            ["cartanify", "--spec", A2_SPEC,
             "--degrees=-2..1", "--variant", "S"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spec"]["degree_range"] == [-2, 1]
        assert report["result"]["construction"] == "strong"
        assert report["result"]["dims"]["-1"] == 6

    def test_bad_degrees_flag(self, cache_env, capsys):
        assert cli.main(
            ["build-b", "--spec", A2_SPEC, "--degrees", "nope"]) == 2
        assert "--degrees" in capsys.readouterr().err

    def test_restrict_override_validated(self, cache_env, capsys):
        assert cli.main(
            ["cartanify", "--spec", A2_SPEC, "--restrict", "7"]) == 2
        assert "restriction" in capsys.readouterr().err

    def test_reports_are_deterministic(self, cache_env, capsys):
        args = ["build-b", "--spec", A2_SPEC, "--no-cache"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert _strip_timing(first) == _strip_timing(second)

    def test_options_may_come_before_the_command(self, cache_env, capsys):
        spec = '{"cartan_matrix": [[2]]}'
        assert cli.main(["--no-cache", "roots", "--spec", spec]) == 0
        first = capsys.readouterr().out
        assert cli.main(["roots", "--spec", spec, "--no-cache"]) == 0
        assert _strip_timing(first) == _strip_timing(capsys.readouterr().out)
        assert not os.path.exists(cache_env / "cache")

    def test_decompose_needs_every_raising_operator(self, cache_env, capsys):
        # K is empty, so the strong cartanification of A1 w1 has nothing
        # in degrees -1 and 0 and no e_0 to decompose degree 1 with
        spec = '{"cartan_matrix": [[2]], "lambda": [1]}'
        assert cli.main(["decompose", "--spec", spec, "--variant", "S",
                         "--no-cache"]) == 1
        assert capsys.readouterr().err == (
            "error in module graded: degree 0 of this model holds no e_0, "
            "so degree 1 cannot be decomposed: a strong or restricted "
            "cartanification keeps in degree 0 only the action of degree 0 "
            "on its degree -1 part\n")

    @pytest.mark.parametrize("spec, flag, line", [
        (A2_SPEC, "--variant=S",
         'variant: check-iso compares weak models, not "S"'),
        (A2_SPEC, "--variant=B",
         'variant: check-iso compares weak models, not "B"'),
        ('{"cartan_matrix": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], '
         '"lambda": [1, 0, 0]}', "--restrict=1,2",
         "restriction: check-iso compares unrestricted models"),
    ], ids=["A2w1-S", "A2w1-B", "A3w1-restricted"])
    def test_check_iso_rejects_a_model_it_does_not_compare(
            self, cache_env, capsys, builds, spec, flag, line):
        assert cli.main(["check-iso", "--spec", spec, flag,
                         "--no-cache"]) == 2
        assert capsys.readouterr() == ("", "spec error: %s\n" % line)
        assert builds["locals"] == [] and builds["variants"] == []

    def test_check_all_records_errors_and_fails(self, cache_env, capsys):
        spec = '{"cartan_matrix": [[2]], "lambda": [1], "variant": "B"}'
        assert cli.main(["check-all", "--spec", spec]) == 1
        report = json.loads(capsys.readouterr().out)
        commands = report["result"]["commands"]
        assert commands["build-b"]["total_dim"] == 8
        assert commands["cartanify"]["module"] == "cartan"
        assert "use build-b" in commands["cartanify"]["error"]
        assert commands["tha-minus1"]["module"] == "tha"

    def test_check_all_records_engine_errors_by_class(
            self, cache_env, capsys, monkeypatch):
        attempts = []

        def fail(pres, *args, **kwargs):
            attempts.append(pres.variant)
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli.tha, "build_minus1", fail)
        spec = '{"cartan_matrix": [[2]], "lambda": [1]}'
        assert cli.main(["check-all", "--spec", spec, "--no-cache"]) == 1
        # The build that raised for tha-minus1 is retried by check-iso.
        assert attempts == ["W", "W"]
        commands = json.loads(capsys.readouterr().out)["result"]["commands"]
        assert commands["tha-minus1"] == {
            "error": "ZeroDivisionError: division by zero", "module": "tha"}
        assert commands["check-iso"] == {
            "error": "ZeroDivisionError: division by zero", "module": "iso"}
        assert "error" not in commands["build-b"]

    def test_check_all_green(self, cache_env, capsys):
        assert cli.main(
            ["check-all", "--spec", A2_SPEC, "--degrees=-2..1"]) == 0
        report = json.loads(capsys.readouterr().out)
        commands = report["result"]["commands"]
        assert all("error" not in value for value in commands.values())
        assert commands["check-iso"]["verdict"] == "isomorphic"
        assert commands["decompose"]["total_dim"] == 24


C2_SPEC = ('{"cartan_matrix": [[2, -1], [-2, 2]], "epsilon": ["1", "2"], '
           '"lambda": [1, 0]}')
A3_SPEC = ('{"cartan_matrix": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], '
           '"lambda": [1, 0, 0]}')
A1_SPEC = '{"cartan_matrix": [[2]], "lambda": [1]}'


@pytest.fixture
def builds(monkeypatch):
    """Record every model built through ``cli`` or ``iso``: the datum of
    each contragredient local part, whether each local cartanification
    is weak or restricted, each window extension, as ("B", window) for the
    contragredient model and ("cart", window) for a cartanification, and
    the variant of each relations module."""
    log = {"locals": [], "local_carts": [], "windows": [], "variants": []}

    def counted(owner, name, record):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            record(*args, **kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner in (cli, cli.iso):
        counted(owner, "build_local", log["locals"].append)
    counted(cartan, "local_cartanification", lambda local, restriction=None:
            log["local_carts"].append(
                "weak" if restriction is None else "restricted"))
    counted(cartan.Cartanification, "over", lambda cart, window:
            log["windows"].append(("cart", window)))

    def contragredient(local, window):
        # chevalley_realization extends g's own local part, with no datum
        if local.data is not None:
            log["windows"].append(("B", window))

    counted(graded, "minimal_extension", contragredient)
    counted(cli.tha, "build_minus1", lambda pres, *args, **kwargs:
            log["variants"].append(pres.variant))
    return log


class TestSharedModels:
    """check-all builds each model once and hands it to every command
    that needs it; the report is the one the commands give alone."""

    def test_check_all_builds_each_model_once(self, cache_env, capsys,
                                              builds):
        assert cli.main(["check-all", "--spec", C2_SPEC, "--no-cache"]) == 0
        assert len(builds["locals"]) == 1
        assert builds["local_carts"] == ["weak"]
        # build-b and cartanify extend over the window; check-iso extends
        # the same local cartanification over -1..1 and counts degree -2
        assert builds["windows"] == [("B", (-4, 1)), ("cart", (-4, 1)),
                                     ("cart", (-1, 1))]
        assert builds["variants"] == ["W"]

    def test_strong_variant_builds_both_modules(self, cache_env, capsys,
                                                builds):
        assert cli.main(["check-all", "--spec", A2_SPEC, "--variant", "S",
                         "--no-cache"]) == 0
        # the store holds the strong cartanification and, for check-iso,
        # which compares variant W, the weak one, both from one local part
        assert builds["local_carts"] == ["restricted", "weak"]
        assert len(builds["locals"]) == 1
        assert builds["variants"] == ["S", "W"]

    def test_restriction_shares_the_local_part(self, cache_env, capsys,
                                               builds):
        assert cli.main(["check-all", "--spec", A3_SPEC, "--restrict=1,2",
                         "--degrees=-2..1", "--no-cache"]) == 0
        assert len(builds["locals"]) == 1
        assert builds["local_carts"] == ["restricted", "weak"]

    def test_precondition_comes_before_any_build(self, cache_env, capsys,
                                                 builds):
        spec = '{"cartan_matrix": [[2]], "lambda": [2]}'
        assert cli.main(["check-iso", "--spec", spec, "--no-cache"]) == 1
        assert capsys.readouterr().err == (
            "error in module iso: pseudo-minuscule precondition fails: the "
            "completed weight pairs with root (1,) to 2, expected 0 or 1\n")
        assert builds["locals"] == []
        assert builds["local_carts"] == []
        assert builds["variants"] == []

    def test_models_do_not_outlive_a_report(self, cache_env, capsys,
                                            builds):
        args = ["check-all", "--spec", A2_SPEC, "--degrees=-2..1",
                "--no-cache"]
        assert cli.main(args) == 0
        assert cli.main(args) == 0
        assert len(builds["locals"]) == 2
        assert builds["local_carts"] == ["weak"] * 2
        assert builds["windows"] == [("B", (-2, 1)), ("cart", (-2, 1)),
                                     ("cart", (-1, 1))] * 2
        assert builds["variants"] == ["W"] * 2

    @staticmethod
    def _alone(spec):
        out = {}
        for command, (_, module) in cli._COMMANDS.items():
            if command == "check-all":
                continue
            try:
                out[command] = cli.build_report(
                    command, spec, use_cache=False)["result"]
            except cli._ENGINE_ERRORS as exc:
                out[command] = {"error": cli._error_text(exc),
                                "module": module}
        return out

    @pytest.mark.parametrize("base, overrides", [
        (A2_SPEC, {"degree_range": [-2, 1]}),
        (A2_SPEC, {}),
        (A2_SPEC, {"variant": "S"}),
        (A2_SPEC, {"variant": "B"}),
        (C2_SPEC, {}),
        (C2_SPEC, {"degree_range": [-5, 1]}),
        (A3_SPEC, {"restriction": [1]}),
        # K is empty, so check-iso also extends the contragredient part
        (A1_SPEC, {}),
    ], ids=["A2w1-W-2..1", "A2w1-W-4..1", "A2w1-S", "A2w1-B", "C2w1-W-4..1",
            "C2w1-W-5..1", "A3w1-restricted", "A1w1-W"])
    def test_check_all_matches_each_command_alone(self, cache_env, base,
                                                  overrides):
        spec = cli.parse_spec(json.dumps({**json.loads(base), **overrides}))
        together = cli.build_report("check-all", spec, use_cache=False)
        assert (json.dumps(together["result"]["commands"], sort_keys=True)
                == json.dumps(self._alone(spec), sort_keys=True))


class TestGoldenReports:
    """sha256 of timing-stripped reports: any byte change to a report on
    these cases, simply- and non-simply-laced, fails here."""

    @pytest.mark.parametrize("command, spec, digest", [
        ("check-all", A2_SPEC,
         "0fa9a9e2108dde26aee0d2b07b73c8b95a11725200d1e6e1dd4ecab95a0bff90"),
        ("check-all", '{"cartan_matrix": [[2, -1], [-2, 2]], '
                      '"epsilon": ["1", "2"], "lambda": [1, 0]}',
         "8dbfc9c94ca2780aee0119da9769ff93ac0dda1283623be7088702fc391aee92"),
        ("check-iso", '{"cartan_matrix": [[2, -2], [-1, 2]], '
                      '"epsilon": ["2", "1"], "lambda": [0, 1]}',
         "9b1f3d02786f7914e734a586bb3020aa9ac96d9be85901ae81d0994a7e58aad6"),
        # epsilon (2, 2, 1) puts non-integral weight blocks in the extension
        ("check-iso", '{"cartan_matrix": [[2, -1, 0], [-1, 2, -2], '
                      '[0, -1, 2]], "epsilon": ["2", "2", "1"], '
                      '"lambda": [0, 0, 1]}',
         "367b5ef1f91e88576ab0de859394dda614b23890e435affc0b3e8ed5adc256ae"),
        # K is empty, so check-iso also counts the contragredient's degree -2
        ("check-iso", '{"cartan_matrix": [[2]], "lambda": [1]}',
         "1aefda2df8af4138246c350b19c4e5254999b15b4cddd787dd85bf912b7c3cf1"),
        # the store's local cartanification is strong or restricted, so
        # check-iso compares against the store's weak one beside it
        ("check-all", '{"cartan_matrix": [[2, -1], [-1, 2]], '
                      '"lambda": [1, 0], "variant": "S", '
                      '"degree_range": [-2, 1]}',
         "4170c5b4961f1feb94adc3ef8b483310c58e4a486a921ac34ac05c3831051feb"),
        ("check-all", '{"cartan_matrix": [[2, -1, 0], [-1, 2, -1], '
                      '[0, -1, 2]], "lambda": [1, 0, 0], '
                      '"restriction": [1, 2], "degree_range": [-2, 1]}',
         "9425c12674ac6c4069528d45970c766bb363b61a6d31880c73a89aef9e87889e"),
    ], ids=["check-all-A2w1", "check-all-C2w1", "check-iso-B2w2",
            "check-iso-B3w3", "check-iso-A1w1", "check-all-A2w1-S",
            "check-all-A3w1-restricted"])
    def test_report_digest(self, cache_env, capsys, command, spec, digest):
        assert cli.main([command, "--spec", spec, "--no-cache"]) == 0
        text = _strip_timing(capsys.readouterr().out)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


A4_SPEC = ('{"cartan_matrix": [[2, -1, 0, 0], [-1, 2, -1, 0], '
           '[0, -1, 2, -1], [0, 0, -1, 2]], "lambda": [0, 1, 0, 0]}')
A4W1_SPEC = ('{"cartan_matrix": [[2, -1, 0, 0], [-1, 2, -1, 0], '
             '[0, -1, 2, -1], [0, 0, -1, 2]], "lambda": [1, 0, 0, 0]}')
C3_SPEC = ('{"cartan_matrix": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]], '
           '"epsilon": ["1", "1", "2"], "lambda": [1, 0, 0]}')


def test_optimized_interpreter_gives_the_same_report(cache_env, capsys):
    """Invariants hold under ``python -O``: no check of the package rests
    on an ``assert``, so the report is the same without them, and it does
    not depend on the hash seed either.  The tha-minus1 case is the
    largest relations rung, whose deduction queue is driven by sets; the
    C2 w1 check-all shares one local part and one local cartanification
    among its commands; the C3 w1 check-iso checks kernel invariance over
    the generators of degree 0 and the representation identity along the
    tree that closes them; the extension of S(5), the strong A4 w1
    cartanification over -5..1, values the weight blocks in the Weyl
    orbits of the dominant ones, held as sets of weights."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradedlie.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for args in (["check-all", "--spec", A2_SPEC, "--degrees=-2..1"],
                 ["check-all", "--spec", C2_SPEC],
                 ["check-iso", "--spec", C3_SPEC],
                 ["tha-minus1", "--spec", A4_SPEC, "--variant", "W"],
                 ["cartanify", "--spec", A4W1_SPEC, "--variant", "S",
                  "--degrees=-5..1"]):
        args = args + ["--no-cache"]
        assert cli.main(args) == 0
        in_process = _strip_timing(capsys.readouterr().out)
        for seed in ("0", "12345"):
            env["PYTHONHASHSEED"] = seed
            done = subprocess.run(
                [sys.executable, "-O", "-m", "gradedlie.cli"] + args,
                capture_output=True, text=True, env=env, timeout=300)
            assert done.returncode == 0, done.stderr
            assert _strip_timing(done.stdout) == in_process


class TestCache:
    def test_hit_matches_cold_run(self, cache_env, capsys):
        args = ["cartanify", "--spec", A2_SPEC]
        assert cli.main(args) == 0
        cold = capsys.readouterr().out
        assert cli.main(args) == 0
        hit = capsys.readouterr().out
        assert cli.main(args + ["--no-cache"]) == 0
        uncached = capsys.readouterr().out
        assert _strip_timing(cold) == _strip_timing(hit)
        assert _strip_timing(cold) == _strip_timing(uncached)

    def test_entries_are_self_describing(self, cache_env, capsys):
        assert cli.main(["tha-minus1", "--spec", A2_SPEC]) == 0
        capsys.readouterr()
        files = sorted((cache_env / "cache").rglob("*.json"))
        assert files, "cache should contain entries"
        envelope = json.loads(files[0].read_text())
        assert set(envelope) == {"tool_version", "engine", "command", "spec",
                                 "payload", "payload_sha256"}
        assert envelope["engine"] == cli.engine_hash()
        assert envelope["payload_sha256"] == hashlib.sha256(json.dumps(
            envelope["payload"], sort_keys=True,
            separators=(",", ":")).encode()).hexdigest()
        assert envelope["command"] == "tha-minus1"
        assert envelope["spec"]["lambda"] == [1, 0]

    def test_no_cache_leaves_directory_empty(self, cache_env, capsys):
        assert cli.main(
            ["roots", "--spec", A2_SPEC, "--no-cache"]) == 0
        capsys.readouterr()
        assert not (cache_env / "cache").exists()

    def test_narrow_window_reuses_wide_entries(self, cache_env, capsys):
        assert cli.main(["build-b", "--spec", A2_SPEC]) == 0
        wide = json.loads(capsys.readouterr().out)
        # B(A2, L1) is sl(3|1)-like with vanishing degree-(+/-)2 layers:
        # sym^2 of the 3-dimensional layer equals the removed 2*lambda module
        assert wide["result"]["total_dim"] == 15
        assert cli.main(
            ["build-b", "--spec", A2_SPEC, "--degrees=-2..1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["total_dim"] == 15
        assert report["result"]["dims"] == {"-2": 0, "-1": 3, "0": 9, "1": 3}

    def test_widened_window_writes_only_missing_degrees(self, cache_env,
                                                         capsys):
        args = ["build-b", "--spec", A2_SPEC]
        assert cli.main(args + ["--degrees=-2..1"]) == 0
        capsys.readouterr()
        root = cache_env / "cache"
        for path in root.rglob("*.json"):
            envelope = json.loads(path.read_text())
            envelope["kept"] = True     # lost if the file is rewritten
            path.write_text(json.dumps(envelope))
        assert cli.main(args + ["--degrees=-3..1"]) == 0
        widened = _strip_timing(capsys.readouterr().out)
        names = {path.name for path in root.rglob("*.json")}
        kept = {path.name for path in root.rglob("*.json")
                if "kept" in json.loads(path.read_text())}
        assert kept == {"deg-2.json", "deg-1.json", "deg0.json", "deg1.json"}
        assert names == kept | {"deg-3.json"}
        assert cli.main(args + ["--degrees=-3..1", "--no-cache"]) == 0
        assert _strip_timing(capsys.readouterr().out) == widened

    def test_entry_from_another_engine_is_recomputed(self, cache_env,
                                                      capsys):
        args = ["build-b", "--spec", A2_SPEC, "--degrees=-2..1"]
        assert cli.main(args) == 0
        clean = _strip_timing(capsys.readouterr().out)
        planted = 0
        for path in (cache_env / "cache").rglob("*.json"):
            envelope = json.loads(path.read_text())
            envelope["engine"] = "0" * 64
            envelope["payload"]["dim"] = 999
            path.write_text(json.dumps(envelope))
            planted += 1
        assert planted == 4
        assert cli.main(args) == 0
        assert _strip_timing(capsys.readouterr().out) == clean

    @pytest.mark.parametrize("text", ["{ corrupt", "[]", "null"],
                             ids=["unparsable", "list", "null"])
    def test_corrupt_entry_is_recomputed(self, cache_env, capsys, text):
        """An entry that is not a JSON object reads as absent."""
        assert cli.main(["roots", "--spec", A2_SPEC]) == 0
        clean = _strip_timing(capsys.readouterr().out)
        for path in (cache_env / "cache").rglob("*.json"):
            path.write_text(text)
        assert cli.main(["roots", "--spec", A2_SPEC]) == 0
        again = _strip_timing(capsys.readouterr().out)
        assert clean == again

    @pytest.mark.parametrize("payload", [{}, []], ids=["object", "list"])
    @pytest.mark.parametrize("command", ["build-b", "check-iso"])
    def test_entry_with_another_payload_is_recomputed(
            self, cache_env, capsys, command, payload):
        """A current-engine entry whose payload is not the one written
        reads as absent, and is rewritten."""
        args = [command, "--spec", A2_SPEC, "--degrees=-2..1"]
        assert cli.main(args) == 0
        clean = _strip_timing(capsys.readouterr().out)
        paths = list((cache_env / "cache").rglob("*.json"))
        for path in paths:
            envelope = json.loads(path.read_text())
            envelope["payload"] = payload
            path.write_text(json.dumps(envelope))
        assert cli.main(args) == 0
        assert _strip_timing(capsys.readouterr().out) == clean
        for path in paths:
            assert json.loads(path.read_text())["payload"] != payload
