"""Command-line front end: spec parsing, dispatch, reports, and caching.

An *algebra spec* is a JSON object describing one construction:

    {
      "cartan_matrix": [[2, -1], [-1, 2]],
      "epsilon": ["1", "1"],
      "lambda": [1, 0],
      "degree_range": [-4, 1],
      "variant": "W"
    }

``epsilon`` entries are exact rationals written as strings ``"p/q"`` (or
``"p"``); ``restriction`` optionally names diagram nodes for a restricted
cartanification; ``degree_range`` must contain ``[-1, 1]``; ``variant``
selects the model ("W" weak cartanification, "S" strong, "B"
contragredient).  Omitted fields default to the all-ones symmetrizer, the
zero weight, degree range ``[-4, 1]``, and variant ``"W"``.

Commands (``gradedlie <command> --spec <path>``):

* ``build-b``     -- contragredient superalgebra, per-degree dimensions;
* ``cartanify``   -- cartanification of the local algebra (weak, strong,
  or restricted per the spec), per-degree dimensions;
* ``tha-minus1``  -- enumerate the degree-(-1) slice of the relations
  model and decompose it;
* ``decompose``   -- weight decomposition of every layer of the selected
  model;
* ``check-iso``   -- verdict of the relations-model/cartanification
  comparison.  The verdict depends only on degrees -1..1, so this command
  computes inside the window [-2, 1] regardless of the requested range;
* ``roots``       -- root system of the Cartan matrix with norms;
* ``check-all``   -- every command above on one spec, errors recorded
  per command.

Reports are deterministic JSON (sorted keys; identical runs are
byte-identical apart from the timing field) and conform to
``schemas/report.schema.json``.  Rationals in reports are strings
``"p/q"``; per-degree tables are keyed by the decimal degree string.

Computed per-degree components are cached, content-addressed by the hash
of the spec (minus the degree range) and the command, one self-describing
JSON file per degree.  A rerun, or a window inside a cached one, is served
from the cache; a window that reaches any degree not cached recomputes
every degree of the window.  Each file records a hash of the package's
sources and schemas, and a file written by any other engine is treated
as absent.  The cache directory is ``$GRADEDLIE_CACHE_DIR`` when set,
otherwise ``~/.cache/gradedlie``; writes are atomic (write to a temporary
file in the same directory, then rename); ``--no-cache`` bypasses reads
and writes.  A cache hit and a cold run produce identical reports.

Exit codes: 0 success, 1 engine error (the message is printed verbatim
with the originating module, and prefixed with the exception class for an
``ArithmeticError`` or ``LookupError``), 2 spec or usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import re
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__, iso, tha
from .cartan import cartanify, gminus_nodes, root_subalgebra
from .contragredient import build_graded, build_local
from .graded import decompose_at_degree
from .rootsys import CartanData, enumerate_roots

_VARIANTS = ("W", "S", "B")
_COMMANDS = (
    "build-b", "cartanify", "tha-minus1", "decompose",
    "check-iso", "roots", "check-all",
)
_MODULE_OF = {
    "build-b": "contragredient",
    "cartanify": "cartan",
    "tha-minus1": "tha",
    "decompose": "graded",
    "check-iso": "iso",
    "roots": "rootsys",
    "check-all": "cli",
}
_SCHEMA = "gradedlie-report/1"


class SpecError(ValueError):
    """A spec failed validation; ``diagnostics`` lists field-level problems."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


@dataclass(frozen=True)
class AlgebraSpec:
    """Validated Cartan data plus build options for one construction."""

    cartan_matrix: tuple
    epsilon: tuple
    lam: tuple
    restriction: tuple | None
    degree_range: tuple
    variant: str

    def cartan_data(self) -> CartanData:
        return CartanData(
            [list(row) for row in self.cartan_matrix],
            epsilon=self.epsilon,
            lam=self.lam,
        )

    def canonical(self) -> dict:
        """JSON-ready canonical form; parsing it reproduces this spec."""
        out = {
            "cartan_matrix": [list(row) for row in self.cartan_matrix],
            "epsilon": [str(e) for e in self.epsilon],
            "lambda": [int(l) for l in self.lam],
            "degree_range": list(self.degree_range),
            "variant": self.variant,
        }
        if self.restriction is not None:
            out["restriction"] = list(self.restriction)
        return out

    def spec_hash(self) -> str:
        text = json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def core_hash(self) -> str:
        """Hash of the spec without the degree range, for cache addressing."""
        core = self.canonical()
        del core["degree_range"]
        text = json.dumps(core, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def _spec_from_dict(obj) -> AlgebraSpec:
    diagnostics = []
    if not isinstance(obj, dict):
        raise SpecError(["spec: top level must be a JSON object"])
    known = {"cartan_matrix", "epsilon", "lambda", "restriction",
             "degree_range", "variant"}
    for key in sorted(set(obj) - known):
        diagnostics.append("%s: unknown field" % key)

    matrix = obj.get("cartan_matrix")
    r = 0
    if (not isinstance(matrix, list) or not matrix
            or any(not isinstance(row, list) or len(row) != len(matrix)
                   for row in matrix)
            or any(not isinstance(x, int) or isinstance(x, bool)
                   for row in matrix for x in row)):
        diagnostics.append(
            "cartan_matrix: required square matrix of integers")
        matrix = None
    else:
        r = len(matrix)
        if any(matrix[i][i] != 2 for i in range(r)):
            diagnostics.append("cartan_matrix: diagonal entries must be 2")
        if any(matrix[i][j] > 0 for i in range(r) for j in range(r) if i != j):
            diagnostics.append(
                "cartan_matrix: off-diagonal entries must be non-positive")
        if any((matrix[i][j] == 0) != (matrix[j][i] == 0)
               for i in range(r) for j in range(r)):
            diagnostics.append(
                "cartan_matrix: zero pattern must be symmetric")

    epsilon_raw = obj.get("epsilon", ["1"] * r)
    epsilon = []
    if not isinstance(epsilon_raw, list) or (matrix and len(epsilon_raw) != r):
        diagnostics.append("epsilon: must list one rational per node")
    else:
        for k, entry in enumerate(epsilon_raw):
            try:
                value = Fraction(entry) if isinstance(entry, (str, int)) \
                    else None
                if value is None:
                    raise ValueError
            except (ValueError, ZeroDivisionError):
                diagnostics.append(
                    'epsilon[%d]: expected a rational "p/q"' % k)
                continue
            if value == 0:
                diagnostics.append("symmetrizer entries must be nonzero")
                continue
            epsilon.append(value)
    if matrix and len(epsilon) == r:
        for i in range(r):
            for j in range(i + 1, r):
                if epsilon[j] * matrix[i][j] != epsilon[i] * matrix[j][i]:
                    diagnostics.append(
                        "epsilon: entries do not symmetrize the Cartan "
                        "matrix at (%d, %d)" % (i, j))

    lam_raw = obj.get("lambda", [0] * r)
    if (not isinstance(lam_raw, list)
            or any(not isinstance(x, int) or isinstance(x, bool) or x < 0
                   for x in lam_raw)
            or (matrix and len(lam_raw) != r)):
        diagnostics.append(
            "lambda: must list one non-negative integer per node")
        lam_raw = [0] * r

    restriction_raw = obj.get("restriction")
    restriction = None
    if restriction_raw is not None:
        if (not isinstance(restriction_raw, list)
                or any(not isinstance(x, int) or isinstance(x, bool)
                       for x in restriction_raw)
                or len(set(restriction_raw)) != len(restriction_raw)
                or (matrix and any(not 0 <= x < r for x in restriction_raw))):
            diagnostics.append(
                "restriction: must list distinct node indices in range")
        else:
            restriction = tuple(restriction_raw)

    degree_range_raw = obj.get("degree_range", [-4, 1])
    if (not isinstance(degree_range_raw, list) or len(degree_range_raw) != 2
            or any(not isinstance(x, int) or isinstance(x, bool)
                   for x in degree_range_raw)
            or degree_range_raw[0] > -1 or degree_range_raw[1] < 1):
        diagnostics.append("degree_range: must be [lo, hi] containing [-1, 1]")
        degree_range_raw = [-4, 1]

    variant = obj.get("variant", "W")
    if variant not in _VARIANTS:
        diagnostics.append('variant: must be one of "W", "S", "B"')
        variant = "W"

    if diagnostics:
        raise SpecError(diagnostics)
    spec = AlgebraSpec(
        cartan_matrix=tuple(tuple(row) for row in matrix),
        epsilon=tuple(epsilon),
        lam=tuple(lam_raw),
        restriction=restriction,
        degree_range=tuple(degree_range_raw),
        variant=variant,
    )
    try:
        spec.cartan_data()
    except ValueError as exc:
        raise SpecError(["cartan_matrix: %s" % exc]) from exc
    return spec


def parse_spec(source: str) -> AlgebraSpec:
    """Parse an algebra spec from a file path or a JSON string.

    Raises ``SpecError`` whose ``diagnostics`` name each problem by field;
    malformed JSON is reported with the line and column from the decoder.
    """
    text = source
    if os.path.isfile(source):
        with open(source, encoding="utf-8") as handle:
            text = handle.read()
    elif not source.lstrip().startswith("{"):
        raise SpecError(["spec: no such file: %s" % source])
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(["json: %s" % exc]) from exc
    return _spec_from_dict(obj)


def serialize_spec(spec: AlgebraSpec) -> str:
    """Canonical JSON text of a spec; ``parse_spec`` round-trips it."""
    return json.dumps(spec.canonical(), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# JSON rendering


def _jsonable(value):
    """Exact JSON image: Fractions to "p/q" strings, tuples to lists,
    non-string keys to their decimal strings."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str, float)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value):
        return _jsonable(dataclasses.asdict(value))
    raise TypeError("cannot render %r" % type(value))


# ---------------------------------------------------------------------------
# Cache


def cache_dir() -> str:
    """Cache root: $GRADEDLIE_CACHE_DIR, default ~/.cache/gradedlie."""
    return os.environ.get(
        "GRADEDLIE_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "gradedlie"),
    )


def _cache_path(spec: AlgebraSpec, command: str, entry: str) -> str:
    return os.path.join(cache_dir(), spec.core_hash(), command,
                        entry + ".json")


@functools.cache
def engine_hash() -> str:
    """sha256 over the package's ``*.py`` and ``schemas/*.json`` files;
    computed on first cache use, once per process."""
    root = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for sub, suffix in (("", ".py"), ("schemas", ".json")):
        for name in sorted(os.listdir(os.path.join(root, sub))):
            if not name.endswith(suffix):
                continue
            with open(os.path.join(root, sub, name), "rb") as handle:
                content = handle.read()
            digest.update(b"%s %d\n" % (
                os.path.join(sub, name).encode(), len(content)))
            digest.update(content)
    return digest.hexdigest()


def _cache_read(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            envelope = json.load(handle)
        if envelope.get("engine") != engine_hash():
            return None
        return envelope["payload"]
    except (OSError, ValueError, KeyError):
        return None


def _cache_write(path: str, payload, spec: AlgebraSpec, command: str) -> None:
    envelope = {
        "tool_version": __version__,
        "engine": engine_hash(),
        "command": command,
        "spec": spec.canonical(),
        "payload": payload,
    }
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, temp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle, sort_keys=True, indent=2)
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


class _Cache:
    """Per-command cache view; ``use=False`` turns reads and writes off."""

    def __init__(self, spec: AlgebraSpec, command: str, use: bool):
        self.spec = spec
        self.command = command
        self.use = use

    def read(self, entry: str):
        if not self.use:
            return None
        return _cache_read(_cache_path(self.spec, self.command, entry))

    def read_all(self, entries):
        payloads = {}
        for entry in entries:
            payload = self.read(entry)
            if payload is None:
                return None
            payloads[entry] = payload
        return payloads

    def write(self, entry: str, payload) -> None:
        if self.use:
            _cache_write(_cache_path(self.spec, self.command, entry),
                         payload, self.spec, self.command)


# ---------------------------------------------------------------------------
# Commands


def _per_degree_table(dims: dict) -> dict:
    degrees = sorted(dims)
    return {
        "dims": {str(d): int(dims[d]) for d in degrees},
        "per_degree": [
            {"degree": d, "dim": int(dims[d])} for d in degrees
        ],
        "total_dim": int(sum(dims.values())),
    }


def _run_build_b(spec: AlgebraSpec, cache: _Cache) -> dict:
    lo, hi = spec.degree_range
    entries = ["deg%d" % d for d in range(lo, hi + 1)]
    payloads = cache.read_all(entries)
    if payloads is None:
        algebra = build_graded(spec.cartan_data(), (lo, hi))
        dims = algebra.dims()
        payloads = {}
        for d in range(lo, hi + 1):
            payload = {"dim": int(dims.get(d, 0))}
            payloads["deg%d" % d] = payload
            cache.write("deg%d" % d, payload)
    dims = {d: payloads["deg%d" % d]["dim"] for d in range(lo, hi + 1)}
    return _per_degree_table(dims)


def _restriction_basis(spec: AlgebraSpec, data, local):
    if spec.restriction is not None:
        return root_subalgebra(data, local, spec.restriction), "restricted"
    if spec.variant == "S":
        return root_subalgebra(data, local, gminus_nodes(data)), "strong"
    return None, "weak"


def _run_cartanify(spec: AlgebraSpec, cache: _Cache) -> dict:
    if spec.variant == "B":
        raise ValueError(
            'variant "B" is the contragredient algebra; use build-b')
    lo, hi = spec.degree_range
    entries = ["deg%d" % d for d in range(lo, hi + 1)] + ["meta"]
    payloads = cache.read_all(entries)
    if payloads is None:
        data = spec.cartan_data()
        local = build_local(data)
        restriction, construction = _restriction_basis(spec, data, local)
        result = cartanify(local, degree_range=(lo, hi),
                           restriction=restriction,
                           provenance=construction)
        dims = result.graded.dims()
        payloads = {}
        for d in range(lo, hi + 1):
            payload = {"dim": int(dims.get(d, 0))}
            payloads["deg%d" % d] = payload
            cache.write("deg%d" % d, payload)
        meta = {
            "construction": construction,
            "kernel_dim": int(result.kernel_dim),
            "candidate_count": int(result.candidate_count),
        }
        payloads["meta"] = meta
        cache.write("meta", meta)
    dims = {d: payloads["deg%d" % d]["dim"] for d in range(lo, hi + 1)}
    out = _per_degree_table(dims)
    out.update(payloads["meta"])
    return out


def _run_tha_minus1(spec: AlgebraSpec, cache: _Cache) -> dict:
    if spec.variant == "B":
        raise ValueError(
            'variant "B" has no relations model; use variant "W" or "S"')
    payload = cache.read("result")
    if payload is None:
        pres = tha.presentation(spec.cartan_data(), spec.variant)
        module = tha.build_minus1(pres)
        payload = {
            "status": module.status,
            "certificate": _jsonable(module.certificate),
        }
        if module.status == "complete":
            payload["dim"] = module.dim
            payload["decomposition"] = [
                {"highest_weight": [int(l) for l in labels],
                 "multiplicity": int(mult), "dim": int(dim)}
                for labels, mult, dim in module.decompose()
            ]
        cache.write("result", payload)
    return payload


def _graded_model(spec: AlgebraSpec, window):
    data = spec.cartan_data()
    if spec.variant == "B":
        return data, build_graded(data, window)
    local = build_local(data)
    restriction, _ = _restriction_basis(spec, data, local)
    return data, cartanify(local, degree_range=window,
                           restriction=restriction).graded


def _run_decompose(spec: AlgebraSpec, cache: _Cache) -> dict:
    lo, hi = spec.degree_range
    entries = ["deg%d" % d for d in range(lo, hi + 1)]
    payloads = cache.read_all(entries)
    if payloads is None:
        data, graded = _graded_model(spec, (lo, hi))
        dims = graded.dims()
        payloads = {}
        for d in range(lo, hi + 1):
            dim = int(dims.get(d, 0))
            modules = []
            if dim:
                for labels, mult, sub_dim in decompose_at_degree(
                        graded, d, data):
                    modules.append(
                        {"highest_weight": [int(l) for l in labels],
                         "multiplicity": int(mult), "dim": int(sub_dim)})
                modules.sort(key=lambda m: (m["dim"], m["highest_weight"]))
            payload = {"dim": dim, "modules": modules}
            payloads["deg%d" % d] = payload
            cache.write("deg%d" % d, payload)
    degrees = [
        {"degree": d, **payloads["deg%d" % d]} for d in range(lo, hi + 1)
    ]
    return {"degrees": degrees,
            "total_dim": sum(entry["dim"] for entry in degrees)}


def _iso_window(spec: AlgebraSpec):
    lo, hi = spec.degree_range
    return (max(lo, -2), min(hi, 1))


def _run_check_iso(spec: AlgebraSpec, cache: _Cache) -> dict:
    lo, hi = _iso_window(spec)
    entry = "window%d_%d" % (lo, hi)
    payload = cache.read(entry)
    if payload is None:
        verdict = iso.check_isomorphism(spec.cartan_data(),
                                        degree_range=(lo, hi))
        payload = _jsonable({
            "verdict": verdict.verdict,
            "surjective": verdict.surjective,
            "injective": verdict.injective,
            "hypotheses": verdict.hypotheses,
            "homomorphism": verdict.homomorphism,
            "identities": verdict.identities,
            "sides": verdict.sides,
            "certificate": verdict.certificate,
        })
        cache.write(entry, payload)
    return payload


def _run_roots(spec: AlgebraSpec, cache: _Cache) -> dict:
    payload = cache.read("result")
    if payload is None:
        data = spec.cartan_data()
        roots = sorted(
            enumerate_roots(data),
            key=lambda root: (root.height, tuple(root.coords)),
        )
        payload = {
            "count": len(roots),
            "roots": [
                {"coords": [int(c) for c in root.coords],
                 "height": int(root.height),
                 "norm": str(root.norm)}
                for root in roots
            ],
        }
        cache.write("result", payload)
    return payload


# Errors an engine raises on data it cannot handle.  A ValueError carries
# its own explanation; for the others the class is part of the message,
# since "division by zero" or a bare key does not say what went wrong.
_ENGINE_ERRORS = (ValueError, ArithmeticError, LookupError)


def _error_text(exc: Exception) -> str:
    if isinstance(exc, ValueError):
        return str(exc)
    return "%s: %s" % (type(exc).__name__, exc)


def _run_check_all(spec: AlgebraSpec, cache: _Cache) -> dict:
    results = {}
    for command in _COMMANDS:
        if command == "check-all":
            continue
        runner = _RUNNERS[command]
        try:
            results[command] = runner(
                spec, _Cache(spec, command, cache.use))
        except _ENGINE_ERRORS as exc:
            results[command] = {
                "error": _error_text(exc), "module": _MODULE_OF[command]}
    return {"commands": results}


_RUNNERS = {
    "build-b": _run_build_b,
    "cartanify": _run_cartanify,
    "tha-minus1": _run_tha_minus1,
    "decompose": _run_decompose,
    "check-iso": _run_check_iso,
    "roots": _run_roots,
    "check-all": _run_check_all,
}


# ---------------------------------------------------------------------------
# Entry point


def build_report(command: str, spec: AlgebraSpec, use_cache: bool = True) -> dict:
    """Run one command on a validated spec and assemble its report."""
    start = time.perf_counter()
    result = _RUNNERS[command](spec, _Cache(spec, command, use_cache))
    return {
        "schema": _SCHEMA,
        "command": command,
        "spec": spec.canonical(),
        "spec_hash": spec.spec_hash(),
        "provenance": {
            "tool_version": __version__,
            "timing_seconds": time.perf_counter() - start,
        },
        "result": result,
    }


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _apply_overrides(spec: AlgebraSpec, args) -> AlgebraSpec:
    obj = spec.canonical()
    if args.degrees is not None:
        match = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", args.degrees)
        if not match:
            raise SpecError(["--degrees: expected a..b"])
        obj["degree_range"] = [int(match.group(1)), int(match.group(2))]
    if args.variant is not None:
        obj["variant"] = args.variant
    if args.restrict is not None:
        try:
            obj["restriction"] = [
                int(part) for part in args.restrict.split(",") if part
            ]
        except ValueError:
            raise SpecError(
                ["--restrict: expected comma-separated node indices"])
    return _spec_from_dict(obj)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", required=True,
                        help="path to a spec JSON file, or inline JSON")
    common.add_argument("--out", help="write the report here (default stdout)")
    common.add_argument("--degrees", metavar="a..b",
                        help="override the spec's degree range; write "
                             "--degrees=-4..1 when the range starts with "
                             "a negative degree")
    common.add_argument("--variant", choices=_VARIANTS,
                        help="override the spec's variant")
    common.add_argument("--restrict", metavar="n1,n2,...",
                        help="override the spec's restriction nodes")
    common.add_argument("--no-cache", action="store_true",
                        help="bypass the component cache")
    parser = argparse.ArgumentParser(
        prog="gradedlie",
        description="Exact graded Lie superalgebras from Cartan data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        sub.add_parser(command, parents=[common])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _apply_overrides(parse_spec(args.spec), args)
    except SpecError as exc:
        for line in exc.diagnostics:
            print("spec error: %s" % line, file=sys.stderr)
        return 2
    try:
        report = build_report(args.command, spec,
                              use_cache=not args.no_cache)
    except _ENGINE_ERRORS as exc:
        print("error in module %s: %s"
              % (_MODULE_OF[args.command], _error_text(exc)),
              file=sys.stderr)
        return 1
    text = render_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if args.command == "check-all":
        if any("error" in value
               for value in report["result"]["commands"].values()):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
