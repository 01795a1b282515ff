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

A spec is validated once, after ``--degrees``, ``--variant`` and
``--restrict`` have replaced their fields in the loaded JSON: a flag's
value is checked, the file's value it replaces is not.  The datum (A,
epsilon, lambda) must be a valid Cartan datum of finite type;
``rootsys.cartan_failures`` words each failure.

Commands (``gradedlie <command> --spec <path>``):

* ``build-b``     -- contragredient superalgebra, per-degree dimensions;
* ``cartanify``   -- cartanification of the local algebra (weak, strong,
  or restricted per the spec), per-degree dimensions;
* ``tha-minus1``  -- enumerate the degree-(-1) slice of the relations
  model and decompose it;
* ``decompose``   -- weight decomposition of every layer of the selected
  model;
* ``check-iso``   -- verdict of the comparison of the W relations model
  with the weak cartanification; a spec naming variant "S" or a
  restriction is a spec error.  The verdict depends only on degrees
  -1..1, so this command computes inside the window [-2, 1] regardless
  of the requested range;
* ``roots``       -- root system of the Cartan matrix with norms;
* ``check-all``   -- every command above on one spec, errors recorded
  per command.  It builds each model once and hands it to every command
  that needs it: one contragredient local part, which ``build-b`` and
  ``decompose --variant B`` extend over the window; the spec's local
  cartanification of it, weak, strong or restricted, which ``cartanify``
  and ``decompose`` extend over the window; the weak one, which
  ``check-iso`` extends over its own window (the same object when the
  spec is weak); one relations module per variant, for ``tha-minus1``
  and ``check-iso``.  ``check-iso`` checks its precondition before it
  asks for any model.  The results are byte-identical to running each
  command alone.

Reports are deterministic JSON (sorted keys; identical runs are
byte-identical apart from the timing field) and conform to
``schemas/report.schema.json``.  Rationals in reports are strings
``"p/q"``; per-degree tables are keyed by the decimal degree string.

Computed per-degree components are cached, content-addressed by the hash
of the spec (minus the degree range) and the command, one self-describing
JSON file per degree.  A rerun, or a window inside a cached one, is served
from the cache; a window that reaches any degree not cached is computed
whole, and only the degrees not cached are written.  The minimal
extension builds each degree from the one inside it, so a wider window
rebuilds every degree whatever is cached; the only avoidable work is
``decompose`` redoing the decompositions of degrees already cached.
Each file records a hash of the package's sources and schemas and a
sha256 of its payload; a file written by any other engine, or whose
payload is not the one written, is treated as absent.  The cache
directory is ``$GRADEDLIE_CACHE_DIR`` when set, otherwise
``~/.cache/gradedlie``; writes are atomic (write to a temporary file in
the same directory, then rename); ``--no-cache`` bypasses reads and
writes.  A cache hit and a cold run produce identical reports.

Exit codes: 0 success; 1 engine error (the message is printed verbatim
with the originating module, and prefixed with the exception class for an
``ArithmeticError`` or ``LookupError``; ``check-all`` reports its commands'
errors and then exits 1); 2 spec or usage error, one ``spec error:`` line
per problem, before anything is computed.
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

from . import __version__, cartan, graded, iso, tha
from .contragredient import build_local
from .graded import decompose_at_degree
from .rootsys import CartanData, cartan_failures, enumerate_roots, jk_partition

_VARIANTS = ("W", "S", "B")
_SCHEMA = "gradedlie-report/1"


class SpecError(ValueError):
    """A spec failed validation; ``diagnostics`` lists field-level problems."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


@dataclass(frozen=True)
class AlgebraSpec:
    """Validated Cartan data plus build options for one construction.

    ``data`` is the datum the spec's gate validated; every model of the
    spec is built from it, so its validation and its positive roots are
    computed once."""

    data: CartanData
    restriction: tuple | None
    degree_range: tuple
    variant: str

    def canonical(self) -> dict:
        """JSON-ready canonical form; parsing it reproduces this spec."""
        out = {
            "cartan_matrix": [list(row) for row in self.data.a],
            "epsilon": [str(e) for e in self.data.epsilon],
            "lambda": list(self.data.lam),
            "degree_range": list(self.degree_range),
            "variant": self.variant,
        }
        if self.restriction is not None:
            out["restriction"] = list(self.restriction)
        return out

    def spec_hash(self) -> str:
        return _digest(self.canonical())

    def core_hash(self) -> str:
        """Hash of the spec without the degree range, for cache addressing."""
        core = self.canonical()
        del core["degree_range"]
        return _digest(core)


def _digest(value) -> str:
    """sha256 of the canonical JSON text of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
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

    epsilon_raw = obj.get("epsilon", ["1"] * r)
    epsilon = []
    if not isinstance(epsilon_raw, list) or (matrix and len(epsilon_raw) != r):
        diagnostics.append("epsilon: must list one rational per node")
    else:
        for k, entry in enumerate(epsilon_raw):
            try:
                value = Fraction(entry) if isinstance(entry, (str, int)) \
                    and not isinstance(entry, bool) else None
                if value is None:
                    raise ValueError
            except (ValueError, ZeroDivisionError):
                diagnostics.append(
                    'epsilon[%d]: expected a rational "p/q"' % k)
                continue
            epsilon.append(value)

    lam_raw = obj.get("lambda", [0] * r)
    data = None
    if (not isinstance(lam_raw, list)
            or any(not isinstance(x, int) or isinstance(x, bool) or x < 0
                   for x in lam_raw)
            or (matrix and len(lam_raw) != r)):
        diagnostics.append(
            "lambda: must list one non-negative integer per node")
        lam_raw = [0] * r
    elif matrix and len(epsilon) == r:
        data = CartanData(matrix, epsilon, lam_raw)
        diagnostics += cartan_failures(data)

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
    return AlgebraSpec(
        data=data,
        restriction=restriction,
        degree_range=tuple(degree_range_raw),
        variant=variant,
    )


def _load_spec(source: str):
    """The JSON value of a spec given as a file path or a JSON string."""
    text = source
    if os.path.isfile(source):
        with open(source, encoding="utf-8") as handle:
            text = handle.read()
    elif not source.lstrip().startswith("{"):
        raise SpecError(["spec: no such file: %s" % source])
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(["json: %s" % exc]) from exc


def parse_spec(source: str) -> AlgebraSpec:
    """Parse an algebra spec from a file path or a JSON string.

    Raises ``SpecError`` whose ``diagnostics`` name each problem by field;
    malformed JSON is reported with the line and column from the decoder.
    """
    return _spec_from_dict(_load_spec(source))


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
        return {field.name: _jsonable(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    raise TypeError("cannot render %r" % type(value))


# ---------------------------------------------------------------------------
# Cache


def cache_dir() -> str:
    """Cache root: $GRADEDLIE_CACHE_DIR, default ~/.cache/gradedlie."""
    return os.environ.get(
        "GRADEDLIE_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "gradedlie"),
    )


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
    """The entry's payload; None when the file is unreadable, was written
    by another engine, or holds a payload other than the one written."""
    try:
        with open(path, encoding="utf-8") as handle:
            envelope = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(envelope, dict) or \
            envelope.get("engine") != engine_hash() or \
            envelope.get("payload_sha256") != _digest(envelope.get("payload")):
        return None
    return envelope.get("payload")


def _cache_write(path: str, payload, spec: AlgebraSpec, command: str) -> None:
    envelope = {
        "tool_version": __version__,
        "engine": engine_hash(),
        "command": command,
        "spec": spec.canonical(),
        "payload": payload,
        "payload_sha256": _digest(payload),
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
    """Per-command cache view; ``use=False`` turns reads and writes off.

    Entries live in <cache_dir>/<spec core hash>/<command>/<entry>.json."""

    def __init__(self, spec: AlgebraSpec, command: str, use: bool):
        self.spec = spec
        self.command = command
        self.use = use
        self.directory = os.path.join(cache_dir(), spec.core_hash(), command)

    def fetch(self, entries, compute) -> dict:
        """The payload of every entry, by entry name.

        When every entry is cached the payloads are read; otherwise
        ``compute()`` returns them all, and only the missing entries are
        written."""
        paths = {entry: os.path.join(self.directory, entry + ".json")
                 for entry in entries}
        found = ({entry: _cache_read(path) for entry, path in paths.items()}
                 if self.use else {})
        missing = [entry for entry in entries if found.get(entry) is None]
        if not missing:
            return found
        payloads = compute()
        if self.use:
            for entry in missing:
                _cache_write(paths[entry], payloads[entry], self.spec,
                             self.command)
        return payloads


# ---------------------------------------------------------------------------
# Models


class _Models:
    """The models built for one report, each at most once.

    Every model starts from the contragredient local part of the spec's
    datum, built once (``build_local``); from it, each local
    cartanification once: the spec's (weak, strong or restricted) and the
    weak one check-iso needs, the same object when the spec is weak; each
    window's extension once; the relations module once per variant.  A
    model is built on first request, so a command served from the disk
    cache builds nothing; a build that raises keeps nothing, and the next
    request retries it.
    """

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self._built: dict = {}

    def _memo(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def local(self) -> graded.LocalSuperalgebra:
        """The contragredient local part B_-1 + B_0 + B_1."""
        return self._memo("local", lambda: build_local(self.spec.data))

    def contragredient(self, window) -> graded.GradedSuperalgebra:
        """The contragredient superalgebra over ``window``."""
        return self._memo(("B", window), lambda: graded.minimal_extension(
            self.local(), window))

    def local_cartanification(self, nodes) -> cartan.Cartanification:
        """The local cartanification restricted to ``nodes``, or the weak
        one when ``nodes`` is None."""
        def build():
            local = self.local()
            return cartan.local_cartanification(
                local, restriction=None if nodes is None
                else cartan.root_subalgebra(local, nodes))
        return self._memo(("local cart", nodes), build)

    def cartanification(self, window) -> cartan.Cartanification:
        """The spec's cartanification over ``window``."""
        return self._memo(("cart", window), lambda: self.local_cartanification(
            _restriction(self.spec)[1]).over(window))

    def module(self, variant: str) -> tha.MinusOneModule:
        return self._memo(("module", variant), lambda: tha.build_minus1(
            tha.presentation(self.spec.data, variant)))


# ---------------------------------------------------------------------------
# Commands


def _degree_entries(spec: AlgebraSpec) -> list:
    lo, hi = spec.degree_range
    return ["deg%d" % d for d in range(lo, hi + 1)]


def _dim_entries(spec: AlgebraSpec, dims: dict) -> dict:
    lo, hi = spec.degree_range
    return {"deg%d" % d: {"dim": int(dims.get(d, 0))}
            for d in range(lo, hi + 1)}


def _per_degree_table(spec: AlgebraSpec, payloads: dict) -> dict:
    lo, hi = spec.degree_range
    dims = {d: payloads["deg%d" % d]["dim"] for d in range(lo, hi + 1)}
    return {
        "dims": {str(d): dims[d] for d in dims},
        "per_degree": [{"degree": d, "dim": dims[d]} for d in dims],
        "total_dim": sum(dims.values()),
    }


def _module_entries(decomposition) -> list:
    return [{"highest_weight": [int(l) for l in labels],
             "multiplicity": int(mult), "dim": int(dim)}
            for labels, mult, dim in decomposition]


def _run_build_b(spec: AlgebraSpec, cache: _Cache, models: _Models) -> dict:
    payloads = cache.fetch(_degree_entries(spec), lambda: _dim_entries(
        spec, models.contragredient(spec.degree_range).dims()))
    return _per_degree_table(spec, payloads)


def _restriction(spec: AlgebraSpec):
    """The cartanification the spec asks for, "weak", "strong" or
    "restricted", and the nodes of its restriction (None when weak)."""
    if spec.restriction is not None:
        return "restricted", spec.restriction
    if spec.variant == "S":
        return "strong", jk_partition(spec.data)[1]
    return "weak", None


def _run_cartanify(spec: AlgebraSpec, cache: _Cache, models: _Models) -> dict:
    if spec.variant == "B":
        raise ValueError(
            'variant "B" is the contragredient algebra; use build-b')

    def compute():
        result = models.cartanification(spec.degree_range)
        payloads = _dim_entries(spec, result.graded.dims())
        payloads["meta"] = {
            "construction": _restriction(spec)[0],
            "kernel_dim": int(result.kernel_dim),
            "candidate_count": int(result.candidate_count),
        }
        return payloads

    payloads = cache.fetch(_degree_entries(spec) + ["meta"], compute)
    out = _per_degree_table(spec, payloads)
    out.update(payloads["meta"])
    return out


def _run_tha_minus1(spec: AlgebraSpec, cache: _Cache, models: _Models) -> dict:
    if spec.variant == "B":
        raise ValueError(
            'variant "B" has no relations model; use variant "W" or "S"')

    def compute():
        module = models.module(spec.variant)
        payload = {
            "status": module.status,
            "certificate": _jsonable(module.certificate),
        }
        if module.status == "complete":
            payload["dim"] = module.dim
            payload["decomposition"] = _module_entries(module.decompose())
        return {"result": payload}

    return cache.fetch(["result"], compute)["result"]


def _run_decompose(spec: AlgebraSpec, cache: _Cache, models: _Models) -> dict:
    lo, hi = spec.degree_range

    def compute():
        if spec.variant == "B":
            model = models.contragredient((lo, hi))
        else:
            model = models.cartanification((lo, hi)).graded
        dims = model.dims()
        payloads = {}
        for d in range(lo, hi + 1):
            dim = int(dims.get(d, 0))
            modules = _module_entries(
                decompose_at_degree(model, d) if dim else ())
            payloads["deg%d" % d] = {"dim": dim, "modules": modules}
        return payloads

    payloads = cache.fetch(_degree_entries(spec), compute)
    degrees = [
        {"degree": d, **payloads["deg%d" % d]} for d in range(lo, hi + 1)
    ]
    return {"degrees": degrees,
            "total_dim": sum(entry["dim"] for entry in degrees)}


def _run_check_iso(spec: AlgebraSpec, cache: _Cache, models: _Models) -> dict:
    lo, hi = spec.degree_range
    window = (max(lo, -2), min(hi, 1))
    entry = "window%d_%d" % window

    def compute():
        iso.require_pseudo_minuscule(spec.data)
        # cartanification before module: the order check_isomorphism
        # builds them in, so a failing build is reported as it was
        verdict = iso.check_isomorphism(
            spec.data, degree_range=window,
            cartanification=models.local_cartanification(None),
            module=models.module("W"))
        return {entry: _jsonable(verdict)}

    return cache.fetch([entry], compute)[entry]


def _run_roots(spec: AlgebraSpec, cache: _Cache, models: _Models) -> dict:
    def compute():
        roots = sorted(
            enumerate_roots(spec.data),
            key=lambda root: (root.height, tuple(root.coords)),
        )
        return {"result": {
            "count": len(roots),
            "roots": [
                {"coords": [int(c) for c in root.coords],
                 "height": int(root.height),
                 "norm": str(root.norm)}
                for root in roots
            ],
        }}

    return cache.fetch(["result"], compute)["result"]


# Errors an engine raises on data it cannot handle.  A ValueError carries
# its own explanation; for the others the class is part of the message,
# since "division by zero" or a bare key does not say what went wrong.
_ENGINE_ERRORS = (ValueError, ArithmeticError, LookupError)


def _error_text(exc: Exception) -> str:
    if isinstance(exc, ValueError):
        return str(exc)
    return "%s: %s" % (type(exc).__name__, exc)


def _run_check_all(spec: AlgebraSpec, cache: _Cache, models: _Models) -> dict:
    results = {}
    for command, (runner, module) in _COMMANDS.items():
        if command == "check-all":
            continue
        try:
            results[command] = runner(
                spec, _Cache(spec, command, cache.use), models)
        except _ENGINE_ERRORS as exc:
            results[command] = {"error": _error_text(exc), "module": module}
    return {"commands": results}


# command -> (runner, module its errors are reported against), in the
# order check-all runs them; the report's store (``_Models``) builds each
# model once, whichever command asks for it first.
_COMMANDS = {
    "build-b": (_run_build_b, "contragredient"),
    "cartanify": (_run_cartanify, "cartan"),
    "tha-minus1": (_run_tha_minus1, "tha"),
    "decompose": (_run_decompose, "graded"),
    "check-iso": (_run_check_iso, "iso"),
    "roots": (_run_roots, "rootsys"),
    "check-all": (_run_check_all, "cli"),
}


# ---------------------------------------------------------------------------
# Entry point


def build_report(command: str, spec: AlgebraSpec, use_cache: bool = True) -> dict:
    """Run one command on a validated spec and assemble its report.

    The models the command builds live in a store made for this call
    only, so nothing built outlives the report."""
    start = time.perf_counter()
    result = _COMMANDS[command][0](spec, _Cache(spec, command, use_cache),
                                   _Models(spec))
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


def _apply_overrides(obj, args):
    """The loaded spec with the --degrees, --variant and --restrict values
    in place of its own, before anything is validated."""
    if not isinstance(obj, dict):
        return obj
    obj = dict(obj)
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
    return obj


def _build_parser() -> argparse.ArgumentParser:
    """One parser: the command and the options, in any order."""
    parser = argparse.ArgumentParser(
        prog="gradedlie",
        description="Exact graded Lie superalgebras from Cartan data.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--spec", required=True,
                        help="path to a spec JSON file, or inline JSON")
    parser.add_argument("--out", help="write the report here (default stdout)")
    parser.add_argument("--degrees", metavar="a..b",
                        help="override the spec's degree range; write "
                             "--degrees=-4..1 when the range starts with "
                             "a negative degree")
    parser.add_argument("--variant", choices=_VARIANTS,
                        help="override the spec's variant")
    parser.add_argument("--restrict", metavar="n1,n2,...",
                        help="override the spec's restriction nodes")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the component cache")
    return parser


def _require_weak(spec: AlgebraSpec) -> None:
    """check-iso compares the W relations model with the weak
    cartanification, so a spec naming other models is an error, not
    ignored (``check-all`` reports the weak verdict all the same)."""
    problems = []
    if spec.variant != "W":
        problems.append('variant: check-iso compares weak models, not "%s"'
                        % spec.variant)
    if spec.restriction is not None:
        problems.append("restriction: check-iso compares unrestricted models")
    if problems:
        raise SpecError(problems)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _spec_from_dict(_apply_overrides(_load_spec(args.spec), args))
        if args.command == "check-iso":
            _require_weak(spec)
    except SpecError as exc:
        for line in exc.diagnostics:
            print("spec error: %s" % line, file=sys.stderr)
        return 2
    try:
        report = build_report(args.command, spec,
                              use_cache=not args.no_cache)
    except _ENGINE_ERRORS as exc:
        print("error in module %s: %s"
              % (_COMMANDS[args.command][1], _error_text(exc)),
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
