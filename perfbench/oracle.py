"""Expected outputs, derived without the code under test.

``expected.json`` lists every number the benchmark checks, each with its
source.  ``load_expected`` re-derives all of them here, from the Weyl
dimension formula, the degree -1 structure theorem and the closed forms of
the Grassmann-derivation algebras W(n) and S(n), and refuses a file that
disagrees.  ``check_report`` compares one CLI report with its entry.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb


class ExpectedError(ValueError):
    """expected.json disagrees with the independent derivation."""


# -- root systems and the Weyl dimension formula ----------------------------


def positive_roots(a: list, nodes) -> list:
    """Positive roots of the subsystem on ``nodes``, as coefficient tuples
    over all nodes, grown by simple-root strings height by height."""
    r = len(a)
    simple = [tuple(int(i == k) for i in range(r)) for k in nodes]
    roots = set(simple)
    layer = list(simple)
    while layer:
        grown = []
        for beta in layer:
            for k in nodes:
                p, down = 0, list(beta)
                while True:
                    down[k] -= 1
                    if tuple(down) not in roots:
                        break
                    p += 1
                # the alpha_k-string through beta runs from -p to q
                q = p - sum(beta[j] * a[k][j] for j in range(r))
                if q > 0:
                    up = tuple(c + (i == k) for i, c in enumerate(beta))
                    if up not in roots:
                        roots.add(up)
                        grown.append(up)
        layer = grown
    return sorted(roots, key=lambda b: (sum(b), b))


def weyl_dimension(a: list, epsilon: list, labels) -> int:
    """dim L(mu) = prod over positive beta of (mu + rho, beta) / (rho, beta),
    with (omega_i, alpha_j) = delta_ij / epsilon_j."""
    num = den = Fraction(1)
    for beta in positive_roots(a, range(len(a))):
        num *= sum(Fraction(c * (m + 1), e)
                   for c, m, e in zip(beta, labels, epsilon))
        den *= sum(Fraction(c, e) for c, e in zip(beta, epsilon))
    value = num / den
    if value.denominator != 1:
        raise ExpectedError("Weyl formula gave %s for %s" % (value, labels))
    return int(value)


def _components(a: list, nodes) -> list:
    left, comps = set(nodes), []
    while left:
        stack, comp = [min(left)], set()
        while stack:
            i = stack.pop()
            if i in comp:
                continue
            comp.add(i)
            stack.extend(j for j in left if a[i][j] and j not in comp)
        left -= comp
        comps.append(sorted(comp))
    return sorted(comps)


def minus1_modules(a: list, epsilon: list, lam, variant: str) -> list:
    """Degree -1 as the structure theorem predicts it: L(lambda) (W only)
    plus L(theta_C + lambda) per component C of K = {i : lambda_i = 0},
    theta_C the highest root of C.  Entries (labels, multiplicity, dim)."""
    r = len(a)
    weights = [tuple(lam)] if variant == "W" else []
    for comp in _components(a, [i for i in range(r) if lam[i] == 0]):
        theta = positive_roots(a, comp)[-1]
        weights.append(tuple(
            lam[i] + sum(theta[j] * a[i][j] for j in range(r))
            for i in range(r)))
    return sorted((w, weights.count(w), weyl_dimension(a, epsilon, w))
                  for w in set(weights))


def grassmann_dims(n: int, degrees, strong: bool) -> dict:
    """Per-degree dims of W(n), or of S(n) when ``strong``: n*C(n, 1-d),
    minus C(n, -d) for S(n) wherever W(n) is nonzero (the divergence onto
    the degree -d forms is surjective there)."""
    def binom(m, k):
        return comb(m, k) if k >= 0 else 0
    dims = {d: n * binom(n, 1 - d) for d in degrees}
    if strong:
        dims = {d: w - binom(n, -d) if w else 0 for d, w in dims.items()}
    return dims


# -- the expected-value file ------------------------------------------------


def derive(case) -> dict:
    """The expected entry of ``case`` (a ladder.Case), sources omitted."""
    a, eps, lam = case.matrix(), case.epsilon(), case.lam
    if case.command == "cartanify":
        lo, hi = case.degrees
        dims = grassmann_dims(case.rank + 1, range(lo, hi + 1),
                              case.variant == "S")
        return {"construction": "strong" if case.variant == "S" else "weak",
                "dims": {str(d): v for d, v in dims.items()}}
    modules = minus1_modules(a, eps, lam, case.variant)
    out = {"minus1_modules": [[list(w), m, d] for w, m, d in modules],
           "minus1_dim": sum(m * d for _, m, d in modules)}
    if case.command in ("check-iso", "check-all"):
        out["verdict"] = "isomorphic"
    if case.command == "check-all":
        weyl = weyl_dimension(a, eps, lam)
        nroots = 2 * len(positive_roots(a, range(case.rank)))
        out["roots"] = nroots
        out["local_dims"] = {"-1": weyl, "0": nroots + case.rank + 1,
                             "1": weyl}
    return out


def _strip_sources(value):
    if isinstance(value, dict):
        return {k: _strip_sources(v) for k, v in value.items()
                if k != "source"}
    return value


def load_expected(path: str, cases) -> dict:
    """Read ``expected.json`` and check it against ``derive`` for every
    case; every entry must name its sources."""
    with open(path, encoding="utf-8") as handle:
        table = json.load(handle)["cases"]
    out = {}
    for case in cases:
        entry = table.get(case.id)
        if entry is None:
            raise ExpectedError("no expected values for case %s" % case.id)
        if not entry.get("source"):
            raise ExpectedError("case %s names no source" % case.id)
        values = _strip_sources(entry)
        if values != derive(case):
            raise ExpectedError(
                "expected values of %s disagree with the derivation: "
                "file %s, derived %s" % (case.id, values, derive(case)))
        out[case.id] = values
    return out


# -- checking reports -------------------------------------------------------


def _modules(entries) -> list:
    out = []
    for e in entries:
        if isinstance(e, dict):
            e = (e["highest_weight"], e["multiplicity"], e["dim"])
        out.append((tuple(e[0]), e[1], e[2]))
    return sorted(out)


def _check_iso(result: dict, want: dict) -> list:
    problems = []
    if result.get("verdict") != want["verdict"]:
        problems.append("verdict %r, expected %r"
                        % (result.get("verdict"), want["verdict"]))
    sides = result.get("sides", {})
    rel = sides.get("relations_model", {})
    cart = sides.get("cartanification", {})
    if not rel.get("dim") == cart.get("minus1_dim") == want["minus1_dim"]:
        problems.append("degree -1 dims %s (relations) and %s "
                        "(cartanification), expected %d"
                        % (rel.get("dim"), cart.get("minus1_dim"),
                           want["minus1_dim"]))
    expected = _modules(want["minus1_modules"])
    for name, side in (("relations", rel), ("cartanification", cart)):
        if _modules(side.get("decomposition", [])) != expected:
            problems.append("%s decomposition differs" % name)
    return problems


def _check_minus1(result: dict, want: dict) -> list:
    problems = []
    if result.get("status") != "complete":
        problems.append("status %r" % result.get("status"))
    if result.get("dim") != want["minus1_dim"]:
        problems.append("dim %s, expected %d"
                        % (result.get("dim"), want["minus1_dim"]))
    if (_modules(result.get("decomposition", []))
            != _modules(want["minus1_modules"])):
        problems.append("decomposition differs")
    return problems


def _check_dims(dims: dict, want: dict, what: str) -> list:
    return ["%s degree %s: dim %s, expected %d" % (what, d, dims.get(d), v)
            for d, v in sorted(want.items()) if dims.get(d) != v]


def _check_cartanify(result: dict, want: dict) -> list:
    problems = _check_dims(result.get("dims", {}), want["dims"], "cartanify")
    if result.get("construction") != want["construction"]:
        problems.append("construction %r" % result.get("construction"))
    return problems


def _check_all(result: dict, want: dict) -> list:
    commands = result.get("commands", {})
    problems = ["%s: %s" % (name, value["error"])
                for name, value in commands.items() if "error" in value]
    problems += _check_iso(commands.get("check-iso", {}), want)
    problems += _check_minus1(commands.get("tha-minus1", {}), want)
    if commands.get("roots", {}).get("count") != want["roots"]:
        problems.append("roots: count %s, expected %d"
                        % (commands.get("roots", {}).get("count"),
                           want["roots"]))
    problems += _check_dims(commands.get("build-b", {}).get("dims", {}),
                            want["local_dims"], "build-b")
    cart_want = dict(want["local_dims"], **{"-1": want["minus1_dim"]})
    problems += _check_dims(commands.get("cartanify", {}).get("dims", {}),
                            cart_want, "cartanify")
    return problems


_CHECKS = {
    "check-iso": _check_iso,
    "tha-minus1": _check_minus1,
    "cartanify": _check_cartanify,
    "check-all": _check_all,
}


def check_report(command: str, report: dict, want: dict) -> list:
    """Problems found in ``report`` against ``want``; empty when it agrees."""
    if report.get("command") != command:
        return ["report of command %r" % report.get("command")]
    return _CHECKS[command](report.get("result", {}), want)
