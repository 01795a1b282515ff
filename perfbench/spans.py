"""Spans around calls into the package, recorded from outside it.

``Tracer.install`` replaces the module-level names that callers look up
(``gradedlie.cartan.local_cartanification``, ``gradedlie.iso.build_local``
and the like, plus two methods looked up on their class) with wrappers
that record one span per call: name, start, end, parent span and case id
(``Tracer.case``, set by the caller), plus counts read from the returned
object.  ``uninstall`` puts every
original back.  Spans stay in memory until ``dump`` writes them once.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    case: str
    counts: dict = field(default_factory=dict)


def self_times(spans: list, first: int = 0) -> list:
    """Per span, its duration minus the part of it covered by its
    children (the union of their intervals, clipped to the parent).
    ``spans`` starts at index ``first`` of the list that ``parent``
    indexes refer to."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans, first):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def aggregate(spans: list, first: int = 0) -> dict:
    """Per span name: calls, total seconds ``s``, self seconds ``self_s``
    and the summed counts (maxima for ``max_`` counts)."""
    out: dict = {}
    for span, own in zip(spans, self_times(spans, first)):
        entry = out.setdefault(span.name, {"calls": 0, "s": 0.0,
                                           "self_s": 0.0, "counts": {}})
        entry["calls"] += 1
        entry["s"] += span.end - span.start
        entry["self_s"] += own
        for key, value in span.counts.items():
            if key.startswith("max_"):
                entry["counts"][key] = max(entry["counts"].get(key, 0), value)
            else:
                entry["counts"][key] = entry["counts"].get(key, 0) + value
    return out


# -- counts read from returned objects ---------------------------------------


def _cartanification_counts(result) -> dict:
    return {"candidates": result.candidate_count,
            "kernel_dim": result.kernel_dim}


def _extension_counts(result) -> dict:
    """Tensor candidates of each extended degree are (inner layer) x
    (degree +-1 layer); the new layer keeps the independent ones."""
    dims = result.dims()
    candidates = new = 0
    for d in dims:
        if abs(d) < 2:
            continue
        side = 1 if d > 0 else -1
        inner = dims[d - side]
        if inner:
            candidates += inner * dims[side]
            new += dims[d]
    return {"tensor_candidates": candidates, "new_dims": new,
            "max_layer_dim": max(dims.values())}


def _minus1_counts(module) -> dict:
    cert = module.certificate
    return {"cells_created": cert["cells_created"],
            "depth_used": cert["depth_used"], "dim": module.dim}


# (span name, bindings wrapped, counts read from the result).  A binding
# is (module, attribute path); linalg is wrapped where graded and cartan
# bind it, so its numbers are those callers' calls.
TARGETS = (
    ("cartan.local_cartanification",
     (("cartan", "local_cartanification"),), _cartanification_counts),
    ("cartan.Cartanification.action_coords",
     (("cartan", "Cartanification.action_coords"),), None),
    ("cartan.WeightedSolver.express",
     (("cartan", "WeightedSolver.express"),), None),
    ("graded.minimal_extension",
     (("graded", "minimal_extension"), ("cartan", "minimal_extension"),
      ("contragredient", "minimal_extension")), _extension_counts),
    ("graded.lowest_weight_module",
     (("graded", "lowest_weight_module"),), None),
    ("graded.decompose_at_degree",
     (("graded", "decompose_at_degree"), ("cli", "decompose_at_degree"),
      ("iso", "decompose_at_degree")), None),
    ("tha.build_minus1", (("tha", "build_minus1"),), _minus1_counts),
    ("tha.check_relations", (("tha", "check_relations"),), None),
    ("linalg.rref", (("graded", "rref"), ("cartan", "rref")), None),
    ("linalg.kernel_basis",
     (("graded", "kernel_basis"), ("cartan", "kernel_basis")), None),
    ("rootsys.chevalley_realization",
     (("rootsys", "chevalley_realization"),
      ("contragredient", "chevalley_realization"),
      ("iso", "chevalley_realization"), ("tha", "chevalley_realization")),
     None),
    ("contragredient.build_local",
     (("contragredient", "build_local"), ("cli", "build_local"),
      ("iso", "build_local")), None),
    ("iso.phi_assignment", (("iso", "phi_assignment"),), None),
    ("iso.pseudo_minuscule_identities",
     (("iso", "pseudo_minuscule_identities"),), None),
    ("iso.check_isomorphism", (("iso", "check_isomorphism"),), None),
    ("cli.build_report", (("cli", "build_report"),), None),
    ("cli.render_report", (("cli", "render_report"),), None),
)


class Tracer:
    """Records spans for calls made through the wrapped bindings."""

    def __init__(self, modules: dict):
        self.modules = modules      # short name -> imported module
        self.spans: list = []
        self.case = ""
        self._stack: list = []
        self._saved: list = []      # (owner, attribute, original)

    def _wrap(self, fn, name: str, counts):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, time.perf_counter(), 0.0,
                        stack[-1] if stack else None, self.case)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counts is not None:
                span.counts = counts(result)
            return result
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, bindings, counts in TARGETS:
            for module, path in bindings:
                owner = self.modules[module]
                *outer, attribute = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attribute]
                self._saved.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(original, name, counts))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent,
        case and counts."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(
                    [span.name, span.start, span.end, span.parent,
                     span.case, span.counts], separators=(",", ":")) + "\n")
