"""Case-ladder benchmark: time to verdict, to relations module and to
construction, through the gradedlie command line.

    python3 perfbench/run.py --workload iso --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
One process, one thread, closed loop: a pass runs every case of the
workload once, in an order drawn from the seed, and the next case starts
when the previous one ends.  Passes repeat while the next one is expected
to end within ``--seconds``.  Every report is checked against
``expected.json``; a case that raises or disagrees counts as failed.  The
last line of standard output is one JSON object: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1`` (see NOTES.md).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import ladder
import oracle
import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")
MODULES = ("linalg", "rootsys", "graded", "contragredient", "cartan", "tha",
           "iso", "cli")
SETUP_SAMPLES = 7
WARM_READS = 9

# Case times are scaled to the reference machine speed (speed.py), in
# "ref_s"; set-up time and the per-layer times are plain seconds.
END_TO_END = (
    ("wall_s", "ref_s"), ("max_case_s", "ref_s"), ("min_case_s", "ref_s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)

# (metric, unit); names are <span name>.<field> unless computed below.
PER_LAYER = (
    ("cartan.local_cartanification.self_s", "s"),
    ("cartan.local_cartanification.calls", "count"),
    ("cartan.local_cartanification.candidates", "count"),
    ("cartan.local_cartanification.kernel_dim", "count"),
    ("cartan.local_cartanification.useful_ratio", "ratio"),
    ("cartan.Cartanification.action_coords.s", "s"),
    ("cartan.Cartanification.action_coords.calls", "count"),
    ("cartan.WeightedSolver.express.s", "s"),
    ("cartan.WeightedSolver.express.calls", "count"),
    ("graded.minimal_extension.self_s", "s"),
    ("graded.minimal_extension.calls", "count"),
    ("graded.minimal_extension.max_layer_dim", "count"),
    ("graded.minimal_extension.useful_ratio", "ratio"),
    ("graded.lowest_weight_module.s", "s"),
    ("graded.decompose_at_degree.s", "s"),
    ("tha.build_minus1.s", "s"),
    ("tha.build_minus1.calls", "count"),
    ("tha.build_minus1.cells_created", "count"),
    ("tha.build_minus1.depth_used", "count"),
    ("tha.build_minus1.dim", "count"),
    ("tha.build_minus1.useful_ratio", "ratio"),
    ("tha.check_relations.s", "s"),
    ("linalg.rref.s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.kernel_basis.s", "s"),
    ("linalg.kernel_basis.calls", "count"),
    ("rootsys.chevalley_realization.s", "s"),
    ("rootsys.chevalley_realization.calls", "count"),
    ("contragredient.build_local.self_s", "s"),
    ("iso.phi_assignment.self_s", "s"),
    ("iso.pseudo_minuscule_identities.s", "s"),
    ("iso.check_isomorphism.self_s", "s"),
    ("cli.build_report.self_s", "s"),
    ("cli.render_report.s", "s"),
    ("cli.cache.hits", "count"),
    ("cli.cache.misses", "count"),
    ("cli.cache.files_written", "count"),
    ("cli.cache.bytes_written", "bytes"),
    ("trace.wall_s", "ref_s"),
    ("trace.overhead_s", "ref_s"),
)


class BenchError(RuntimeError):
    """The benchmark cannot give a valid result (not a case failure)."""


@dataclass
class Context:
    modules: dict
    cases: tuple
    specs: dict
    expected: dict
    rng: random.Random
    seed: int
    tracer: spans.Tracer | None = None
    workdir: str = ""
    references: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


@dataclass
class Pass:
    steps: dict = field(default_factory=dict)     # step id -> seconds
    samples: dict = field(default_factory=dict)   # step id -> speed samples
    cache: dict = field(default_factory=dict)     # cli.cache.* counts

    @property
    def wall(self) -> float:
        return sum(self.steps.values())

    def scaled(self) -> dict:
        """Step times in reference seconds."""
        every = [x for samples in self.samples.values() for x in samples]
        return {step: seconds * speed.scale(self.samples[step], every)
                for step, seconds in self.steps.items()}


def setup(workload: str, seed: int) -> Context:
    """Import the package from the checkout, generate the specs and load
    the expected values."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    modules = {name: importlib.import_module("gradedlie." + name)
               for name in MODULES}
    origin = os.path.abspath(sys.modules["gradedlie"].__file__)
    if not origin.startswith(src + os.sep):
        raise BenchError("gradedlie imported from %s, not from %s"
                         % (origin, src))
    cases = ladder.WORKLOADS[workload]
    specs = {case.id: case.spec_json() for case in cases}
    expected = oracle.load_expected(os.path.join(HERE, "expected.json"),
                                    cases)
    return Context(modules, cases, specs, expected, random.Random(seed),
                   seed)


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    try:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
    except subprocess.SubprocessError as exc:
        raise BenchError("set-up sample failed: %s" % exc) from exc
    return float(done.stdout.split()[-1])


# -- running cases ----------------------------------------------------------


def call_cli(ctx: Context, argv: list) -> tuple:
    """Run ``gradedlie argv`` in-process.  Returns its seconds less the
    time spent in speed probes, the probes' samples, the exit code, and
    the captured standard output and error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with speed.Probe() as probe:
            start = time.perf_counter()
            code = ctx.modules["cli"].main(argv)
            seconds = time.perf_counter() - start
    return (seconds - probe.handler_s, probe.samples, code,
            out.getvalue(), err.getvalue())


def canonical(text: str) -> tuple:
    """The report and its text without ``provenance.timing_seconds``, the
    one field allowed to differ between runs."""
    report = json.loads(text)
    report["provenance"].pop("timing_seconds")
    return report, json.dumps(report, sort_keys=True)


def cache_files(directory: str) -> dict:
    out = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            st = os.stat(path)
            out[os.path.relpath(path, directory)] = (
                st.st_ino, st.st_size, st.st_mtime_ns)
    return out


def cache_counts(before: dict, after: dict) -> dict:
    """Cache traffic of one call, read from the directory: files and bytes
    written, and per command directory a hit (present before, untouched)
    or a miss (written)."""
    written = [p for p, v in after.items() if before.get(p) != v]
    touched = {os.path.dirname(p) for p in written}
    present = {os.path.dirname(p) for p in before}
    return {"hits": len(present - touched), "misses": len(touched),
            "files_written": len(written),
            "bytes_written": sum(after[p][1] for p in written)}


def run_step(ctx: Context, step: str, case, argv: list) -> tuple:
    """One CLI call, checked; returns its seconds and speed samples.
    Failures are counted, never raised."""
    ctx.attempted += 1
    problems = []
    seconds, samples = 0.0, []
    ctx.tracer.case = step
    try:
        seconds, samples, code, out, err = call_cli(ctx, argv)
        if code != 0:
            problems.append("exit code %d: %s" % (code, err.strip()))
        else:
            report, text = canonical(out)
            problems += oracle.check_report(case.command, report,
                                            ctx.expected[case.id])
            reference = ctx.references.setdefault(step, text)
            if text != reference:
                problems.append("report differs from the reference run")
    except Exception:
        problems.append(traceback.format_exc())
    if problems:
        ctx.failed += 1
        print("FAILED %s: %s" % (step, "; ".join(problems)), file=sys.stderr)
    return seconds, samples


def _isolated(directory: str) -> None:
    os.makedirs(directory)
    os.environ["GRADEDLIE_CACHE_DIR"] = directory


def no_cache_pass(ctx: Context) -> Pass:
    directory = os.path.join(ctx.workdir, "cache-unused")
    result = Pass()
    order = list(ctx.cases)
    ctx.rng.shuffle(order)
    for case in order:
        result.steps[case.id], result.samples[case.id] = run_step(
            ctx, case.id, case, case.argv(ctx.specs[case.id]))
        if os.listdir(directory):
            raise BenchError("case %s wrote to the cache under --no-cache"
                             % case.id)
    return result


def rerun_pass(ctx: Context, number: int) -> Pass:
    """check-all cold, warm, then on a wider window, against one new
    empty cache directory.  The warm step is the median of WARM_READS
    calls, since one read takes only milliseconds."""
    (case,) = ctx.cases
    directory = os.path.join(ctx.workdir, "cache-%d" % number)
    _isolated(directory)
    spec = ctx.specs[case.id]
    plan = (("cold", case.argv(spec, no_cache=False)),
            ("warm", case.argv(spec, no_cache=False)),
            ("widen", case.argv(spec, no_cache=False,
                                degrees=ladder.RERUN_WIDEN)))
    result = Pass(cache=dict.fromkeys(
        ("hits", "misses", "files_written", "bytes_written"), 0))
    for step, argv in plan:
        before = cache_files(directory)
        if step == "cold" and before:
            raise BenchError("cold case found a non-empty cache")
        calls = [run_step(ctx, step, case, argv)
                 for _ in range(WARM_READS if step == "warm" else 1)]
        result.steps[step] = statistics.median(s for s, _ in calls)
        result.samples[step] = [x for _, samples in calls for x in samples]
        counts = cache_counts(before, cache_files(directory))
        if step == "cold" and counts["hits"]:
            raise BenchError("cold case read from the cache")
        for key, value in counts.items():
            result.cache[key] += value
    shutil.rmtree(directory)
    return result


def rerun_references(ctx: Context) -> None:
    """--no-cache reports that cold, warm and widen must equal."""
    (case,) = ctx.cases
    _isolated(os.path.join(ctx.workdir, "cache-unused"))
    spec = ctx.specs[case.id]
    for steps, argv in ((("cold", "warm"), case.argv(spec)),
                        (("widen",), case.argv(
                            spec, degrees=ladder.RERUN_WIDEN))):
        code, out, err = call_cli(ctx, argv)[2:]
        if code != 0:
            raise BenchError("--no-cache reference run failed: %s" % err)
        text = canonical(out)[1]
        for step in steps:
            ctx.references[step] = text


# -- metrics ----------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(aggregate: dict, cache: dict) -> dict:
    """Flat per-layer values of one traced pass."""
    out = {}
    for name, entry in aggregate.items():
        for key in ("calls", "s", "self_s"):
            out["%s.%s" % (name, key)] = entry[key]
        for key, value in entry["counts"].items():
            out["%s.%s" % (name, key)] = value
    cand = out.get("cartan.local_cartanification.candidates", 0)
    out["cartan.local_cartanification.useful_ratio"] = _ratio(
        cand - out.get("cartan.local_cartanification.kernel_dim", 0), cand)
    out["graded.minimal_extension.useful_ratio"] = _ratio(
        out.get("graded.minimal_extension.new_dims", 0),
        out.get("graded.minimal_extension.tensor_candidates", 0))
    out["tha.build_minus1.useful_ratio"] = _ratio(
        out.get("tha.build_minus1.dim", 0),
        out.get("tha.build_minus1.cells_created", 0))
    for key, value in cache.items():
        out["cli.cache." + key] = value
    return {name: out.get(name, 0) for name, _ in PER_LAYER
            if not name.startswith("trace.")}


def run_workload(ctx: Context, workload: str, seconds: float,
                 traced: bool) -> tuple:
    """Passes while the next one is expected to end within ``seconds``;
    traced runs alternate plain and traced passes, starting with a plain
    one, and make at least one of each.  Returns (plain passes, traced
    passes with their per-layer values)."""
    if workload == "rerun":
        rerun_references(ctx)
    else:
        _isolated(os.path.join(ctx.workdir, "cache-unused"))
    tracer = ctx.tracer = spans.Tracer(ctx.modules)
    plain, traced_passes = [], []
    start = time.perf_counter()
    number = 0
    while True:
        use_tracer = traced and number % 2 == 1
        first_span = len(tracer.spans)
        if use_tracer:
            tracer.install()
        try:
            result = (rerun_pass(ctx, number) if workload == "rerun"
                      else no_cache_pass(ctx))
        finally:
            tracer.uninstall()
        number += 1
        if use_tracer:
            traced_passes.append((result, layer_values(
                spans.aggregate(tracer.spans[first_span:], first_span),
                result.cache)))
        else:
            plain.append(result)
        walls = [p.wall for p in plain] + [p.wall for p, _ in traced_passes]
        if (time.perf_counter() - start + statistics.median(walls) > seconds
                and (traced_passes or not traced)):
            break
    if traced:
        os.makedirs(SCRATCH, exist_ok=True)
        tracer.dump(os.path.join(
            SCRATCH, "spans-%s-%d.jsonl" % (workload, ctx.seed)))
    return plain, traced_passes


def end_to_end(plain: list, setup_s: float) -> dict:
    median = statistics.median
    scaled = [p.scaled().values() for p in plain]
    return {
        "wall_s": median(sum(s) for s in scaled),
        "max_case_s": median(max(s) for s in scaled),
        "min_case_s": median(min(s) for s in scaled),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(ctx: Context, plain: list, traced: list) -> dict:
    median = statistics.median
    values = {}
    units = dict(PER_LAYER)
    first = traced[0][1]
    for name in first:
        if units[name] == "s":
            values[name] = median(v[name] for _, v in traced)
        else:
            values[name] = first[name]
            if any(v[name] != first[name] for _, v in traced):
                ctx.failed += 1
                print("FAILED: %s differs between traced passes" % name,
                      file=sys.stderr)
    traced_wall = median(sum(p.scaled().values()) for p, _ in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - median(
        sum(p.scaled().values()) for p in plain)
    return values


def summary(workload: str, ctx: Context, plain: list, values: dict,
            units: dict) -> None:
    """Human-readable lines before the JSON result: fail_frac, each step
    (for rerun: cold_s, warm_s, widen_s) raw and scaled, then the
    metrics."""
    median = statistics.median
    print("workload %s: %d plain passes, %d cases attempted, %d failed, "
          "fail_frac %.4f; speed probe median %.6f s"
          % (workload, len(plain), ctx.attempted, ctx.failed,
             _ratio(ctx.failed, ctx.attempted),
             median(x for p in plain for s in p.samples.values()
                    for x in s)))
    print("  pass wall (raw)  median %.4f s" % median(p.wall for p in plain))
    scaled = [p.scaled() for p in plain]
    for step in plain[0].steps:
        print("  %-14s median %.4f s raw, %.4f ref_s"
              % (step + "_s" if workload == "rerun" else step,
                 median(p.steps[step] for p in plain),
                 median(s[step] for s in scaled)))
    for name, value in values.items():
        print("  %-46s %s %s" % (name, value, units[name]))


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(ladder.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        ctx = setup(args.workload, args.seed)
    except ImportError as exc:
        print("cannot import gradedlie from %s: %s"
              % (os.path.join(ROOT, "src"), exc), file=sys.stderr)
        return 2
    except (BenchError, oracle.ExpectedError) as exc:
        print("set-up failed: %s" % exc, file=sys.stderr)
        return 2
    own_setup = time.perf_counter() - started
    if args.setup_only:
        print(own_setup)
        return 0

    ctx.workdir = os.path.join(SCRATCH, "run-%d" % os.getpid())
    try:
        setup_times = [own_setup] + [
            setup_sample(args.workload, args.seed)
            for _ in range(SETUP_SAMPLES - 1)]
        plain, traced = run_workload(ctx, args.workload, args.seconds,
                                     bool(args.trace))
    except BenchError as exc:
        print("benchmark stopped: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        os.environ.pop("GRADEDLIE_CACHE_DIR", None)

    if args.trace:
        values, table = per_layer(ctx, plain, traced), PER_LAYER
    else:
        values = end_to_end(plain, statistics.median(setup_times))
        table = END_TO_END
    units = dict(table)
    summary(args.workload, ctx, plain, values, units)
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name, _ in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
