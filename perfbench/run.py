"""The bimatrix benchmark: seeded, closed-loop workloads with checked outputs.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload solve-generic --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --out a.json
    python3 perfbench/run.py --compare a.json b.json

One client runs ops back to back in a single thread (the cli workload runs one
subprocess at a time). A run repeats whole passes over the seeded corpus until
`--seconds` is used up, so every run measures the same mix of ops. Outputs are
checked by `checker` after the timed loop. `--trace 0` reports the end-to-end
metrics; `--trace 1` runs an untraced and then a traced half and reports the
per-layer self times. The last stdout line is the JSON result; the lines
before it hold the full document with provenance, corpus and digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("solve-generic", "solve-degenerate", "pure-sweep", "cli")
SETUP_REPEATS = 5
# Warm-up runs the cheapest items of a pass once before timing.
WARMUP_ITEMS = {"solve-generic": 12, "solve-degenerate": 12, "pure-sweep": 12, "cli": 1}
CLI_REFERENCE_RUNS = 10

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SHAPES = ("2x2", "3x3", "4x4", "5x5", "6x6", "2x6", "3x5", "6x3")
FORMAT_NAMES = ("table", "csv", "json")
CLI_COMMANDS = ("pd", "gpd", "solve", "verify", "reduce", "sweep")
PER_LAYER = {
    **{f"equilibrium.mixed.ms.{shape}": "ms" for shape in SHAPES},
    "equilibrium.mixed.us_per_pair": "us",
    "equilibrium.mixed.pairs": "count",
    "equilibrium.mixed.found_per_pair": "ratio",
    "equilibrium.degenerate_share": "ratio",
    "equilibrium.pure.us": "us",
    "equilibrium.dominance.us": "us",
    "formats.parse_game.us": "us",
    "formats.serialize_game.us": "us",
    "formats.game_to_json.us": "us",
    **{f"formats.emit_report.{fmt}.us": "us" for fmt in FORMAT_NAMES},
    **{f"formats.emit_sweep.{fmt}.ms": "ms" for fmt in FORMAT_NAMES},
    "core.make_game.us": "us",
    **{f"dilemma.generalized_pd.{kind}.us": "us" for kind in ("mixture", "pessimistic", "optimistic")},
    "dilemma.sweep_mixture.us_per_row": "us",
    "dilemma.mixture_consistency.us": "us",
    "dilemma.reduce_to_classical.us": "us",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.{command}.ms": "ms" for command in CLI_COMMANDS},
    "cli.exit_nonzero": "count",
    **{f"{workload}.other_ms": "ms" for workload in WORKLOADS},
    "trace.overhead_ratio": "ratio",
}


LOOP = """
acc = Fraction(0)
for k in range(1, 200):
    a, b = Fraction(k, k + 7), Fraction(3 * k + 1, 2 * k + 5)
    acc = (acc + a * b - b / (a + 1)) / 2
"""
# The stdlib modules the CLI imports, then the loop 16 times: a process that
# splits its time between start-up and computing much as a CLI command does,
# and runs no package code.
STDLIB_RUN = (
    "import argparse, csv, dataclasses, io, json, re, pathlib, typing\n"
    "from fractions import Fraction\n"
    f"for _ in range(16):\n    exec({LOOP!r})\n"
)


_LOOP_CODE = compile(LOOP, "<reference loop>", "exec")


def fraction_loop() -> float:
    """Seconds for a fixed stdlib Fraction loop that shares no code with the package."""
    t0 = time.perf_counter()
    exec(_LOOP_CODE, {"Fraction": Fraction})
    return time.perf_counter() - t0


def stdlib_process() -> float:
    """Seconds for a `python -c` process that imports the CLI's stdlib modules and runs the loop."""
    import workloads

    t0 = time.perf_counter()
    workloads.run_process([sys.executable, "-c", STDLIB_RUN], check=True)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Reference:
    """A fixed piece of work timed between ops, to scale op times by.

    The speed of a core on the shared VM this benchmark was built on swings by
    up to 1.6x over seconds. Each op time is multiplied by `nominal_s` over
    the median of the REFERENCE_WINDOW samples before and after it, so times
    are in units of a core on which the reference takes `nominal_s` (its time
    on that VM, idle, with Python 3.11.7). Raw times stay in the result
    document. An in-process loop tracks in-process ops; a subprocess is
    tracked far better by a process of the same shape than by the loop.
    """

    measure: Callable[[], float]
    nominal_s: float
    period_s: float  # least time between two samples


IN_PROCESS = Reference(fraction_loop, 0.0025, 0.1)
SUBPROCESS = Reference(stdlib_process, 0.12, 0.7)
REFERENCE_WINDOW = 3


class Run:
    """The ops of one timed loop, with reference samples taken between them."""

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.durations: list[float] = []
        # (corpus index, output text or its sha256 digest, payload, error)
        self.outcomes: list[tuple[int, str | bytes | None, object, str | None]] = []
        self.samples: list[float] = []
        # Number of reference samples taken before each op ended.
        self.sampled_before: list[int] = []
        self.passes = 0

    def scales(self) -> list[float]:
        """Per op: the nominal reference time over the median of the samples around it."""
        out = []
        for before in self.sampled_before:
            window = self.samples[max(0, before - REFERENCE_WINDOW): before + REFERENCE_WINDOW]
            out.append(self.reference.nominal_s / statistics.median(window))
        return out

    def scaled(self) -> list[float]:
        return [d * f for d, f in zip(self.durations, self.scales())]


def measure(items: list, budget: float, reference: Reference, span, traced: bool, tracer=None) -> Run:
    """Whole passes over the corpus until the next one would end past the budget."""
    run, checked = Run(reference), set()
    start = last_sample = time.perf_counter()
    run.samples.append(reference.measure())
    while True:
        pass_start = time.perf_counter()
        for index, item in enumerate(items):
            if tracer is not None:
                tracer.op = len(run.durations)
            t0 = time.perf_counter()
            try:
                with span("op"):
                    text, payload = item.run(span, traced)
                error = None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                text, payload, error = None, None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            run.durations.append(t1 - t0)
            run.sampled_before.append(len(run.samples))
            if t1 - last_sample >= reference.period_s:
                run.samples.append(reference.measure())
                last_sample = time.perf_counter()
            # Only the first successful output of each item is checked in full;
            # later ones must repeat its bytes. They are kept as digests, and one
            # payload per item is kept, so memory does not grow with the run.
            if text is not None and index not in checked:
                checked.add(index)
            else:
                payload = None
                if text is not None:
                    text = _sha256(text)
            run.outcomes.append((index, text, payload, error))
        run.passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 >= budget:
            run.samples.append(reference.measure())
            return run


def _sha256(text: str) -> bytes:
    return hashlib.sha256(text.encode("utf-8")).digest()


def evaluate(items: list, runs: list[Run]) -> dict:
    """Check every op; digest the first output of each item in corpus order."""
    failures: list[str] = []
    first: dict[int, str] = {}
    first_sha: dict[int, bytes] = {}
    payloads: dict[int, object] = {}
    for run in runs:
        for index, text, payload, error in run.outcomes:
            item = items[index]
            if error is not None:
                problems = [error]
            elif index not in first:
                first[index], payloads[index], first_sha[index] = text, payload, _sha256(text)
                try:
                    problems = item.problems(text, payload)
                except Exception as exc:  # a malformed output must fail the op, not the run
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            elif (text if isinstance(text, bytes) else _sha256(text)) != first_sha[index]:
                problems = ["output differs from an earlier run of the same input"]
            else:
                problems = []
            if problems:
                failures.append(f"item {index} ({item.label}): {'; '.join(problems)}")
    digest = hashlib.sha256()
    for index in range(len(items)):
        data = first.get(index, "<no output>").encode("utf-8")
        digest.update(len(data).to_bytes(8, "big") + data)
    return {"failures": failures, "digest": digest.hexdigest(), "payloads": payloads}


def corpus_summary(items: list, payloads: dict) -> dict:
    classes: dict[str, int] = {}
    for item in items:
        classes[item.label] = classes.get(item.label, 0) + 1
    flags = [payloads[k].degenerate for k, item in enumerate(items) if hasattr(item, "shape") and k in payloads]
    return {
        "ops_per_pass": len(items),
        "classes": dict(sorted(classes.items())),
        # Random draws the corpus left out because analyze could raise on them.
        "rejected_draws": sum(getattr(item, "rejected", 0) for item in items),
        "degenerate_share": sum(flags) / len(flags) if flags else None,
    }


def _pairs(shape: tuple[int, int]) -> int:
    # Support pairs that support enumeration examines, computed, not counted.
    return (2 ** shape[0] - 1) * (2 ** shape[1] - 1)


def cli_reference_ms(runs: int) -> tuple[float, float]:
    """Median ms of `python -c pass` and of `import bimatrix.cli`, run alternately."""
    import workloads

    times: dict[str, list[float]] = {"pass": [], "import bimatrix.cli": []}
    for _ in range(runs):
        for code, samples in times.items():
            t0 = time.perf_counter()
            workloads.run_process([sys.executable, "-c", code], env=workloads.cli_env(), check=True)
            samples.append(time.perf_counter() - t0)
    interpreter, imported = (statistics.median(samples) * 1e3 for samples in times.values())
    return interpreter, imported


def layer_metrics(workload: str, items: list, tracer, base: Run, traced: Run, payloads: dict, cli_ref) -> dict:
    # Span times are scaled like op times, by the scale of the op they belong to.
    scales = traced.scales()
    totals = tracer.totals(scales)
    self_ns = tracer.self_ns(scales)
    out = {name: 0.0 for name in PER_LAYER}

    def mean(span: str, scale: float) -> float:
        total, count = totals.get(span, (0, 0))
        return total / count * scale if count else 0.0

    for name in PER_LAYER:
        stem, _, unit = name.rpartition(".")
        if unit in ("us", "ms") and stem in totals:
            out[name] = mean(stem, 1e-3 if unit == "us" else 1e-6)

    mixed_ns: dict[str, list[float]] = {}
    pairs_ns = pairs_timed = 0
    for row, own in zip(tracer.rows, self_ns):
        if row[0] == "equilibrium.mixed":
            shape = items[traced.outcomes[row[4]][0]].shape
            mixed_ns.setdefault(f"{shape[0]}x{shape[1]}", []).append(own)
            pairs_ns += own
            pairs_timed += _pairs(shape)
    for shape, values in mixed_ns.items():
        out[f"equilibrium.mixed.ms.{shape}"] = sum(values) / len(values) * 1e-6
    solved = [(items[k], p) for k, p in payloads.items() if getattr(p, "mixed", None) is not None]
    if solved:
        pairs = sum(_pairs(item.shape) for item, _ in solved)
        out["equilibrium.mixed.pairs"] = float(sum(_pairs(item.shape) for item in items))
        out["equilibrium.mixed.found_per_pair"] = sum(len(p.mixed) for _, p in solved) / pairs
        out["equilibrium.degenerate_share"] = sum(bool(p.degenerate) for _, p in solved) / len(solved)
    if pairs_timed:
        out["equilibrium.mixed.us_per_pair"] = pairs_ns / pairs_timed * 1e-3

    rows_swept = sum(items[index].steps + 1 for index, *_ in traced.outcomes if hasattr(items[index], "steps"))
    if rows_swept:
        out["dilemma.sweep_mixture.us_per_row"] = totals["dilemma.sweep_mixture"][0] / rows_swept * 1e-3
    out[f"{workload}.other_ms"] = mean("op", 1e-6)
    out["trace.overhead_ratio"] = statistics.fmean(traced.scaled()) / statistics.fmean(base.scaled())
    if cli_ref is not None:
        interpreter, imported = cli_ref
        out["cli.interpreter_ms"] = interpreter
        out["cli.import_ms"] = imported - interpreter
        out["cli.exit_nonzero"] = float(sum(
            1 for *_, error in base.outcomes + traced.outcomes if error and error.startswith("NonzeroExit")
        ))
    return out


def op_stats(durations: list[float]) -> dict:
    return {
        # One client, so throughput is ops over the summed op time; reference
        # samples and bookkeeping between ops are left out.
        "ops_per_s": len(durations) / sum(durations),
        "op_ms.p50": statistics.median(durations) * 1e3,
        "op_ms.p90": statistics.quantiles(durations, n=10)[8] * 1e3,
    }


def end_to_end_metrics(run: Run, failed: int, setup_s: float, workload: str) -> dict:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        **op_stats(run.scaled()),
        "ok_ratio": 1 - failed / len(run.durations),
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "bimatrix").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, import_s: float, small: bool = False) -> dict:
    """Set up, measure and check one workload; return its result document."""
    import spans
    import workloads

    build = workloads.BUILDERS[workload]
    reference = SUBPROCESS if workload == "cli" else IN_PROCESS
    workdirs = []
    try:
        setups, samples = [], [fraction_loop()]
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workdirs.append(Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)))
            items = build(random.Random(f"{workload}:{seed}"), small, workdirs[-1])
            warmup = min(WARMUP_ITEMS[workload], len(items) // 4)
            for item in sorted(items, key=lambda item: item.weight)[:warmup]:
                item.run(spans.no_span, False)
            setups.append(time.perf_counter() - t0)
            samples.append(fraction_loop())
        setup_raw_s = import_s + statistics.median(setups)
        setup_s = setup_raw_s * IN_PROCESS.nominal_s / statistics.median(samples)

        if trace:
            cli_ref = None
            if workload == "cli":
                runs = 2 if small else CLI_REFERENCE_RUNS
                cli_ref = cli_reference_ms(runs)
            base = measure(items, seconds / 2, reference, spans.no_span, False)
            tracer = spans.Tracer()
            traced = measure(items, seconds / 2, reference, tracer.span, True, tracer)
            runs = [base, traced]
        else:
            runs = [measure(items, seconds, reference, spans.no_span, False)]
        result = evaluate(items, runs)
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)

    failures = result["failures"]
    attempted = sum(len(run.durations) for run in runs)
    if trace:
        metrics = layer_metrics(workload, items, tracer, base, traced, result["payloads"], cli_ref)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(runs[0], len(failures), setup_s, workload)
        units = END_TO_END
        raw = {**op_stats(runs[0].durations), "setup_s": setup_raw_s,
               "reference_ms.p50": statistics.median(runs[0].samples) * 1e3}
    doc = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(seed),
        "corpus": corpus_summary(items, result["payloads"]),
        "digest": result["digest"],
        "passes": [run.passes for run in runs],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    if trace:
        doc["spans"] = tracer.rows
    else:
        doc["unscaled"] = raw
    return doc


def compare(path_a: str, path_b: str) -> int:
    """Name the workloads whose digests differ between two --out files."""
    digests = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            digests.append({(d["workload"], d["seed"]): d["digest"] for d in json.load(handle)["results"]})
    differ = sorted({key for key in digests[0].keys() | digests[1].keys() if digests[0].get(key) != digests[1].get(key)})
    for workload, seed in differ:
        print(f"digest differs: {workload} (seed {seed})")
    if not differ:
        print("all digests match")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result documents, spans included, to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar="RESULT", help="compare the digests of two --out files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    if not (SRC / "bimatrix" / "__init__.py").is_file():
        print(f"error: no bimatrix package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # One core for the client, its subprocesses and the reference samples, so
    # that the samples see the speed the ops saw.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: F401  (imports the package under test)

    import_s = time.perf_counter() - t0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    docs = [run_workload(name, args.seed, args.seconds, bool(args.trace), import_s) for name in names]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"results": docs}, handle)
    for doc in docs:
        print(json.dumps({k: v for k, v in doc.items() if k != "spans"}, indent=1))
    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {f"{d['workload']}.{name}": m for d in docs for name, m in d["metrics"].items()}
        for name, metric in metrics.items():
            print(f"{name:48s} {metric['value']:>14.6g} {metric['unit']}")
    failed = sum(d["failed"] for d in docs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(d["attempted"] for d in docs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
