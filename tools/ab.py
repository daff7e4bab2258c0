"""Compare two ``slicemon`` trees on perfbench's library loop, interleaved in process.

    python tools/ab.py --base DIR --change DIR [--workload NAME ...]
                       [--seed N [N ...]] [--rounds N] [--passes N]

``DIR`` is a checkout; for the parent commit of this one, for example,
``git archive HEAD~1 | tar -x -C /tmp/parent`` makes one.  Each round runs
in a fresh process, which copies each tree's ``src/slicemon`` to a
temporary directory under its own package name, the base twice: the
second copy is an A/A control, whose ratios show the spread that no change
explains.  Every submodule is imported eagerly, so that no tree resolves a
name in another's modules.

The workloads are those of ``perfbench/workloads.py`` in this checkout,
read and never written: ``library_workloads(name, seed)``, the traces
perfbench's ``event_latency_p50_us`` and ``event_latency_p99_us`` time.
A pass is perfbench's library loop, ``check_event``, ``feed`` and
``render`` timed per event on a fresh engine, calling the tree's own
``feed``; its report lines must equal the workload's expected reports.
A round runs ``passes`` passes of each package over each trace,
interleaved in an order that rotates from pass to pass.  An event's
latency is the median over its passes, and a round's p50 and p99 are
taken over all events of the workload.  Each round measures every
workload on every seed given.

It prints one block per workload and seed: per round the base's p50 and
p99 and the ratios change/base and control/base; then their medians, the
rounds in which the change, or the control, read faster than the base
("wins"), and the quartiles of the base's own rounds.  Pin it to one CPU (``taskset -c 1``) for steadier
rounds; the rounds run one at a time.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import multiprocessing
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
NAMES = ("iterator-warm", "unsafeiter-join", "fresh-bindings")
#: The three packages of a round, in the order of its results.
PACKAGES = ("slicemon_ab_base", "slicemon_ab_change", "slicemon_ab_control")


def load_workloads():
    """``perfbench/workloads.py`` as a module; it imports nothing from slicemon."""
    spec = importlib.util.spec_from_file_location("ab_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up
    spec.loader.exec_module(module)
    return module


def load_tree(tree: Path, package: str, scratch: Path):
    """Copy ``tree``'s ``src/slicemon`` to ``scratch/package`` and import all of it."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(tree / "src" / "slicemon", scratch / package, ignore=ignore)
    for path in sorted((scratch / package).glob("*.py")):
        name = package if path.stem == "__init__" else "%s.%s" % (package, path.stem)
        importlib.import_module(name)
    return sys.modules[package]


def library_pass(package, spec, events, expected: list[str]) -> list[float]:
    """One pass of the library loop on a fresh engine; each event's latency in seconds."""
    clock = time.perf_counter
    engine = package.parametric.IndexedMonitor(spec.machine, trigger=spec.trigger)
    check_event, feed = spec.check_event, engine.feed
    lines, latencies = [], []
    for event in events:
        started = clock()
        check_event(event)
        for report in feed(event):
            lines.append(report.render())
        latencies.append(clock() - started)
    if lines != expected:
        raise SystemExit(
            "ab.py: %s printed %d report lines, %d expected"
            % (package.__name__, len(lines), len(expected))
        )
    return latencies


def percentiles(latencies: list[float]) -> tuple[float, float]:
    """p50 and p99 in microseconds, cut as perfbench cuts them."""
    cuts = statistics.quantiles(latencies, n=100)
    return cuts[49] * 1e6, cuts[98] * 1e6


def rotated(count: int, shift: int) -> list[int]:
    """``range(count)``, starting at ``shift`` and wrapping round."""
    shift %= count
    return [*range(shift, count), *range(shift)]


def measure(workloads, packages: list, name: str, seed: int, passes: int) -> list[tuple]:
    """The p50 and p99 of each package on one workload, passes interleaved."""
    inputs = []  # per trace: its expected reports, and per package its spec and parse
    for work in workloads.library_workloads(name, seed):
        text = workloads.render_trace(work.monitor_trace)
        inputs.append((work.reports, [
            (package.specfile.parse_property_spec(work.spec_text),
             package.events.parse_trace(text))
            for package in packages
        ]))
    per_package: list[list[float]] = [[] for _ in packages]
    for expected, parsed in inputs:
        runs: list[list[list[float]]] = [[] for _ in packages]
        for turn in range(passes):
            for k in rotated(len(packages), turn):
                spec, events = parsed[k]
                runs[k].append(library_pass(packages[k], spec, events, expected))
        for k, package_runs in enumerate(runs):
            per_package[k].extend(statistics.median(at) for at in zip(*package_runs))
    return [percentiles(latencies) for latencies in per_package]


def run_round(
    trees: list[str], names: list[str], seeds: list[int], passes: int, round_: int
) -> dict:
    """One round, in a fresh process: ``{(workload, seed): [(p50, p99) per package]}``.

    A process lays out each package's objects once, and that layout alone
    moved one package's p50 against an identical copy's by up to 5%, the
    same in every round of one process.  So every round gets a process of
    its own, and the packages are loaded in an order that rotates too.
    """
    sys.dont_write_bytecode = True  # write nothing under perfbench/ or into the copies
    workloads = load_workloads()
    scratch = Path(tempfile.mkdtemp(prefix="slicemon-ab-"))
    sys.path.insert(0, str(scratch))
    try:
        packages: list = [None] * len(PACKAGES)
        for k in rotated(len(PACKAGES), round_):
            packages[k] = load_tree(Path(trees[k]), PACKAGES[k], scratch)
        return {
            (name, seed): measure(workloads, packages, name, seed, passes)
            for name in names for seed in seeds
        }
    finally:
        sys.path.remove(str(scratch))
        shutil.rmtree(scratch, ignore_errors=True)


def report(name: str, seed: int, passes: int, results: list[list[tuple]]) -> None:
    """Print one workload's rounds, their medians and the change's and control's wins."""
    print("%s, seed %d, passes per round: %d" % (name, seed, passes))
    print("round  base p50 us  base p99 us  change/base p50  p99  control/base p50  p99")
    rows = []
    for round_, ((base50, base99), (change50, change99), (control50, control99)) in enumerate(
        results, 1
    ):
        row = (base50, base99, change50 / base50, change99 / base99,
               control50 / base50, control99 / base99)
        rows.append(row)
        print("%5d  %11.3f  %11.3f  %15.3f  %4.3f  %16.3f  %4.3f" % (round_, *row))
    medians = [statistics.median(column) for column in zip(*rows)]
    print("median %11.3f  %11.3f  %15.3f  %4.3f  %16.3f  %4.3f" % tuple(medians))
    wins = ["%d/%d" % (sum(1 for row in rows if row[i] < 1), len(rows)) for i in range(2, 6)]
    print("wins   %11s  %11s  %15s  %4s  %16s  %4s" % ("", "", *wins))
    if len(rows) > 1:
        for i, label in ((0, "p50"), (1, "p99")):
            q1, _, q3 = statistics.quantiles([row[i] for row in rows], n=4)
            print("base %s quartiles: %.3f-%.3f us" % (label, q1, q3))
    print()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="ab.py", description="Compare two slicemon trees in one process per round."
    )
    parser.add_argument("--base", type=Path, required=True, help="the checkout to compare against")
    parser.add_argument("--change", type=Path, required=True, help="the checkout to measure")
    parser.add_argument("--workload", action="append", choices=NAMES,
                        help="a perfbench workload, repeatable (default: all three)")
    parser.add_argument("--seed", type=int, nargs="+", default=[41],
                        help="the workload seeds (default 41)")
    parser.add_argument("--rounds", type=int, default=10, help="rounds (default 10)")
    parser.add_argument("--passes", type=int, default=5,
                        help="passes per package, trace and round (default 5)")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.passes < 1:
        parser.error("--rounds and --passes must be at least 1")
    for tree in (args.base, args.change):
        if not (tree / "src" / "slicemon" / "__init__.py").is_file():
            parser.error("no src/slicemon package in %s" % tree)
    base, change = str(args.base.resolve()), str(args.change.resolve())
    names = args.workload or list(NAMES)
    results: dict[tuple, list] = {(name, seed): [] for name in names for seed in args.seed}
    # One process per round, and only one at a time: the rounds are timed.
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        for round_ in range(args.rounds):
            found = pool.apply(
                run_round, ([base, change, base], names, args.seed, args.passes, round_)
            )
            for key, rounds in results.items():
                rounds.append(found[key])
    for (name, seed), rounds in results.items():
        report(name, seed, args.passes, rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
