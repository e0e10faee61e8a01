"""CI regression gate: fail when any benchmark workload regresses >N×.

Compares a freshly measured harness JSON against the checked-in
baseline.  The baseline is a *convention*, not a hard-coded name: the
highest-numbered ``BENCH_pr*.json`` in the repository root is the
baseline, so each PR's checked-in numbers automatically become the next
PR's gate (override with ``--baseline``).

Rows are matched by their *identity fields* (everything that is not a
timing metric); timing metrics are the keys ending in ``_ms``/``_us``/
``seconds``.  Rows present on only one side are reported but do not
fail the gate — workloads are allowed to be added or retired.

Because each PR is gated against the latest file only, a slow drift
could compound across PRs unseen.  So every timing metric is also
reported against its best value across *all* checked-in
``BENCH_pr*.json`` files.  That report never fails the run.

Usage::

    python benchmarks/harness.py --json BENCH_fresh.json
    python benchmarks/check_regression.py BENCH_fresh.json
    python benchmarks/check_regression.py fresh.json --baseline old.json --tolerance 2.5
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

#: sections whose rows carry timing metrics worth gating
GATED_SECTIONS = (
    "performance",
    "engine",
    "columnar",
    "oracle_parallel",
    "homs",
    "serving",
    "serving_durable",
    "replication",
    "qos",
)

#: a timing metric is any numeric field with one of these suffixes
TIMING_SUFFIXES = ("_ms", "_us", "seconds")

#: metrics below this are noise-dominated on shared CI runners; skip them
MIN_GATED_MS = 0.5

#: the baseline naming convention: BENCH_pr<N>.json, highest N wins
BASELINE_PATTERN = re.compile(r"^BENCH_pr(\d+)\.json$")


def checked_in(root: Path, exclude: Path | None = None) -> list[Path]:
    """Every ``BENCH_pr*.json`` under ``root``, lowest number first."""
    found = []
    for path in root.iterdir():
        match = BASELINE_PATTERN.match(path.name)
        if not match:
            continue
        if exclude is not None and path.resolve() == exclude.resolve():
            continue
        found.append((int(match.group(1)), path))
    return [path for _, path in sorted(found)]


def latest_baseline(root: Path, exclude: Path | None = None) -> Path:
    """The highest-numbered ``BENCH_pr*.json`` under ``root``."""
    paths = checked_in(root, exclude)
    if not paths:
        raise SystemExit(
            f"no BENCH_pr*.json baseline found in {root} — pass --baseline"
        )
    return paths[-1]


def _is_timing(key: str) -> bool:
    return any(key.endswith(suffix) for suffix in TIMING_SUFFIXES)


def _identity(row: dict) -> tuple:
    return tuple(
        sorted((k, repr(v)) for k, v in row.items() if not _is_timing(k))
    )


def _to_ms(key: str, value: float) -> float:
    if key.endswith("_us"):
        return value / 1000.0
    if key.endswith("seconds"):
        return value * 1000.0
    return value


def _timings(bench: dict):
    """``(section, identity, key, value)`` for every gated timing metric."""
    for section in GATED_SECTIONS:
        for row in bench.get(section, []):
            ident = _identity(row)
            for key, value in row.items():
                if _is_timing(key) and isinstance(value, (int, float)) and value > 0:
                    yield section, ident, key, value


def best_of_history(history: dict[str, dict], fresh: dict) -> list[str]:
    """Each fresh timing metric against its best value in ``history``.

    ``history`` maps file names to harness JSON.  Report only: the
    lines say how far each row is from the best any checked-in run
    recorded, and in which file; files measured with a different
    ``quick`` setting are left out.
    """
    quick = fresh.get("meta", {}).get("quick")
    best: dict[tuple, tuple[float, str]] = {}
    for name, bench in history.items():
        if bench.get("meta", {}).get("quick") != quick:
            continue
        for section, ident, key, value in _timings(bench):
            entry = (section, ident, key)
            if entry not in best or value < best[entry][0]:
                best[entry] = (value, name)
    lines = []
    for section, ident, key, value in _timings(fresh):
        entry = best.get((section, ident, key))
        if entry is None or _to_ms(key, entry[0]) < MIN_GATED_MS:
            continue
        best_value, name = entry
        lines.append(
            f"[{section}] {dict(ident)} {key}: {value:.3f} vs best "
            f"{best_value:.3f} in {name} ({value / best_value:.2f}×)"
        )
    return lines


def compare(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """Human-readable regression reports; empty = gate passes."""
    failures: list[str] = []
    base_quick = baseline.get("meta", {}).get("quick")
    fresh_quick = fresh.get("meta", {}).get("quick")
    if base_quick != fresh_quick:
        # quick and full runs measure different instance sizes under the
        # same row identity — comparing them would gate on noise
        print(
            f"note: baseline quick={base_quick} vs fresh quick={fresh_quick}; "
            "runs are not comparable, skipping the gate"
        )
        return failures
    for section in GATED_SECTIONS:
        base_rows = {_identity(r): r for r in baseline.get(section, [])}
        fresh_rows = {_identity(r): r for r in fresh.get(section, [])}
        for ident, fresh_row in fresh_rows.items():
            base_row = base_rows.get(ident)
            if base_row is None:
                print(f"note: [{section}] new workload row (no baseline): {dict(ident)}")
                continue
            for key, fresh_value in fresh_row.items():
                if not _is_timing(key) or not isinstance(fresh_value, (int, float)):
                    continue
                base_value = base_row.get(key)
                if not isinstance(base_value, (int, float)) or base_value <= 0:
                    continue
                if _to_ms(key, base_value) < MIN_GATED_MS:
                    continue  # sub-half-millisecond rows are timer noise
                ratio = fresh_value / base_value
                if ratio > tolerance:
                    failures.append(
                        f"[{section}] {dict(ident)} {key}: "
                        f"{base_value:.3f} → {fresh_value:.3f} ({ratio:.2f}× > {tolerance}×)"
                    )
        for ident in base_rows.keys() - fresh_rows.keys():
            print(f"note: [{section}] baseline row not measured this run: {dict(ident)}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly measured JSON")
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON (default: the highest-numbered BENCH_pr*.json "
        "in the repository root)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=2.0,
        help="fail when fresh > tolerance × baseline (default 2.0)",
    )
    args = parser.parse_args(argv)
    fresh_path = Path(args.fresh)
    root = Path(__file__).resolve().parent.parent
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
    else:
        baseline_path = latest_baseline(root, exclude=fresh_path)
        print(f"baseline (latest checked-in): {baseline_path.name}")
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(fresh_path, encoding="utf-8") as handle:
        fresh = json.load(handle)
    history = {}
    for path in checked_in(root, exclude=fresh_path):
        with open(path, encoding="utf-8") as handle:
            history[path.name] = json.load(handle)
    print("\nbest of history (report only; every checked-in BENCH_pr*.json):")
    for line in best_of_history(history, fresh):
        print("  " + line)
    failures = compare(baseline, fresh, args.tolerance)
    if failures:
        print(f"\nREGRESSION GATE FAILED ({len(failures)} metric(s) over {args.tolerance}×):")
        for failure in failures:
            print("  " + failure)
        return 1
    print(f"regression gate passed (tolerance {args.tolerance}×)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
