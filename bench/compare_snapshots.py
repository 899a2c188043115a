#!/usr/bin/env python3
"""CI perf-regression gate over radiocast-bench snapshots.

Diffs a fresh ``radiocast_bench --json`` run against a committed snapshot
(bench/snapshots/BENCH_<tag>.json) per (scenario, family, n) key and fails
on order-of-magnitude wall-time regressions.

Raw wall times are not comparable across machines (the snapshot is recorded
on a developer box, the fresh run on a CI runner), so by default the gate
*calibrates*: it computes the per-key ratio fresh/baseline, takes the median
ratio as the machine-speed factor, and flags keys whose ratio exceeds
``factor * tolerance``.  A uniform slowdown (slower runner, debug build)
moves the median, not the verdict; a single scenario regressing 10x while
the rest hold still sticks out.  ``--no-calibrate`` compares absolute ratios
instead (useful when both documents come from the same machine).

Each document's header names the host and build it was recorded on
(``hw_threads``, ``cpu_model``, ``compiler``, ``build_type``, plus
``git_sha``).  When the two differ on any of the first four, or either
document predates those fields, a loud warning says that the verdict
compares different machines or builds; the gate itself is unchanged.

Keys whose wall time is below ``--min-wall-ns`` in *either* document are
skipped — sub-0.1ms samples are scheduler noise on shared CI runners.
Within a key, the minimum wall time across repetitions is used.

Exit status: 0 = no regression (or too few comparable keys to judge),
1 = regression found, 2 = usage/input error.
"""

import argparse
import json
import statistics
import sys

# Header fields that name the host and build a document was recorded on.
HOST_KEYS = ("hw_threads", "cpu_model", "compiler", "build_type")


def host_warnings(base_path, base_doc, fresh_path, fresh_doc):
    """Lines warning that the two documents come from different hosts or
    builds, or that one of them does not say; empty when both agree."""
    lines = []
    for path, doc in ((base_path, base_doc), (fresh_path, fresh_doc)):
        missing = [k for k in HOST_KEYS if k not in doc]
        if missing:
            lines.append(f"{path} lacks host fields: {', '.join(missing)}")
    for key in HOST_KEYS:
        if key in base_doc and key in fresh_doc:
            if base_doc[key] != fresh_doc[key]:
                lines.append(
                    f"{key} differs: {base_doc[key]!r} (baseline) vs "
                    f"{fresh_doc[key]!r} (fresh)"
                )
    return lines


def load_document(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    if doc.get("schema") != "radiocast-bench/1":
        sys.exit(f"error: {path} is not a radiocast-bench/1 document")
    return doc


def load_samples(doc, min_wall_ns):
    """Returns {(scenario, family, n): min wall_ns} for one document."""
    wall = {}
    not_ok = []
    for scenario in doc.get("scenarios", []):
        for s in scenario.get("samples", []):
            key = (s["scenario"], s["family"], s["n"])
            w = s["wall_ns"]
            if key not in wall or w < wall[key]:
                wall[key] = w
            if not s.get("ok", True):
                not_ok.append(key)
    return {k: w for k, w in wall.items() if w >= min_wall_ns}, not_ok


def main():
    ap = argparse.ArgumentParser(
        description="Diff a fresh bench JSON against a committed snapshot "
        "and fail on large wall-time regressions."
    )
    ap.add_argument("baseline", help="committed snapshot (the reference)")
    ap.add_argument("fresh", help="freshly produced bench JSON")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=3.0,
        help="max allowed per-key slowdown after calibration "
        "(default %(default)s; CI runners are noisy, keep it generous)",
    )
    ap.add_argument(
        "--min-wall-ns",
        type=int,
        default=100_000,
        help="skip keys faster than this in either document "
        "(default %(default)s ns)",
    )
    ap.add_argument(
        "--no-calibrate",
        action="store_true",
        help="compare absolute ratios instead of median-normalized ones",
    )
    ap.add_argument(
        "--min-keys",
        type=int,
        default=3,
        help="minimum comparable keys required to judge (default %(default)s)",
    )
    args = ap.parse_args()
    if args.tolerance <= 1.0:
        ap.error("--tolerance must be > 1.0")

    base_doc = load_document(args.baseline)
    fresh_doc = load_document(args.fresh)
    warnings = host_warnings(args.baseline, base_doc, args.fresh, fresh_doc)
    if warnings:
        print("!" * 72)
        print("WARNING: these documents may come from different hosts or "
              "builds;")
        print("wall-time ratios then mix machine and code differences.")
        for line in warnings:
            print(f"  {line}")
        print("!" * 72)
    print(
        f"git: {base_doc.get('git_sha', 'unknown')} (baseline) -> "
        f"{fresh_doc.get('git_sha', 'unknown')} (fresh)"
    )
    base, _ = load_samples(base_doc, args.min_wall_ns)
    fresh, fresh_not_ok = load_samples(fresh_doc, args.min_wall_ns)

    if fresh_not_ok:
        # The bench binary's exit code already gates invariant failures; this
        # is a secondary net for pre-recorded JSON artifacts.
        print(f"note: {len(fresh_not_ok)} fresh sample(s) carry ok=false "
              "(the bench run itself should have failed)")

    shared = sorted(set(base) & set(fresh))
    if len(shared) < args.min_keys:
        print(
            f"only {len(shared)} comparable key(s) between {args.baseline} "
            f"and {args.fresh} (need {args.min_keys}); skipping the gate"
        )
        return 0

    ratios = {k: fresh[k] / base[k] for k in shared}
    factor = 1.0 if args.no_calibrate else statistics.median(ratios.values())
    # A median below 1 means the fresh machine is faster; do not let that
    # tighten the gate beyond the raw tolerance.
    factor = max(factor, 1.0)

    limit = factor * args.tolerance
    offenders = sorted(
        ((r, k) for k, r in ratios.items() if r > limit), reverse=True
    )

    print(
        f"compared {len(shared)} keys  "
        f"(machine factor {factor:.2f}, tolerance {args.tolerance:.1f}x, "
        f"flag above {limit:.2f}x)"
    )
    worst = max(ratios.items(), key=lambda kv: kv[1])
    print(
        f"worst ratio {worst[1]:.2f}x at "
        f"{worst[0][0]}/{worst[0][1]} n={worst[0][2]}"
    )

    if not offenders:
        print("no wall-time regressions beyond tolerance")
        return 0

    print(f"\nREGRESSIONS ({len(offenders)}):")
    for r, (scenario, family, n) in offenders[:20]:
        print(
            f"  {r:8.2f}x  {scenario}/{family} n={n}  "
            f"{base[(scenario, family, n)]/1e6:.3f}ms -> "
            f"{fresh[(scenario, family, n)]/1e6:.3f}ms"
        )
    if len(offenders) > 20:
        print(f"  ... and {len(offenders) - 20} more")
    return 1


if __name__ == "__main__":
    sys.exit(main())
