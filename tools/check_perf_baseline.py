#!/usr/bin/env python3
"""check_perf_baseline: guard committed bench baselines against regressions.

Two baseline families, dispatched on the JSON ``schema`` field:

``fcm.bench.throughput.v2`` / ``...v3`` (batched ingest kernel + cache)
    Compares a freshly measured ``bench_throughput --scaling-only`` JSON
    against the committed ``BENCH_throughput.json``. Absolute packets/sec
    are machine-dependent and useless across CI runners, so the guard
    compares the in-run ``batch_speedup`` RATIO (batch pps / scalar pps,
    both best-of-N interleaved within one process on one machine — see
    EXPERIMENTS.md, throughput methodology). That ratio cancels CPU model
    and frequency, leaving the kernel's relative advantage.

    Checks:
      1. schema match between baseline and current run;
      2. serial (single-thread) batch_speedup must not fall more than
         ``--tolerance`` (default 15%) below the committed baseline's;
      3. serial batch_speedup must stay >= 1.0 (the batch path must never
         be slower than the scalar path it replaces).

    v3 adds the heavy-flow-cache study (DESIGN.md §12) and two checks on
    its in-run ``cache_speedup`` ratio (cache-on vs cache-off pps on the
    skewed Zipf-1.3 trace, same process, same machine):
      4. it must not fall more than ``--tolerance`` below the baseline's;
      5. it must stay >= 1.2 (the acceptance floor: an exact-match cache
         that does not beat the sketch walk by 20% on elephant-dominated
         traffic is not pulling its weight). Machine-local ratio, so this
         check stays fatal across machine classes.

    v5 adds the kernel-tier study (DESIGN.md §14) plus two provenance rules:
      9. the ``kernels`` section records every kernel tier's serial
         throughput, forced in-process; when both the scalar and avx2 rows
         are present, ``avx2_index_speedup_vs_scalar`` must stay >= 2.5
         (the ISSUE-10 acceptance floor — an in-run same-machine ratio, so
         fatal on every machine class) and >= 1.0 for the end-to-end ingest
         ratio (the AVX2 kernel must never lose to scalar);
      10. v5 baselines must carry real provenance: a committed baseline
         with ``git_rev: "unknown"`` is rejected outright (exit 2), and a
         current run with an unknown rev only warns (it cannot be blessed
         as a baseline without fixing the build first). Baseline-relative
         drift checks (serial batch_speedup, cache_speedup, sharded
         vs-serial ratios) FAIL instead of warning whenever the committed
         baseline itself has ``hardware_concurrency >= 2`` — those are
         in-run ratios, so a multi-core-provenance baseline makes them
         binding even when the current runner's core count differs.

    v4 adds the block-staged sharded hand-off columns (DESIGN.md §13) and a
    sharded-scaling section with its own provenance rule:
      6. the CURRENT run must have ``hardware_concurrency >= 2`` — on a
         single-core runner the sharded-scaling numbers measure nothing but
         scheduler round-robin, so this section FAILS outright (not a
         warning): a 1-core CI runner can never silently bless or re-pin a
         scaling baseline. (ISSUE 9 satellite; absolute pps stays warn-only
         across machine classes as before.)
      7. in-run floors, fatal on any multi-core machine: 1-shard sharded
         batch ingest >= 0.9x the serial batch path (the block hand-off tax
         cap) and 1-shard in-shard batch_speedup >= 1.4x (batching must
         survive the ring);
      8. aggregate scaling: 4-shard batch pps >= 1.6x 1-shard batch pps,
         enforced when the runner has >= 4 hardware threads (warned below
         that, where 4 workers cannot actually run in parallel).

``fcm.bench.agg.v1`` (aggregation service, DESIGN.md §11)
    Compares a fresh ``bench_agg`` JSON against ``BENCH_agg.json``.

    Checks:
      1. schema match;
      2. ``snapshot_bytes`` must match the baseline EXACTLY — the wire
         format is deterministic for a given seed and configuration, so any
         drift means the format (or the bench setup) changed and the
         baseline must be re-recorded deliberately;
      3. deliver/query p99 latency must not exceed the baseline by more
         than ``--latency-factor`` (default 3x). Latency is machine-bound,
         so this is generous by design;
      4. deliver/query p50 latency must not exceed the baseline by more
         than 2x. A p99 over 128 deliver samples
         spreads too widely between runs of one binary to catch a 2-3x
         slowdown; the median is stable enough to.

Core-count skew: both families record ``hardware_concurrency``. When the
current machine's core count differs from the one that recorded the
baseline, ratio/latency regressions DOWNGRADE to warnings (exit 0) — a
2-core runner measuring a baseline recorded on 8 cores proves nothing.
The machine-independent checks (speedup >= 1.0, exact snapshot_bytes)
stay fatal regardless.

Usage:  tools/check_perf_baseline.py BASELINE.json CURRENT.json
            [--tolerance F] [--latency-factor F]
Exit status: 0 pass (or warnings only), 1 regression, 2 usage/schema error.
"""

from __future__ import annotations

import argparse
import json
import sys

KNOWN_SCHEMAS = (
    "fcm.bench.throughput.v2",
    "fcm.bench.throughput.v3",
    "fcm.bench.throughput.v4",
    "fcm.bench.throughput.v5",
    "fcm.bench.agg.v1",
)
# Schemas whose committed baselines must carry real git provenance.
PROVENANCE_REQUIRED_SCHEMAS = ("fcm.bench.throughput.v5",)
CACHE_SPEEDUP_FLOOR = 1.2
# v5 kernel-tier floors (in-run same-machine ratios, DESIGN.md §14):
AVX2_INDEX_VS_SCALAR_FLOOR = 2.5  # hash+fast-range kernel, ISSUE-10 target
AVX2_INGEST_VS_SCALAR_FLOOR = 1.0  # end-to-end serial ingest sanity
# v4 sharded-scaling floors (in-run ratios, DESIGN.md §13 / ISSUE 9):
SHARDED_VS_SERIAL_FLOOR = 0.9  # 1-shard sharded batch vs serial batch
SHARDED_BATCH_SPEEDUP_FLOOR = 1.4  # in-shard batch vs scalar at 1 shard
SHARDED_4V1_FLOOR = 1.6  # 4-shard vs 1-shard aggregate batch pps
AGG_P50_FACTOR = 2.0  # deliver/query p50 ceiling over the committed p50


def load(path: str, *, is_baseline: bool = False) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_perf_baseline: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    schema = data.get("schema")
    if schema not in KNOWN_SCHEMAS:
        print(
            f"check_perf_baseline: {path} has schema {schema!r}, "
            f"expected one of {KNOWN_SCHEMAS} (re-record the baseline?)",
            file=sys.stderr,
        )
        sys.exit(2)
    if schema in PROVENANCE_REQUIRED_SCHEMAS:
        rev = data.get("git_rev")
        if rev in (None, "", "unknown"):
            if is_baseline:
                # A baseline nobody can trace to a commit can never be
                # diagnosed as stale; refuse it rather than guard against it.
                print(
                    f"check_perf_baseline: {path} has git_rev {rev!r} — "
                    "committed baselines must be recorded from a build with "
                    "real git provenance (re-run cmake in a git checkout and "
                    "re-record)",
                    file=sys.stderr,
                )
                sys.exit(2)
            print(
                f"check_perf_baseline: WARN — {path} has git_rev {rev!r}; "
                "this run cannot be blessed as a committed baseline",
                file=sys.stderr,
            )
    return data


def describe(tag: str, data: dict) -> None:
    cores = data.get("hardware_concurrency", "?")
    rev = data.get("git_rev", "?")
    print(f"{tag}: {cores} hardware threads, git rev {rev}")


def same_machine_class(baseline: dict, current: dict) -> bool:
    """True when the runs are comparable: both recorded a core count and it
    matches. Missing counts (pre-provenance baselines) compare as skewed."""
    base = baseline.get("hardware_concurrency")
    cur = current.get("hardware_concurrency")
    return base is not None and base == cur


def drift_is_fatal(baseline: dict, current: dict) -> bool:
    """Baseline-relative ratio drift fails (instead of warning) when the runs
    are the same machine class, OR when the committed baseline itself has
    multi-core provenance: the guarded quantities are in-run ratios that
    mostly cancel the machine, so a trustworthy (>= 2 core) baseline makes
    them binding everywhere. Single-core-provenance baselines keep the old
    warn-only behavior — they are the thing being phased out, not a license
    to ignore drift forever."""
    if same_machine_class(baseline, current):
        return True
    base_cores = baseline.get("hardware_concurrency")
    return base_cores is not None and base_cores >= 2


def check_throughput(baseline: dict, current: dict, args) -> int:
    base_ratio = baseline["serial"]["batch_speedup"]
    cur_ratio = current["serial"]["batch_speedup"]
    floor = base_ratio * (1.0 - args.tolerance)
    comparable = drift_is_fatal(baseline, current)

    print(
        f"serial batch_speedup: baseline {base_ratio:.3f}x, "
        f"current {cur_ratio:.3f}x, floor {floor:.3f}x "
        f"(tolerance {args.tolerance:.0%})"
    )

    failed = False
    if cur_ratio < floor:
        message = (
            f"serial batch_speedup {cur_ratio:.3f}x regressed more than "
            f"{args.tolerance:.0%} below the committed {base_ratio:.3f}x"
        )
        if comparable:
            print(f"check_perf_baseline: FAIL — {message}", file=sys.stderr)
            failed = True
        else:
            print(
                "check_perf_baseline: WARN — committed baseline has "
                "single-core provenance and the core count differs; not "
                f"failing on: {message}",
                file=sys.stderr,
            )
    if cur_ratio < 1.0:
        # Machine-local sanity: stays fatal even across machine classes.
        print(
            f"check_perf_baseline: FAIL — batch path is slower than scalar "
            f"({cur_ratio:.3f}x < 1.0x)",
            file=sys.stderr,
        )
        failed = True

    if baseline["schema"] in ("fcm.bench.throughput.v3",
                              "fcm.bench.throughput.v4",
                              "fcm.bench.throughput.v5"):
        base_cache = baseline["cache"]["cache_speedup"]
        cur_cache = current["cache"]["cache_speedup"]
        cache_floor = base_cache * (1.0 - args.tolerance)
        print(
            f"cache_speedup: baseline {base_cache:.3f}x, "
            f"current {cur_cache:.3f}x, floor {cache_floor:.3f}x "
            f"(hard floor {CACHE_SPEEDUP_FLOOR:.1f}x)"
        )
        if cur_cache < cache_floor:
            message = (
                f"cache_speedup {cur_cache:.3f}x regressed more than "
                f"{args.tolerance:.0%} below the committed {base_cache:.3f}x"
            )
            if comparable:
                print(f"check_perf_baseline: FAIL — {message}", file=sys.stderr)
                failed = True
            else:
                print(
                    "check_perf_baseline: WARN — committed baseline has "
                    "single-core provenance and the core count differs; not "
                    f"failing on: {message}",
                    file=sys.stderr,
                )
        if cur_cache < CACHE_SPEEDUP_FLOOR:
            # In-run ratio on one machine: fatal regardless of machine class.
            print(
                f"check_perf_baseline: FAIL — heavy-flow cache speedup "
                f"{cur_cache:.3f}x is below the {CACHE_SPEEDUP_FLOOR:.1f}x "
                "acceptance floor on the skewed trace",
                file=sys.stderr,
            )
            failed = True

    if baseline["schema"] in ("fcm.bench.throughput.v4",
                              "fcm.bench.throughput.v5"):
        if check_sharded_scaling(baseline, current, args):
            failed = True

    if baseline["schema"] == "fcm.bench.throughput.v5":
        if check_kernels(baseline, current):
            failed = True
    return 1 if failed else 0


def check_kernels(baseline: dict, current: dict) -> int:
    """The v5 kernel-tier section: the AVX2 kernel's in-run advantage over
    the forced scalar tier, same process, same machine — fatal everywhere."""
    failed = False
    kernels = current.get("kernels")
    if kernels is None:
        print(
            "check_perf_baseline: FAIL — v5 run is missing the kernels "
            "section (bench too old for the baseline schema?)",
            file=sys.stderr,
        )
        return 1

    tiers = {row["tier"]: row for row in kernels.get("tiers", [])}
    print(
        f"kernels: cpu_supports_avx2 {kernels.get('cpu_supports_avx2')}, "
        f"active tier {kernels.get('active_tier')!r}, rows "
        f"{sorted(tiers)}"
    )
    if not kernels.get("cpu_supports_avx2"):
        # Nothing to hold to the floor on a non-AVX2 machine; the dispatch
        # matrix tests still cover scalar/autovec equivalence there.
        print(
            "check_perf_baseline: NOTE — no AVX2 on this machine; skipping "
            "the kernel-speedup floors"
        )
        return 0
    if "scalar" not in tiers or "avx2" not in tiers:
        print(
            "check_perf_baseline: FAIL — AVX2-capable machine but the "
            "kernels section lacks a scalar+avx2 row pair (was the bench run "
            "with FCM_FORCE_KERNEL set?)",
            file=sys.stderr,
        )
        return 1

    index_speedup = kernels["avx2_index_speedup_vs_scalar"]
    ingest_speedup = kernels["avx2_ingest_speedup_vs_scalar"]
    print(
        f"avx2 vs scalar: index {index_speedup:.3f}x "
        f"(floor {AVX2_INDEX_VS_SCALAR_FLOOR:.1f}x), ingest "
        f"{ingest_speedup:.3f}x (floor {AVX2_INGEST_VS_SCALAR_FLOOR:.1f}x)"
    )
    if index_speedup < AVX2_INDEX_VS_SCALAR_FLOOR:
        print(
            f"check_perf_baseline: FAIL — AVX2 index kernel is only "
            f"{index_speedup:.3f}x the scalar tier, below the "
            f"{AVX2_INDEX_VS_SCALAR_FLOOR:.1f}x acceptance floor",
            file=sys.stderr,
        )
        failed = True
    if ingest_speedup < AVX2_INGEST_VS_SCALAR_FLOOR:
        print(
            f"check_perf_baseline: FAIL — AVX2 end-to-end serial ingest is "
            f"slower than the scalar tier ({ingest_speedup:.3f}x < "
            f"{AVX2_INGEST_VS_SCALAR_FLOOR:.1f}x)",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def check_sharded_scaling(baseline: dict, current: dict, args) -> int:
    """The v4 block-staged hand-off section: in-run ratio floors, plus the
    provenance rule that a single-core runner FAILS rather than warns."""
    failed = False
    cur_cores = current.get("hardware_concurrency")

    if cur_cores is None or cur_cores < 2:
        # The satellite fix: scheduling N workers onto one core measures
        # nothing about the hand-off, and warn-only behavior here is how the
        # repo's previous scaling baseline got recorded on a 1-core container.
        print(
            "check_perf_baseline: FAIL — sharded-scaling section requires "
            f"hardware_concurrency >= 2, current run has {cur_cores!r}; "
            "run the sharded guard on a multi-core machine (the rest of the "
            "guard already ran above)",
            file=sys.stderr,
        )
        return 1

    by_shards = {p["shards"]: p for p in current["sharded"]}
    base_by_shards = {p["shards"]: p for p in baseline["sharded"]}
    one = by_shards.get(1)
    if one is None:
        print(
            "check_perf_baseline: FAIL — sharded section has no 1-shard row",
            file=sys.stderr,
        )
        return 1

    print(
        f"sharded 1-shard: vs_serial {one['speedup_vs_serial']:.3f}x "
        f"(floor {SHARDED_VS_SERIAL_FLOOR:.1f}x), batch_speedup "
        f"{one['batch_speedup']:.3f}x (floor {SHARDED_BATCH_SPEEDUP_FLOOR:.1f}x)"
    )
    if one["speedup_vs_serial"] < SHARDED_VS_SERIAL_FLOOR:
        print(
            f"check_perf_baseline: FAIL — 1-shard sharded batch ingest runs at "
            f"{one['speedup_vs_serial']:.3f}x serial, below the "
            f"{SHARDED_VS_SERIAL_FLOOR:.1f}x hand-off-tax cap",
            file=sys.stderr,
        )
        failed = True
    if one["batch_speedup"] < SHARDED_BATCH_SPEEDUP_FLOOR:
        print(
            f"check_perf_baseline: FAIL — in-shard batch speedup collapsed to "
            f"{one['batch_speedup']:.3f}x, below the "
            f"{SHARDED_BATCH_SPEEDUP_FLOOR:.1f}x floor (batching did not "
            "survive the ring)",
            file=sys.stderr,
        )
        failed = True

    four = by_shards.get(4)
    if four is not None:
        agg = four["batch_packets_per_sec"] / one["batch_packets_per_sec"]
        print(
            f"sharded 4-vs-1 aggregate: {agg:.3f}x "
            f"(floor {SHARDED_4V1_FLOOR:.1f}x, needs >= 4 hardware threads)"
        )
        if agg < SHARDED_4V1_FLOOR:
            message = (
                f"4-shard aggregate throughput is only {agg:.3f}x the 1-shard "
                f"run (floor {SHARDED_4V1_FLOOR:.1f}x)"
            )
            if cur_cores >= 4:
                print(f"check_perf_baseline: FAIL — {message}", file=sys.stderr)
                failed = True
            else:
                print(
                    f"check_perf_baseline: WARN — {cur_cores} hardware threads "
                    f"cannot run 4 workers in parallel; not failing on: "
                    f"{message}",
                    file=sys.stderr,
                )

    # Baseline-relative drift on the per-shard-count vs-serial ratios: only
    # meaningful when the committed baseline itself has multi-core provenance
    # AND the machine classes match (absolute pps stays warn-only as ever).
    base_cores = baseline.get("hardware_concurrency")
    if base_cores is not None and base_cores >= 2:
        # Multi-core baseline provenance makes these in-run ratios binding on
        # every runner (drift_is_fatal); no warn-only escape hatch here.
        for shards, base_point in sorted(base_by_shards.items()):
            cur_point = by_shards.get(shards)
            if cur_point is None:
                continue
            base_ratio = base_point["speedup_vs_serial"]
            cur_ratio = cur_point["speedup_vs_serial"]
            floor = base_ratio * (1.0 - args.tolerance)
            if cur_ratio < floor:
                print(
                    f"check_perf_baseline: FAIL — {shards}-shard "
                    f"speedup_vs_serial {cur_ratio:.3f}x regressed more than "
                    f"{args.tolerance:.0%} below the committed "
                    f"{base_ratio:.3f}x",
                    file=sys.stderr,
                )
                failed = True
    else:
        print(
            "check_perf_baseline: NOTE — committed baseline's sharded section "
            f"was recorded with hardware_concurrency={base_cores!r}; skipping "
            "baseline-relative scaling drift (floors above still apply)"
        )
    return 1 if failed else 0


def check_agg(baseline: dict, current: dict, args) -> int:
    comparable = same_machine_class(baseline, current)
    failed = False

    base_bytes = baseline["snapshot_bytes"]
    cur_bytes = current["snapshot_bytes"]
    print(f"snapshot_bytes: baseline {base_bytes}, current {cur_bytes}")
    if base_bytes != cur_bytes:
        # Deterministic for a given seed/config on every machine: a drift is
        # a wire-format or bench-setup change, never noise.
        print(
            f"check_perf_baseline: FAIL — snapshot_bytes changed "
            f"({base_bytes} -> {cur_bytes}); the wire format or the bench "
            "configuration drifted. If intentional, re-record BENCH_agg.json.",
            file=sys.stderr,
        )
        failed = True

    for column in ("deliver", "query"):
        for quantile, factor in (("p99", args.latency_factor),
                                 ("p50", AGG_P50_FACTOR)):
            base = baseline[column][f"{quantile}_seconds"]
            cur = current[column][f"{quantile}_seconds"]
            ceiling = base * factor
            print(
                f"{column} {quantile}: baseline {base * 1e6:.1f}us, "
                f"current {cur * 1e6:.1f}us, "
                f"ceiling {ceiling * 1e6:.1f}us ({factor:g}x)"
            )
            if cur <= ceiling:
                continue
            message = (
                f"{column} {quantile} {cur * 1e6:.1f}us exceeds "
                f"{factor:g}x the committed {base * 1e6:.1f}us"
            )
            if comparable:
                print(f"check_perf_baseline: FAIL — {message}", file=sys.stderr)
                failed = True
            else:
                print(
                    "check_perf_baseline: WARN — core count differs from "
                    f"the baseline recording; not failing on: {message}",
                    file=sys.stderr,
                )
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("current", help="freshly measured bench JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed relative drop in serial batch_speedup (default 0.15)",
    )
    parser.add_argument(
        "--latency-factor",
        type=float,
        default=3.0,
        help="allowed p99 latency growth factor for agg baselines (default 3)",
    )
    args = parser.parse_args()

    baseline = load(args.baseline, is_baseline=True)
    current = load(args.current)

    if baseline["schema"] != current["schema"]:
        print(
            f"check_perf_baseline: schema mismatch — baseline "
            f"{baseline['schema']!r} vs current {current['schema']!r}",
            file=sys.stderr,
        )
        return 2

    describe("baseline", baseline)
    describe("current ", current)
    if not same_machine_class(baseline, current):
        print(
            "check_perf_baseline: WARN — hardware_concurrency differs (or is "
            "missing); machine-bound regressions will warn instead of fail"
        )

    if baseline["schema"].startswith("fcm.bench.throughput."):
        result = check_throughput(baseline, current, args)
    else:
        result = check_agg(baseline, current, args)

    if result == 0:
        print("check_perf_baseline: PASS")
    return result


if __name__ == "__main__":
    sys.exit(main())
