"""Wall-clock benchmark of the scrapbook engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compose --seed 1 --seconds 50 --trace 0

Workloads are `compose` and `drag` (see README.md here).  With
`--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
installs timing wrappers around each layer and reports per-layer metrics
and the tracing overhead.  Every metric is printed by name with its unit,
followed by the environment record; the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.  The
same record, with undefined ratios as null, is written under
`.bench_out/`, and a traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

END_TO_END_UNITS = {"op_ms_p50": "ms", "op_ms_p90": "ms", "ops_per_s": "1/s",
                    "round_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

_LAYER_SUFFIX_UNITS = (("ms_per_mpx", "ms/Mpx"), ("ns_per_px", "ns/px"),
                       ("ns_per_unit", "ns/unit"), ("overhead_ms", "ms"), ("self_ms", "ms"), ("ms", "ms"),
                       ("px", "px"), ("units", "units"), ("bytes_in", "B"),
                       ("bytes_out", "B"))


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    for suffix, unit in _LAYER_SUFFIX_UNITS:
        if last == suffix:
            return unit
    return "count"


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_times() -> list[int] | None:
    """The aggregate CPU line of /proc/stat, where the host's steal is
    counted; None where it cannot be read."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def environment(root: Path, loadavg, times_at_start) -> dict:
    import numpy
    times = cpu_times()
    steal = None
    if times and times_at_start and len(times) > 7:
        total = sum(times) - sum(times_at_start)
        steal = (times[7] - times_at_start[7]) / total if total else None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "loadavg_at_start": loadavg,
            "cpu_steal_share": steal, "platform": platform.platform(),
            "git_commit": _git_commit(root)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="scrapbook wall-clock benchmark")
    parser.add_argument("--workload", required=True, choices=["compose", "drag"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "scrapbook" / "__init__.py").is_file():
        print(f"error: {src}/scrapbook not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    loadavg, times_at_start = os.getloadavg(), cpu_times()
    sys.path.insert(0, str(src))
    import scrapbook
    if not Path(scrapbook.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported scrapbook from {scrapbook.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    workloads.settle_allocator()

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / f"work-{tag}-{os.getpid()}"
    try:
        res = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                 bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = tracing.layer_metrics(res.spans)
        metrics["trace.overhead_ms"] = res.overhead_ms
        units = {name: layer_unit(name) for name in metrics}
        tracing.dump_spans(res.spans, out_dir / f"spans-{tag}.jsonl")
    else:
        metrics = res.end_to_end()
        units = dict(END_TO_END_UNITS)
    report = dict(res.report)
    report["failed_ratio"] = res.failed / res.attempted if res.attempted else None
    env = environment(root, loadavg, times_at_start)

    for name, value in metrics.items():
        print(f"{name} = {json.dumps(value)} {units[name]}")
    for name, value in report.items():
        print(f"report {name} = {json.dumps(value)}")
    print(f"env {json.dumps(env)}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "attempted": res.attempted, "failed": res.failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
              "report": report, "digests": res.digests,
              "setup_s": res.setup_s, "round_s": res.round_s, "environment": env}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    # The result line: undefined ratios (no work to divide by) read 0.
    print(json.dumps({
        "correct": res.failed == 0 and res.attempted > 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": 0.0 if v is None else v, "unit": units[n]}
                    for n, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
