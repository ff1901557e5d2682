"""Run one opforge benchmark workload and print its metrics.

    python3 bench/run.py --workload graphs --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports opforge from that
checkout's src/ and keeps its scratch files in .bench_work/.  Passes of the
workload repeat, one at a time in this process, until the next one would
end after --seconds (there is always at least one).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones:

    wall_s       median wall time of one pass
    setup_s      median time from a fresh interpreter to ready (opforge
                 imported, inputs read), over several interpreters
    peak_rss_mb  peak resident memory of this process

With --trace 1 the run makes one untraced and one traced pass and the
metrics are the per-layer ones (see tracing.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_SPAWNS = 7


def _import_program():
    src = ROOT / "src"
    if not (src / "opforge" / "__init__.py").is_file():
        sys.exit(f"bench: no opforge package under {src}")
    sys.path.insert(0, str(src))
    import opforge
    if Path(opforge.__file__).resolve().parent != src / "opforge":
        sys.exit(f"bench: opforge was imported from {opforge.__file__}")


def measure_setup(workload: str, inputs: Path) -> float:
    """Median seconds from starting a fresh interpreter to ready."""
    cmd = [sys.executable, str(BENCH / "ready.py"), workload, str(inputs)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_pass(wl, inputs) -> tuple[float, list]:
    start = time.perf_counter()
    checks = wl.run(inputs)
    return time.perf_counter() - start, checks


def verdict(passes: list[list], known: dict) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over every check of every pass.

    A failed check counts as failed even when it is a known defect; the run
    is correct when no group fails more often in a pass than its known
    defect allows.
    """
    correct = True
    for checks in passes:
        for group, n in Counter(c.group for c in checks if not c.ok).items():
            if n > known.get(group, (0, ""))[0]:
                correct = False
    attempted = sum(len(checks) for checks in passes)
    failed = sum(not c.ok for checks in passes for c in checks)
    return correct, attempted, failed


def code_digest() -> str:
    """Digest of the program and benchmark sources that counts depend on."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "opforge").glob("*.py"),
                        *BENCH.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_counts_repeat(workload: str, seed: int, counts: dict) -> None:
    """Counts of the same code and seed must repeat exactly across runs."""
    store = WORK / "counts" / f"{workload}-{seed}-{code_digest()}.json"
    if store.exists():
        before = json.loads(store.read_text(encoding="utf-8"))
        changed = sorted(k for k in counts if before.get(k) != counts[k])
        if changed:
            sys.exit(f"bench: counts differ from an earlier run of the same "
                     f"code and seed: {', '.join(changed)}")
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    import tracing
    from workloads import KNOWN_DEFECTS, WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    inputs_dir = WORK / args.workload
    shutil.rmtree(inputs_dir, ignore_errors=True)
    inputs_dir.mkdir(parents=True)
    wl.make_inputs(args.seed, inputs_dir)

    if args.trace:
        inputs = wl.load(inputs_dir)
        wall, checks = timed_pass(wl, inputs)
        passes = [checks]
        tracer = tracing.Tracer()
        tracer.install()
        traced_wall, checks = timed_pass(wl, inputs)
        passes.append(checks)
        missed = tracer.missed(args.workload)
        if missed:
            sys.exit(f"bench: traced pass recorded no call to "
                     f"{', '.join(missed)}")
        values = tracer.metrics(traced_wall)
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - wall
        units = dict(tracing.metric_names())
        check_counts_repeat(args.workload, args.seed, {
            k: v for k, v in values.items() if units[k] == "count"})
        tracer.dump(WORK / f"spans-{args.workload}.tsv")
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        setup_s = measure_setup(args.workload, inputs_dir)
        inputs = wl.load(inputs_dir)
        walls, passes = [], []
        start = time.perf_counter()
        while True:
            wall, checks = timed_pass(wl, inputs)
            walls.append(wall)
            passes.append(checks)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(walls) > args.seconds:
                break
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }

    correct, attempted, failed = verdict(passes, KNOWN_DEFECTS)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(passes)}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_ratio = {failed}/{attempted} = "
          f"{failed / attempted:.4f} fraction")
    for check in passes[-1]:
        if not check.ok:
            cause = KNOWN_DEFECTS.get(check.group, (0, "not a known defect"))[1]
            print(f"  FAILED {check.name} [{cause}]")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
