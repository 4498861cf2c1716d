"""End-to-end translation-validation benchmark.

One run of one workload (the last stdout line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``)::

    python3 benchmarks/e2e/bench.py --workload arith --seed 1 --seconds 20 --trace 0

A whole comparison table -- every workload, ``--reps`` untraced runs each,
plus one traced run each with ``--trace`` -- written to
``benchmarks/e2e/out/results-<label>.json``::

    python3 benchmarks/e2e/bench.py [--seed 1] [--reps 5] [--workloads a,b] [--trace]
                                    [--set FIELD=VALUE ...] [--write-baseline LABEL]

A run executes ``round(seconds / ROUND_SECONDS)`` fixed-size rounds (half
as many when traced, each then run untraced and traced on the same
inputs).  Each round is a fresh interpreter (``child.py``) with
``PYTHONHASHSEED=0``: fresh, because in-process memory grows with every
test verified (term interning); pinned, because set iteration order can
flip a verdict at the conflict budget.  Rounds run one after another.
The work per run is fixed by ``(workload, seed, seconds)``, so two commits
verify the same pairs and their verdict digests compare.  Times are scaled
by each round's reading of a fixed reference loop, so that a slow stretch
of a shared host does not read as a slower verifier (README.md).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from probe import ALL_LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"

#: Target wall time of one round; ``workloads.ROUND_SIZES`` is sized to it.
ROUND_SECONDS = 2.5
#: ``child.reference_s()`` on the calibration host (README.md): times are
#: reported as if measured at that host's usual speed.
REFERENCE_S = 0.0192
#: A round that takes this long is hung, not slow.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    pass


# -- child processes --------------------------------------------------------


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(spec: dict) -> dict:
    """Run ``child.py`` on ``spec`` and return its JSON result.

    The child leads its own process group so a hung round is killed with
    every pool worker it forked.
    """
    spec = dict(spec, spawned_at=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"round timed out after {CHILD_TIMEOUT_S:.0f}s: {spec}")
    if proc.returncode != 0:
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        raise BenchError(f"round failed (exit {proc.returncode}):\n{tail}")
    return json.loads(stdout.strip().splitlines()[-1])


# -- one run ------------------------------------------------------------------


def rounds_for(seconds: float, trace: bool) -> int:
    rounds = max(1, round(seconds / ROUND_SECONDS))
    return max(1, rounds // 2) if trace else rounds


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    overrides: dict,
    round_size: int = 0,
) -> dict:
    """One benchmark run: its rounds, summarized.  ``round_size`` 0 takes
    the workload's calibrated size."""
    work = OUT / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    base = {
        "workload": workload,
        "seed": seed,
        "size": round_size,
        "overrides": overrides,
        "trace_file": str(OUT / f"trace-{workload}.jsonl"),
    }
    fixture_s = None
    try:
        if workload == "rerun":
            base["cache"] = str(work / "fixture" / "qcache")
            fixture_s = spawn(dict(base, fixture=True))["fixture_s"]
        if trace:
            Path(base["trace_file"]).unlink(missing_ok=True)
        plain: List[dict] = []
        traced: List[dict] = []
        for r in range(rounds_for(seconds, trace)):
            spec = dict(base, round=r, work_dir=str(work / f"round-{r}"))
            plain.append(spawn(dict(spec, trace=False)))
            if trace:
                shutil.rmtree(spec["work_dir"], ignore_errors=True)
                traced.append(spawn(dict(spec, trace=True)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, plain, traced, fixture_s)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(
    workload: str, plain: List[dict], traced: List[dict], fixture_s: Optional[float]
) -> dict:
    attempted = sum(r["attempted"] for r in plain)
    if attempted == 0 or sum(len(r["lat_ms"]) for r in plain) < 2:
        raise BenchError(f"{workload}: fewer than two refinement pairs verified")
    # Every time is scaled to the calibration host's speed (README.md,
    # "Steadiness"): the round's reference reading against REFERENCE_S.
    scale = [REFERENCE_S / r["reference_s"] for r in plain]
    lat = [ms * k for r, k in zip(plain, scale) for ms in r["lat_ms"]]
    rss = [r["peak_rss_mb"] for r in plain]
    end_to_end = {
        "pair_p50_ms": statistics.median(
            statistics.median(r["lat_ms"]) * k for r, k in zip(plain, scale) if r["lat_ms"]
        ),
        "pair_gmean_ms": statistics.geometric_mean(lat),
        "decided_frac": sum(r["decided"] for r in plain) / attempted,
        "setup_s": statistics.median(r["setup_s"] * k for r, k in zip(plain, scale)),
        "peak_rss_mb": statistics.quantiles(rss, n=4)[0] if len(rss) > 1 else rss[0],
    }
    failed = sum(r["failed"] for r in plain)
    reported = {
        "pairs_per_s": attempted / _scaled_wall(plain),
        "pair_p99_ms": statistics.quantiles(lat, n=100, method="inclusive")[98],
        "error_frac": failed / attempted,
        "max_rss_mb": max(r["max_rss_mb"] for r in plain),
        "host_speed": statistics.median(scale),
    }
    if fixture_s is not None:
        reported["fixture_s"] = fixture_s
    summary = {
        "workload": workload,
        "rounds": len(plain),
        "tests": sum(r["tests"] for r in plain),
        "attempted": attempted,
        "failed": failed,
        "errors": [e for r in plain for e in r["errors"]],
        "digest": hashlib.sha256("".join(r["digest"] for r in plain).encode()).hexdigest(),
        "end_to_end": end_to_end,
        "reported": reported,
    }
    if traced:
        summary["per_layer"] = layer_metrics(plain, traced)
        if [r["digest"] for r in traced] != [r["digest"] for r in plain]:
            raise BenchError(f"{workload}: traced verdicts differ from untraced ones")
    return summary


def _scaled_wall(rounds: List[dict]) -> float:
    return sum(r["wall_s"] * REFERENCE_S / r["reference_s"] for r in rounds)


def layer_metrics(plain: List[dict], traced: List[dict]) -> Dict[str, float]:
    """Per-layer calls, self times and counters summed over traced rounds."""
    layers: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    for r in traced:
        scale = REFERENCE_S / r["reference_s"]
        for name, (calls, self_s) in r["layers"].items():
            acc = layers.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s * scale
        for key, value in r["counters"].items():
            counters[key] = counters.get(key, 0) + value
    out: Dict[str, float] = {}
    for name in ALL_LAYERS:
        calls, self_s = layers.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    out.update(counters)
    out["engine.pool.workers"] = max(r["counters"]["engine.pool.workers"] for r in traced)
    c = counters.get
    out["prescreen.hit_ratio"] = _ratio(
        c("prescreen.hits", 0), c("prescreen.hits", 0) + c("prescreen.misses", 0)
    )
    eg_total = sum(c(k, 0) for k in ("egraph.proved", "egraph.shrunk", "egraph.unchanged"))
    out["egraph.proved_ratio"] = _ratio(c("egraph.proved", 0), eg_total)
    out["engine.qcache.hit_ratio"] = _ratio(
        c("engine.qcache.hits", 0), c("engine.qcache.lookups", 0)
    )
    out["engine.pool.busy_frac"] = _ratio(
        out.pop("engine.pool.busy_s", 0), out.pop("engine.pool.capacity_s", 0)
    )
    out["trace.wall_s"] = _scaled_wall(traced)
    # Round i ran untraced, then traced, on the same inputs: the median of
    # the per-round ratios ignores a round the host slowed down.
    out["trace.overhead_frac"] = statistics.median(
        _scaled_wall([t]) / _scaled_wall([p]) - 1.0 for p, t in zip(plain, traced)
    )
    return out


# -- reporting ------------------------------------------------------------------


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path.name} at the repository root")
    return json.loads(path.read_text(encoding="utf-8"))


def spread(values: List[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and n."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


#: Printed and recorded, never bounded.  Throughput, the 99th percentile and
#: the largest RSS are set by a workload's rarest inputs and move between
#: seeds far more than any bound allows; the rest describe the run itself.
REPORTED = {
    "pairs_per_s": "pairs/s",
    "pair_p99_ms": "ms",
    "error_frac": "ratio",
    "max_rss_mb": "MB",
    "host_speed": "ratio",
    "fixture_s": "s",
}


def table(summaries: List[dict], spec: dict) -> Dict[str, dict]:
    """``{section: {metric: spread}}`` over runs of one workload: the
    end-to-end and reported metrics of untraced runs, or the per-layer
    metrics of traced ones."""
    sections = {
        "end_to_end": [m["name"] for m in spec["end_to_end"]],
        "reported": [k for k in REPORTED if k in summaries[0]["reported"]],
    }
    if "per_layer" in summaries[0]:
        sections = {"per_layer": [m["name"] for m in spec["per_layer"]]}
    return {
        section: {n: spread([s[section].get(n, 0) for s in summaries]) for n in names}
        for section, names in sections.items()
    }


def print_table(workload: str, stats: Dict[str, dict], spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(REPORTED)
    for section, rows in stats.items():
        tag = " (reported)" if section == "reported" else ""
        for name, s in rows.items():
            print(
                f"  {workload:<10} {name + tag:<36} {s['median']:>14.6g} {units[name]:<8}"
                f" q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}"
            )


def parse_overrides(items: List[str]) -> dict:
    """``FIELD=VALUE`` pairs, VALUE in JSON (``true``, ``500``, ``null``)."""
    out = {}
    for item in items:
        field, sep, text = item.partition("=")
        if not sep or not field:
            raise BenchError(f"--set expects FIELD=VALUE, got {item!r}")
        try:
            out[field] = json.loads(text)
        except json.JSONDecodeError:
            raise BenchError(f"--set {field}: {text!r} is not a JSON value") from None
    return out


def label_for(overrides: dict) -> str:
    if not overrides:
        return "default"
    return "set-" + ",".join(f"{k}={json.dumps(v)}" for k, v in sorted(overrides.items()))


def verdicts_changed(args, workload: str, digest: str) -> str:
    """Compare a verdict digest with the latest baseline of the same run."""
    if args.overrides or args.round_size or not BASELINE.is_file():
        return "n/a"
    entries = json.loads(BASELINE.read_text(encoding="utf-8")).get("trajectory", [])
    for entry in reversed(entries):
        if (entry["seed"], entry["seconds"]) == (args.seed, args.seconds):
            old = entry["results"].get(workload, {}).get("digest")
            return "n/a" if old is None else ("no" if old == digest else "yes")
    return "n/a"


def print_header(args, summary: dict, label: str) -> None:
    print(
        f"# {summary['workload']} seed={args.seed} seconds={args.seconds:g} {label} "
        f"rounds={summary['rounds']} tests={summary['tests']} pairs={summary['attempted']} "
        f"failed={summary['failed']} digest={summary['digest'][:16]} "
        f"verdicts_changed={verdicts_changed(args, summary['workload'], summary['digest'])}"
    )
    for error in summary["errors"]:
        print(f"  known error: {error}")


def one_run(args, spec: dict, overrides: dict) -> int:
    """One run of one workload; the JSON result is the last line."""
    trace = args.trace == "1"
    summary = run(
        args.workloads[0], args.seed, args.seconds, trace, overrides, args.round_size
    )
    print_header(args, summary, label_for(overrides))
    print_table(summary["workload"], table([summary], spec), spec)
    section = "per_layer" if trace else "end_to_end"
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            m["name"]: {"value": summary[section].get(m["name"], 0), "unit": m["unit"]}
            for m in spec[section]
        },
    }))
    return 0


def all_runs(args, spec: dict, overrides: dict) -> int:
    """``--reps`` runs of each workload, interleaved, plus traced runs."""
    label = label_for(overrides)
    runs: Dict[str, List[dict]] = {w: [] for w in args.workloads}
    for rep in range(args.reps):
        for workload in args.workloads:
            runs[workload].append(
                run(workload, args.seed, args.seconds, False, overrides, args.round_size)
            )
            print(f"# rep {rep + 1}/{args.reps} {workload} done", flush=True)
    traced = {}
    if args.trace == "1":
        for workload in args.workloads:
            traced[workload] = run(
                workload, args.seed, args.seconds, True, overrides, args.round_size
            )

    results = {}
    for workload in args.workloads:
        summaries = runs[workload]
        digests = sorted({s["digest"] for s in summaries})
        first = summaries[0]
        print_header(args, first, label)
        if len(digests) > 1:
            print(f"  warning: verdict digests differ between reps: {digests}")
        stats = table(summaries, spec)
        if workload in traced:
            stats.update(table([traced[workload]], spec))
        print_table(workload, stats, spec)
        results[workload] = dict(
            stats,
            rounds=first["rounds"],
            tests=first["tests"],
            pairs=first["attempted"],
            digest=digests[0] if len(digests) == 1 else digests,
            known_errors=first["errors"],
        )

    report = {
        "label": label,
        "date": datetime.date.today().isoformat(),
        "host": f"{platform.machine()}, {os.cpu_count()} cpus, "
                f"{platform.python_implementation()} {platform.python_version()}",
        "seed": args.seed,
        "reps": args.reps,
        "seconds": args.seconds,
        "overrides": overrides,
        "results": results,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    out_path = OUT / f"results-{label}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"# wrote {out_path.relative_to(ROOT)}")
    if args.write_baseline:
        data = json.loads(BASELINE.read_text(encoding="utf-8"))
        data["trajectory"].append(dict(report, label=args.write_baseline))
        BASELINE.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        print(f"# appended trajectory entry {args.write_baseline!r} to {BASELINE.name}")
    return 1 if any(s["failed"] for v in runs.values() for s in v) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", dest="workloads", default=None,
                        help="one workload (a single run) or a comma list")
    parser.add_argument("--seed", type=int, default=1, help="input seed (2 is held out)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", nargs="?", const="1", default="0", choices=("0", "1"),
                        help="measure per-layer metrics in a traced run")
    parser.add_argument("--reps", type=int, default=5, help="untraced runs per workload")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="FIELD=VALUE", help="override a VerifyOptions field")
    parser.add_argument("--round-size", type=int, default=0, metavar="N",
                        help="tests per round (default: the calibrated size)")
    parser.add_argument("--write-baseline", metavar="LABEL",
                        help="append this invocation to baseline.json's trajectory")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"no program sources under {ROOT / 'src'}")
        spec = load_spec()
        overrides = parse_overrides(args.overrides)
        if args.write_baseline and (overrides or args.round_size):
            raise BenchError("--write-baseline records defaults only")
        names = [w["name"] for w in spec["workloads"]]
        single = args.workloads is not None and "," not in args.workloads
        args.workloads = args.workloads.split(",") if args.workloads else names
        unknown = [w for w in args.workloads if w not in names]
        if unknown:
            raise BenchError(f"unknown workload(s) {unknown}; choose from {names}")
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        if single and not args.write_baseline:
            return one_run(args, spec, overrides)
        return all_runs(args, spec, overrides)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
