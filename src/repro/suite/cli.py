"""``alive-suite``: run the evaluation corpora from the command line."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from repro.refinement.check import VerifyOptions


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="alive-suite",
        description="Run the Alive2-reproduction evaluation corpora.",
    )
    parser.add_argument(
        "what",
        choices=["unittests", "apps", "knownbugs"],
        help="which corpus to run",
    )
    parser.add_argument("--timeout", type=float, default=20.0)
    parser.add_argument("--unroll", type=int, default=4)
    parser.add_argument(
        "--clean", action="store_true",
        help="unittests: run without injected bugs (false-alarm measurement)",
    )
    parser.add_argument(
        "--limit", type=int, default=None,
        help="unittests: only run the first N tests of the corpus",
    )
    parser.add_argument("--batch", type=int, default=1,
                        help="validate every N changed passes as one step (§8.4)")
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="unittests: append per-test outcomes to this JSONL file; "
             "a re-invocation resumes from it, re-running only unfinished tests",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry TIMEOUT/OOM jobs up to N times with degraded settings "
             "(halved unroll factor / conflict budget, smaller memory model)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="unittests: run tests across N worker processes "
             "(default: all CPUs); 1 forces the in-process sequential path",
    )
    parser.add_argument(
        "--query-cache", nargs="?", const="", default=None, metavar="PATH",
        help="enable the solver query-result cache (off by default); "
             "with PATH, persist it to a JSONL file shared across runs "
             "and workers, otherwise keep it in memory for this run",
    )
    parser.add_argument(
        "--no-query-cache", action="store_true",
        help="force the query-result cache off (overrides --query-cache)",
    )
    parser.add_argument(
        "--cache-shards", type=int, default=8, metavar="N",
        help="split the persistent query cache into N digest-routed shard "
             "files; every worker loads all of them and appends each entry "
             "to the shard it routes to; 1 keeps the legacy single-file "
             "layout (existing files are migrated automatically on first "
             "sharded open)",
    )
    parser.add_argument(
        "--warm-pool", action="store_true",
        help="unittests: run --jobs workers as a persistent pre-forked "
             "pool (serve-supervised: heartbeats, hang SIGKILL, restart "
             "backoff) instead of a fresh process pool; interned terms "
             "and the in-memory cache tier stay warm across tests",
    )
    parser.add_argument(
        "--no-prescreen", action="store_true",
        help="disable the static-analysis prescreen that discharges "
             "refinement queries without the solver (ablation switch)",
    )
    parser.add_argument(
        "--no-egraph", action="store_true",
        help="disable the equality-saturation simplifier that discharges "
             "or shrinks queries before the bit-blaster (ablation switch)",
    )
    parser.add_argument(
        "--no-memdf", action="store_true",
        help="disable the points-to/memory-dataflow layer: the alias/"
             "forwarding/OOB prescreen rules, encoder case-split pruning, "
             "and memory-refinement block skipping (ablation switch)",
    )
    parser.add_argument(
        "--no-relational", action="store_true",
        help="disable the relational abstract interpreter: the "
             "R-relational-equal prescreen rules, cross-function witness "
             "seeds for the e-graph and CEGAR rungs, and alignment-aware "
             "counterexample notes (ablation switch)",
    )
    parser.add_argument(
        "--max-ef-iterations", type=int, default=None, metavar="N",
        help="cap CEGAR (exists-forall) refinement iterations per query; "
             "raise it when comparing ablation configs byte-for-byte so "
             "neither side hits the ceiling (exhaustion reports TIMEOUT)",
    )
    parser.add_argument(
        "--certify", action="store_true",
        help="log a RUP proof for every UNSAT solver answer and have the "
             "independent checker validate it; a rejected proof downgrades "
             "the verdict to SOLVER_UNSOUND instead of trusting the solver",
    )
    parser.add_argument(
        "--inject-unsound", default=None, metavar="TEST",
        help="fault injection: corrupt a learned clause in TEST's solver "
             "so it claims a bogus UNSAT (demonstrates what --certify "
             "catches; without --certify the bogus verdict goes unnoticed)",
    )
    parser.add_argument(
        "--server", default=None, metavar="ADDR",
        help="unittests: route every test through a running alive-serve "
             "daemon at ADDR (unix:/path or host:port) instead of running "
             "locally; verdict accounting is identical to a local run",
    )
    parser.add_argument(
        "--verdicts-out", default=None, metavar="PATH",
        help="unittests: write one stable JSON line per test (name, "
             "verdicts, classification) to PATH — timing-free, so local "
             "and --server runs of the same corpus compare byte-for-byte",
    )
    args = parser.parse_args(argv)
    if args.cache_shards <= 0:
        parser.error(
            f"--cache-shards must be a positive integer, got {args.cache_shards}"
        )
    options = VerifyOptions(
        timeout_s=args.timeout,
        unroll_factor=args.unroll,
        prescreen=not args.no_prescreen,
        egraph=not args.no_egraph,
        memdf=not args.no_memdf,
        relational=not args.no_relational,
        certify=args.certify,
    )
    if args.max_ef_iterations is not None:
        if args.max_ef_iterations <= 0:
            parser.error(
                "--max-ef-iterations must be a positive integer, "
                f"got {args.max_ef_iterations}"
            )
        options = replace(options, max_ef_iterations=args.max_ef_iterations)
    ladder = None
    if args.retries > 0:
        from repro.harness.degrade import DegradationLadder

        ladder = DegradationLadder(max_retries=args.retries)

    if args.what == "unittests":
        from repro.engine.pool import default_jobs
        from repro.suite.runner import run_suite
        from repro.suite.unittests import UNIT_TESTS

        jobs = args.jobs if args.jobs is not None else default_jobs()
        # Opt-in: verdicts only replay across tests/runs when asked for,
        # keeping default runs comparable with earlier sequential ones.
        # The raw path (not a loaded QueryCache) goes to run_suite so
        # pooled runs never parse the cache file in the parent.
        cache = None
        cache_shards = args.cache_shards
        if args.query_cache is not None and not args.no_query_cache:
            cache = args.query_cache
        tests = UNIT_TESTS[: args.limit] if args.limit is not None else UNIT_TESTS
        fault_plan = None
        if args.inject_unsound is not None:
            from repro.harness.faults import FaultPlan, FaultSpec

            fault_plan = FaultPlan(
                {args.inject_unsound: FaultSpec(kind="unsound", site="ef")}
            )
        if args.server is not None:
            from repro.serve.client import ServeClient
            from repro.suite.runner import outcome_from_records

            with ServeClient(args.server) as client:
                records = client.submit_corpus(
                    tests,
                    options,
                    inject_bugs=not args.clean,
                    batch=args.batch,
                    retries=args.retries,
                )
            outcome = outcome_from_records(records)
        else:
            warm_pool = None
            if args.warm_pool:
                from repro.engine.warmpool import WarmPool

                warm_pool = WarmPool(
                    jobs=jobs,
                    cache_enabled=cache is not None,
                    cache_path=cache or None,
                    cache_shards=cache_shards,
                )
            try:
                outcome = run_suite(
                    tests,
                    options,
                    inject_bugs=not args.clean,
                    batch=args.batch,
                    journal=args.journal,
                    fault_plan=fault_plan,
                    ladder=ladder,
                    jobs=jobs,
                    query_cache=cache,
                    cache_shards=cache_shards,
                    warm_pool=warm_pool,
                )
            finally:
                if warm_pool is not None:
                    warm_pool.close()
        if args.verdicts_out is not None:
            import json

            with open(args.verdicts_out, "w", encoding="utf-8") as fh:
                for rec in outcome.records:
                    fh.write(
                        json.dumps(
                            {
                                "test": rec.test,
                                "category": rec.category,
                                "verdicts": rec.verdicts,
                                "detected": rec.detected,
                                "missed": rec.missed,
                                "clean_failure": rec.clean_failure,
                                "degradations": rec.degradations,
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    )
        print(f"analyzed: {outcome.tally.analyzed}")
        print(f"correct: {outcome.tally.correct}  incorrect: {outcome.tally.incorrect}")
        print(f"timeout: {outcome.tally.timeout}  oom: {outcome.tally.oom}  "
              f"crash: {outcome.tally.crash}")
        if outcome.resumed:
            print(f"resumed from journal: {outcome.resumed} tests")
        t = outcome.tally
        if t.qcache_hits or t.qcache_misses:
            print(
                f"query cache: {t.qcache_hits} hits / {t.qcache_misses} misses "
                f"({t.qcache_hit_rate:.0%} hit rate)"
            )
        if t.qcache_pair_hits:
            print(
                f"pair cache: {t.qcache_pair_hits} pairs replayed "
                f"without verification"
            )
        if t.qcache_load_entries or t.qcache_load_bytes or t.qcache_evictions:
            print(
                f"cache tier: {t.qcache_load_entries} entries / "
                f"{t.qcache_load_bytes} bytes loaded across workers, "
                f"{t.qcache_evictions} LRU evictions"
            )
        if outcome.worker_cache:
            for pid in sorted(outcome.worker_cache):
                c = outcome.worker_cache[pid]
                print(
                    f"  pid {pid}: {c.get('shards')} shards, loaded "
                    f"{c.get('load_entries', 0)} entries / "
                    f"{c.get('load_bytes', 0)} bytes, "
                    f"{c.get('hits', 0)} hits / {c.get('misses', 0)} misses, "
                    f"{c.get('pair_hits', 0)} pair hits"
                )
        if t.prescreen_hits or t.prescreen_misses:
            print(
                f"prescreen: {t.prescreen_hits} discharged / "
                f"{t.prescreen_misses} passed to solver "
                f"({t.prescreen_hit_rate:.0%} hit rate)"
            )
        if t.lint_errors or t.lint_warnings:
            print(
                f"lint: {t.lint_errors} errors, {t.lint_warnings} warnings"
            )
        if t.egraph_proved or t.egraph_shrunk or t.egraph_misses:
            print(
                f"egraph: {t.egraph_proved} proved without solver, "
                f"{t.egraph_shrunk} shrunk, {t.egraph_misses} unchanged"
            )
        if t.memdf_rule_hits or t.memdf_narrowed or t.memdf_block_skips:
            print(
                f"memdf: {t.memdf_rule_hits} queries discharged by memory "
                f"rules, {t.memdf_narrowed} accesses narrowed, "
                f"{t.memdf_block_skips} block case-splits pruned"
            )
        if (
            t.relational_rule_hits
            or t.relational_seed_pairs
            or t.relational_aligned_blocks
        ):
            print(
                f"relational: {t.relational_rule_hits} queries discharged "
                f"by R-relational-equal, {t.relational_seed_pairs} witness "
                f"pairs seeded, {t.relational_aligned_blocks} certified "
                f"block pairs aligned"
            )
        if t.phase_time_s:
            print(
                "phase times: "
                + ", ".join(
                    f"{k}={v:.2f}s" for k, v in sorted(t.phase_time_s.items())
                )
            )
        if t.certified_unsat or t.cert_failures:
            print(
                f"certified: {t.certified_unsat} UNSAT proofs accepted, "
                f"{t.cert_failures} rejected, {t.core_lits} core lits"
            )
        by_worker: dict = {}
        for rec in outcome.records:
            if rec.worker is None:
                continue
            stats = by_worker.setdefault(
                rec.worker, {"tests": 0, "time_s": 0.0, "checks": 0}
            )
            stats["tests"] += 1
            stats["time_s"] += rec.elapsed_s
            stats["checks"] += rec.solver_checks
        if by_worker:
            print(f"workers ({jobs} requested, {len(by_worker)} used):")
            for pid in sorted(by_worker):
                stats = by_worker[pid]
                print(
                    f"  pid {pid}: {stats['tests']} tests, "
                    f"{stats['checks']} solver checks, {stats['time_s']:.1f}s"
                )
        if outcome.crashed:
            print(f"contained crashes: {outcome.crashed}")
        degraded = [r.test for r in outcome.records if r.degradations]
        if degraded:
            print(f"degraded retries: {degraded}")
        print("violations by category:")
        for row in outcome.summary_rows():
            print(f"  {row['category']}: {row['violations']}")
        if outcome.missed:
            print(f"missed injected bugs: {outcome.missed}")
        if outcome.solver_unsound:
            print(f"SOLVER UNSOUND (rejected certificates): "
                  f"{outcome.solver_unsound}")
        if outcome.clean_failures:
            print(f"FALSE ALARMS: {outcome.clean_failures}")
        return 1 if (outcome.clean_failures or outcome.solver_unsound) else 0

    if args.what == "apps":
        from repro.suite.apps import APP_SPECS, O3_PIPELINE, build_app
        from repro.tv.plugin import validate_pipeline

        print(f"{'prog':>8} {'fns':>5} {'time(s)':>8} {'ok':>4} {'bad':>4} "
              f"{'TO':>3} {'OOM':>4} {'crash':>6} {'unsup':>6}")
        for spec in APP_SPECS:
            module = build_app(spec)
            report = validate_pipeline(
                module, O3_PIPELINE, options, batch=args.batch, ladder=ladder
            )
            t = report.tally
            print(
                f"{spec.name:>8} {spec.functions:>5} {t.total_time_s:>8.1f} "
                f"{t.correct:>4} {t.incorrect:>4} {t.timeout:>3} {t.oom:>4} "
                f"{t.crash:>6} {t.unsupported + t.approx:>6}"
            )
        return 0

    # knownbugs
    from repro.harness.isolation import run_verification_job
    from repro.ir.parser import parse_module
    from repro.refinement.check import Verdict
    from repro.suite.knownbugs import KNOWN_BUGS

    detected = missed = 0
    for bug in KNOWN_BUGS:
        sm, tm = parse_module(bug.src), parse_module(bug.tgt)
        result = run_verification_job(
            sm.definitions()[0], tm.definitions()[0], sm, tm, options, ladder=ladder
        )
        found = result.verdict is Verdict.INCORRECT
        status = "DETECTED" if found else f"missed ({bug.miss_reason or '?'})"
        print(f"  {bug.name}: {status}")
        detected += found
        missed += not found
    print(f"{detected} detected, {missed} missed of {len(KNOWN_BUGS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
