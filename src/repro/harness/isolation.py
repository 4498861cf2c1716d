"""Crash isolation: contain one verification job's failure to itself.

The validator is an untrusted component (§8 runs it over tens of
thousands of tests where parser crashes, encoder recursion blow-ups and
memory exhaustion are routine).  :func:`run_contained` executes one job
inside a containment boundary that converts any unexpected exception
into a structured :class:`~repro.refinement.check.RefinementResult`:

* :class:`MemoryError`  -> ``Verdict.OOM``
* :class:`DeadlineExceeded` -> ``Verdict.TIMEOUT``
* any other :class:`Exception` (including :class:`RecursionError`)
  -> ``Verdict.CRASH`` with a diagnostic record

``KeyboardInterrupt``/``SystemExit`` pass through untouched, so a killed
run still stops promptly — the resume journal picks it up from there.
"""

from __future__ import annotations

import traceback
from typing import Callable, Dict, Optional

from repro.engine import qcache
from repro.harness import faults
from repro.harness.deadline import DeadlineExceeded
from repro.harness.degrade import DegradationLadder, run_with_degradation
from repro.ir.function import Function
from repro.ir.module import Module
from repro.refinement.check import (
    RefinementResult,
    Verdict,
    VerifyOptions,
    verify_refinement,
)

#: Number of innermost stack frames preserved in a crash diagnostic.
_TRACEBACK_FRAMES = 6


def diagnostic_from(exc: BaseException) -> Dict[str, object]:
    """A JSON-serializable record of an exception for crash reports."""
    frames = traceback.extract_tb(exc.__traceback__)[-_TRACEBACK_FRAMES:]
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "frames": [
            f"{f.filename.rsplit('/', 1)[-1]}:{f.lineno}:{f.name}" for f in frames
        ],
    }


def worker_loss_diagnostic(message: str, kind: str = "WorkerLost") -> Dict[str, object]:
    """A crash diagnostic for a failure with no exception object.

    When a worker process is SIGKILLed, OOM-killed, or declared hung by
    the supervisor there is no traceback to harvest — the process is
    simply gone.  The pool and the serve supervisor synthesize their
    CRASH records through this so the shape matches :func:`diagnostic_from`.
    """
    return {"type": kind, "message": message, "frames": []}


def run_contained(
    job: Callable[[], RefinementResult], phase: str = "verify"
) -> RefinementResult:
    """Run ``job``; never raises (except KeyboardInterrupt/SystemExit)."""
    try:
        return job()
    except (KeyboardInterrupt, SystemExit):
        raise
    except MemoryError as exc:
        return RefinementResult(
            Verdict.OOM, failed_check=phase, diagnostic=diagnostic_from(exc)
        )
    except DeadlineExceeded as exc:
        return RefinementResult(
            Verdict.TIMEOUT,
            failed_check=exc.phase,
            diagnostic=diagnostic_from(exc),
        )
    except Exception as exc:  # noqa: BLE001 — the containment boundary
        return RefinementResult(
            Verdict.CRASH, failed_check=phase, diagnostic=diagnostic_from(exc)
        )


def lint_gate(src: Function, tgt: Function) -> Optional[RefinementResult]:
    """Pre-verification well-formedness gate (repro.analysis.verify).

    Malformed IR surfaces here as ``UNSUPPORTED`` with a diagnostic
    naming the function, block, and instruction — instead of an opaque
    ``EncodeError``/CRASH deep inside the encoder.  Warnings never gate.
    """
    from repro.analysis.verify import ERROR, lint_function

    for which, fn in (("src", src), ("tgt", tgt)):
        errors = [d for d in lint_function(fn) if d.level == ERROR]
        if errors:
            return RefinementResult(
                Verdict.UNSUPPORTED,
                unsupported_feature="ill-formed-ir",
                diagnostic={
                    "type": "lint",
                    "side": which,
                    "function": errors[0].function,
                    "block": errors[0].block,
                    "instruction": errors[0].instruction,
                    "errors": [str(d) for d in errors[:5]],
                },
            )
    return None


def run_verification_job(
    src: Function,
    tgt: Function,
    module_src: Module,
    module_tgt: Optional[Module] = None,
    options: Optional[VerifyOptions] = None,
    ladder: Optional[DegradationLadder] = None,
    lint: bool = True,
) -> RefinementResult:
    """The fault-tolerant replacement for a bare ``verify_refinement``.

    Lint-gates the pair, crash-isolates every attempt, and walks the
    degradation ladder on TIMEOUT/OOM.  This is what the TV plugin, the
    suite runner and the serve workers call; ``verify_refinement`` itself
    stays a pure library function.

    With a result cache active, the whole job is first looked up in it
    (keyed by :func:`repro.engine.qcache.pair_fingerprint`): a hit
    returns the stored result before lint, and a miss runs the job and
    stores a storable result.  A test with an armed fault skips the
    cache, since the fault plan is an input the key does not cover.
    """
    options = options or VerifyOptions()
    cache = qcache.active()
    if cache is None or faults.armed():
        return _run_job(src, tgt, module_src, module_tgt, options, ladder, lint)
    key = qcache.pair_fingerprint(src, tgt, module_src, module_tgt, options, lint)
    hit = cache.lookup_pair(key)
    if hit is not None:
        return hit
    result = _run_job(src, tgt, module_src, module_tgt, options, ladder, lint)
    cache.store_pair(key, result)
    return result


def _run_job(
    src: Function,
    tgt: Function,
    module_src: Module,
    module_tgt: Optional[Module],
    options: VerifyOptions,
    ladder: Optional[DegradationLadder],
    lint: bool,
) -> RefinementResult:
    if lint:
        # A crash *inside the linter* must not block verification; only a
        # clean UNSUPPORTED finding gates.
        gated = run_contained(lambda: lint_gate(src, tgt), phase="lint")
        if gated is not None and gated.verdict is Verdict.UNSUPPORTED:
            return gated

    def attempt(opts: VerifyOptions) -> RefinementResult:
        return run_contained(
            lambda: verify_refinement(src, tgt, module_src, module_tgt, opts)
        )

    return run_with_degradation(attempt, options, ladder)
