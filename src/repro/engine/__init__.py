"""The verification engine: throughput machinery on top of the checker.

``repro.engine`` is the layer between the suite runner and the
refinement checker that makes whole-corpus runs fast:

* :mod:`repro.engine.qcache` — a result cache of whole verification
  jobs keyed by a content hash of every input a job reads, so a
  repeated (src, tgt) pair is verified once;
* :mod:`repro.engine.pool` — a process-pool scheduler that fans
  per-test jobs out to worker processes (each its own crash-isolation
  domain) with a single-writer journal merge.
"""

from repro.engine.qcache import QueryCache, activate, active

__all__ = [
    "QueryCache",
    "activate",
    "active",
]
