"""Sharded two-tier solver query cache keyed by canonical content hashes.

Two different unit tests frequently pose *structurally identical*
refinement queries — the same pass applied to the same idiom produces
the same (phi, psi) pair up to the fresh-name counter baked into
variable names like ``tmp!42``.  This module hashes the assertion DAG
after renaming variables by first occurrence in a deterministic
traversal, so the digest is independent of object identities and of the
global fresh-name counter.  A hit replays the recorded verdict (and
counterexample model, translated back through the renaming) without
touching the solver at all.

The cache is **two-tier** and **sharded**:

* the hot tier is an in-memory LRU per shard, bounded in entries and
  bytes (with hit/miss/eviction counters), so a long-lived worker cannot
  grow without limit — the degradation ladder's ``lru-shrink`` rung
  halves the bounds after a MEMOUT;
* the warm tier is one append-only JSONL file *per shard* in the same
  style as the run journal: each entry is written with a *single*
  ``O_APPEND`` ``write`` syscall so concurrent single-line appends from
  many workers never interleave mid-line, and loading quarantines
  (counts, logs, and skips) corrupted or truncated lines instead of
  raising.  :meth:`QueryCache.heal` atomically rewrites each shard file
  with only its valid entries.

Entries are routed to shards by a prefix of the canonical digest
(:func:`shard_index`), which is deterministic across processes: the same
query always lands in the same shard no matter which worker computed it.
Every worker loads every shard and appends each store to the shard its
digest routes to, so an entry one worker computed answers every other
worker's next run.

Legacy single-file caches (the pre-shard layout, where ``path`` itself
is the JSONL file) are migrated by a compat loader on first sharded
open: the file is atomically claimed by rename, its valid entries are
re-appended into the per-shard files, and the original is kept as
``<path>.migrated``.  ``shards=1`` keeps the legacy layout bit-for-bit
(the single shard's file *is* ``path``).

Soundness policy (unchanged from the unsharded cache):

* definitive verdicts (``sat``/``unsat``) are sound under *any* resource
  budget, so they are the only thing the cache stores and replays;
* resource-exhaustion verdicts (``timeout``/``memout``) are **never
  cached**.  Queries run under the *remaining* per-test deadline — a
  shrinking budget — so a TIMEOUT observed with 0.2s left of a 30s
  budget says nothing about the same query under a fresh budget.  This
  is the poisoning guard: ``store`` silently drops them and loading
  refuses crafted disk entries;
* entries record whether their verdict carried a checker-accepted proof
  certificate (``certified``); under ``--certify`` an *uncertified*
  ``unsat`` entry is treated as a miss and re-solved, so a certified run
  never replays an unchecked claim (CACHE_VERSION 3).

The **pair tier** sits in front of all of that.  A pair entry holds the
whole result of one verification job (one src/tgt pair), keyed by
:func:`pair_fingerprint` over every input the job reads — the printed
functions and modules, every option, the lint flag and a digest of this
package's own source — so a repeated pair skips lint, unroll, encoding,
the analyses and every query.  The same policy holds one level up: only
definitive verdicts are stored (never TIMEOUT, OOM, CRASH or
SOLVER_UNSOUND, never a degraded result or one with a rejected proof
certificate), no timing is stored, and loading refuses a pair line whose
verdict is not storable or whose payload is malformed.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from collections import OrderedDict
from contextlib import contextmanager
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.printer import print_function
from repro.smt.terms import Term

if TYPE_CHECKING:  # check.py imports this module
    from repro.refinement.check import RefinementResult, VerifyOptions

logger = logging.getLogger("repro.engine.qcache")

# Version 4: fingerprints are computed on post-extraction canonical terms
# (the e-graph rung rewrites queries before hashing), so entries written
# by earlier versions must not replay.  The sharded layout reuses the
# same entry format — shard files and the legacy single file interchange
# entry-for-entry, which is what makes the compat migration a pure move.
# Version 5: the relational analysis contributes witness seeds and union
# seeds that enter the query fingerprints (seeded instantiations are part
# of the hashed assertion set, and union seeds change the e-graph's
# canonical extraction), so v4 entries written without them must not
# replay into runs that compute them — and vice versa.
CACHE_VERSION = 5

#: The only verdicts the cache stores: sound to replay regardless of
#: resource limits.  Exhaustion verdicts (timeout/memout) are never
#: cached — see the module docstring.
_DEFINITIVE = ("sat", "unsat")

#: The verdicts a pair entry may hold: everything that is not resource
#: exhaustion, a contained crash, or a solver caught lying.
PAIR_VERDICTS = frozenset(
    ("correct", "incorrect", "unsupported", "approx", "empty-pre")
)

#: The note a replayed pair result carries.
PAIR_NOTE = "pair-cache: replayed a stored result of this exact job"

#: Result fields a pair entry stores, with their JSON types; timing
#: (``elapsed_s``, ``phase_times``) is deliberately absent.
_PAIR_FIELDS = {
    "verdict": str,
    "failed_check": (str, type(None)),
    "counterexample": dict,
    "approx_features": list,
    "unsupported_feature": (str, type(None)),
    "degradations": list,
    "diagnostic": (dict, type(None)),
    "certificates": list,
    "notes": list,
}

#: Default hot-tier bounds, cache-wide (split evenly across shards).
#: Generous enough that ordinary corpus runs never evict; the point is
#: an upper bound for long-lived warm-pool workers, not a working-set
#: knob.
DEFAULT_MAX_ENTRIES = 1 << 16
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Floor for :meth:`QueryCache.shrink` (the ``lru-shrink`` degradation
#: rung); below this the cache stops being useful and further halving
#: only burns retries.
MIN_SHRINK_ENTRIES = 64


def shard_index(digest: str, shards: int) -> int:
    """The shard a digest routes to: deterministic across processes.

    Uses the leading 32 bits of the (hex, uniformly distributed) sha256
    digest, so the same canonical query lands in the same shard no
    matter which worker — or which run — computed it.
    """
    if shards <= 1:
        return 0
    return int(digest[:8], 16) % shards


def shard_path(path: str, index: int, shards: int) -> str:
    """The on-disk file backing one shard of a sharded cache.

    The shard count is baked into the name so files written under a
    different ``shards=N`` can never be misrouted into this layout —
    they are simply not loaded.
    """
    if shards <= 1:
        return path
    return f"{path}.shard-{index:02d}-of-{shards:02d}"


def _append_entry(path: str, entry: dict) -> None:
    """Append one entry to ``path`` with a single ``O_APPEND`` write.

    The kernel serializes the append position, so concurrent workers
    sharing the file can never interleave *within* a line — the only
    torn write a crash can produce is a truncated final line, which
    loading (and ``heal()``) quarantines.  A read-only or vanished file
    degrades to memory-only silently.
    """
    line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
    parent = os.path.dirname(path)
    try:
        if parent:
            os.makedirs(parent, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)
    except OSError:
        pass


def canonical_fingerprint(
    items: Sequence[Tuple[str, Term]],
) -> Tuple[str, Dict[str, str]]:
    """Hash a sequence of tagged terms into a content digest.

    Returns ``(digest, rename)`` where ``rename`` maps every variable
    name occurring in the terms to its canonical name (``v0``, ``v1``,
    ... in first-occurrence order of the traversal).  Structurally equal
    term sequences produce equal digests and *positionally* equal
    renamings even when the underlying variable names differ — the
    property that makes cached counterexample models translatable.
    """
    rename: Dict[str, str] = {}
    index: Dict[Term, int] = {}
    lines: List[str] = []

    def visit(root: Term) -> None:
        stack: List[Tuple[Term, bool]] = [(root, False)]
        while stack:
            t, expanded = stack.pop()
            if t in index:
                continue
            if not expanded:
                stack.append((t, True))
                stack.extend((a, False) for a in t.args)
                continue
            if t.op == "var":
                payload = rename.setdefault(t.payload, f"v{len(rename)}")
            else:
                payload = str(t.payload)
            # One JSON array per node: injective, so a payload containing
            # a delimiter or newline cannot forge field/line boundaries
            # and alias a structurally different term sequence.
            lines.append(
                json.dumps([t.op, t.width, payload, [index[a] for a in t.args]])
            )
            index[t] = len(index)

    for tag, term in items:
        visit(term)
        lines.append(json.dumps(["@", tag, index[term]]))
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest, rename


@lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 over this package's ``.py`` files, computed once per process.

    Part of every pair key, so a pair entry written by other code (say,
    before a fix to the encoder) never replays into this code.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            h.update(json.dumps([rel, len(data)]).encode("utf-8"))
            h.update(data)
    return h.hexdigest()


def _function_text(fn: Function) -> str:
    """``fn`` as the verifier reads it: its printed text plus what the
    printer does not show (the label fields, and each instruction's
    result and operand types, which it prints only where the syntax
    needs them); memoized on a sealed function."""
    return fn.fact(
        "pair-text",
        lambda: json.dumps(
            [
                print_function(fn),
                list(fn.duplicate_labels),
                sorted(fn.sink_labels),
                [
                    [str(getattr(inst, "type", None))]
                    + [str(op.type) for op in inst.operands]
                    for inst in fn.instructions()
                ],
            ]
        ),
    )


def pair_fingerprint(
    src: Function,
    tgt: Function,
    module_src: Module,
    module_tgt: Optional[Module],
    options: "VerifyOptions",
    lint: bool,
) -> str:
    """The pair-tier key of one verification job: a SHA-256 over every
    input the job reads, so two jobs that could differ in verdict never
    share a key.

    Covers this package's source (:func:`source_digest`), every option
    and the lint flag, src and tgt with their label fields and types,
    and both modules' globals (printed, plus ``align`` and the
    initializer's type, which the printer omits) and functions, so
    callee declarations and their attributes count.
    Every part is length-prefixed; nothing depends on ``PYTHONHASHSEED``.
    """
    module_tgt = module_src if module_tgt is None else module_tgt
    h = hashlib.sha256()

    def part(text: str) -> None:
        data = text.encode("utf-8")
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)

    part("pair")
    part(source_digest())
    part(json.dumps([options.to_json(), bool(lint)], sort_keys=True))
    part(_function_text(src))
    part(_function_text(tgt))
    for module in (module_src, module_tgt):
        part(
            json.dumps(
                [
                    [str(g), g.align, str(getattr(g.initializer, "type", None))]
                    for g in module.globals.values()
                ]
            )
        )
        part(str(len(module.functions)))
        for fn in module.functions.values():
            part(_function_text(fn))
    return h.hexdigest()


def _pair_payload_ok(payload: object) -> bool:
    """A stored pair result is well-formed and storable."""
    if not isinstance(payload, dict):
        return False
    for name, kind in _PAIR_FIELDS.items():
        if not isinstance(payload.get(name), kind):
            return False
    return (
        payload["verdict"] in PAIR_VERDICTS
        and not payload["degradations"]
        and all(isinstance(n, str) for n in payload["notes"])
        and all(isinstance(f, str) for f in payload["approx_features"])
        and all(
            isinstance(c, dict) and c.get("valid") is True
            for c in payload["certificates"]
        )
    )


class CacheShard:
    """One shard: a bounded in-memory LRU over one append-only JSONL file.

    A shard with a file loads it on construction and appends every
    store; without one it is a pure memory tier.  Either way the LRU
    bounds hold.
    """

    __slots__ = (
        "index",
        "path",
        "max_entries",
        "max_bytes",
        "entries",
        "mem_bytes",
        "evictions",
        "dropped_lines",
        "loaded_entries",
        "loaded_bytes",
    )

    def __init__(
        self,
        index: int,
        path: Optional[str],
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        self.index = index
        self.path = path
        self.max_entries = max(1, max_entries)
        self.max_bytes = max(1, max_bytes)
        self.entries: "OrderedDict[str, dict]" = OrderedDict()
        self.mem_bytes = 0
        self.evictions = 0
        self.dropped_lines = 0
        self.loaded_entries = 0
        self.loaded_bytes = 0
        if self.path is not None:
            self._load()

    # -- persistence -------------------------------------------------------
    def _parse_entry(self, line: str) -> Optional[dict]:
        """One validated cache entry, or None (quarantined: counted + logged)."""
        try:
            entry = json.loads(line)
        except ValueError:
            entry = None
        if (
            not isinstance(entry, dict)
            or entry.get("v") != CACHE_VERSION
            or not isinstance(entry.get("key"), str)
            or not (
                _pair_payload_ok(entry.get("pair"))
                if entry.get("kind") == "pair"
                else entry.get("result") in _DEFINITIVE
            )
        ):
            self.dropped_lines += 1
            logger.warning(
                "quarantined cache line in %s (%d so far): %.80r",
                self.path,
                self.dropped_lines,
                line,
            )
            return None
        return entry

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        try:
            with open(self.path, "rb") as fh:
                raw = fh.read().decode("utf-8", errors="replace")
        except OSError:
            return
        self.loaded_bytes += len(raw)
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            entry = self._parse_entry(line)
            if entry is not None:
                self._put_mem(entry["key"], entry, len(line) + 1)
                self.loaded_entries += 1

    def _append(self, entry: dict) -> None:
        _append_entry(self.path, entry)

    def heal(self) -> int:
        """Atomically rewrite this shard's file with only its valid entries.

        Entries appended by *other* writers since our load are preserved —
        the file is re-scanned, not dumped from memory.  Returns the
        number of lines discarded.  The rewrite is temp-file + ``rename``
        in the same directory, so a crash mid-heal leaves either the old
        file or the new one, never a half-written shard.
        """
        if self.path is None or not os.path.exists(self.path):
            return 0
        before = self.dropped_lines
        try:
            with open(self.path, "rb") as fh:
                raw = fh.read().decode("utf-8", errors="replace")
        except OSError:
            return 0
        kept: "OrderedDict[str, dict]" = OrderedDict()
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            entry = self._parse_entry(line)
            if entry is not None:
                # Last write wins, mirroring the load path; keying by
                # digest also collapses duplicates a crashed migration
                # may have double-appended.
                kept[entry["key"]] = entry
                if entry["key"] not in self.entries:
                    self._put_mem(entry["key"], entry, len(line) + 1)
        discarded = self.dropped_lines - before
        parent = os.path.dirname(self.path) or "."
        try:
            fd, tmp = tempfile.mkstemp(
                prefix=".qcache-heal-", suffix=".jsonl", dir=parent
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    for entry in kept.values():
                        fh.write(json.dumps(entry, sort_keys=True) + "\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            return 0
        if discarded:
            logger.warning(
                "healed cache shard %s: discarded %d corrupt line(s), kept %d",
                self.path,
                discarded,
                len(kept),
            )
        return discarded

    # -- hot tier (LRU) ----------------------------------------------------
    @staticmethod
    def _entry_cost(entry: dict) -> int:
        return len(json.dumps(entry, sort_keys=True)) + 1

    def _put_mem(self, key: str, entry: dict, cost: Optional[int] = None) -> None:
        if cost is None:
            cost = self._entry_cost(entry)
        old = self.entries.pop(key, None)
        if old is not None:
            self.mem_bytes -= self._entry_cost(old)
        self.entries[key] = entry
        self.mem_bytes += cost
        self._evict()

    def _evict(self) -> None:
        while self.entries and (
            len(self.entries) > self.max_entries
            or self.mem_bytes > self.max_bytes
        ):
            _key, entry = self.entries.popitem(last=False)
            self.mem_bytes -= self._entry_cost(entry)
            self.evictions += 1

    def get(self, key: str) -> Optional[dict]:
        entry = self.entries.get(key)
        if entry is not None:
            self.entries.move_to_end(key)
        return entry

    def put(self, key: str, entry: dict) -> None:
        self._put_mem(key, entry)
        if self.path is not None:
            self._append(entry)

    def set_bounds(self, max_entries: int, max_bytes: int) -> None:
        self.max_entries = max(1, max_entries)
        self.max_bytes = max(1, max_bytes)
        self._evict()

    def counters(self) -> Dict[str, object]:
        return {
            "shard": self.index,
            "entries": len(self.entries),
            "mem_bytes": self.mem_bytes,
            "evictions": self.evictions,
            "quarantined": self.dropped_lines,
            "load_entries": self.loaded_entries,
            "load_bytes": self.loaded_bytes,
        }


class QueryCache:
    """Sharded in-memory LRU + optional JSONL-on-disk query-result map.

    Thread-unsafe by design; each worker process owns its own instance.
    Concurrent *disk* writers are tolerated: every entry is one small
    appended line to a per-shard file, and loading drops anything
    unparseable.

    ``shards=1`` (the default) is the legacy layout: one shard whose
    file is ``path`` itself.  With ``shards=N`` entries are routed by
    digest prefix to ``path.shard-KK-of-NN`` files; every instance loads
    all of them.

    Two kinds of entry share the shards: *query* entries (one solver
    query's verdict, :meth:`lookup`/:meth:`store`) and *pair* entries
    (one whole verification job's result, :meth:`lookup_pair`/
    :meth:`store_pair`).  Neither ever answers a lookup of the other.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        shards: int = 1,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        self.path = os.fspath(path) if path is not None else None
        shards = int(shards)
        if shards <= 0:
            raise ValueError(
                f"cache shard count must be a positive integer, got {shards}"
            )
        self.shards = shards
        self.max_entries = max(1, max_entries)
        self.max_bytes = max(1, max_bytes)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.pair_hits = 0
        if self.path is not None:
            self._warn_shard_mismatch()
        if self.path is not None and self.shards > 1:
            self._migrate_legacy()
        per_entries = max(1, self.max_entries // self.shards)
        per_bytes = max(1, self.max_bytes // self.shards)
        self._shards: List[CacheShard] = [
            CacheShard(
                k,
                shard_path(self.path, k, self.shards)
                if self.path is not None
                else None,
                max_entries=per_entries,
                max_bytes=per_bytes,
            )
            for k in range(self.shards)
        ]

    def _warn_shard_mismatch(self) -> None:
        """Flag shard files written under a different ``shards=N``.

        Mismatched files are never loaded (the count is baked into the
        file name), which silently looks like an empty cache — so tell
        the user what happened and how to get their entries back.
        """
        import glob as _glob
        import re as _re

        pattern = _glob.escape(self.path) + ".shard-*-of-*"
        found = set()
        for candidate in _glob.glob(pattern):
            m = _re.search(r"\.shard-(\d+)-of-(\d+)$", candidate)
            if m is not None and int(m.group(2)) != self.shards:
                found.add(int(m.group(2)))
        for other in sorted(found):
            logger.warning(
                "query cache %s has shard files written with "
                "--cache-shards %d, but this run uses --cache-shards %d; "
                "those entries will NOT be loaded (re-run with "
                "--cache-shards %d to reuse them, or delete the stale "
                "shard files to silence this warning)",
                self.path,
                other,
                self.shards,
                other,
            )

    # -- legacy migration --------------------------------------------------
    def _migrate_legacy(self) -> None:
        """Move a pre-shard single-file cache into the per-shard files.

        The legacy file is claimed atomically by rename (losers of a
        concurrent race see FileNotFoundError and skip), its valid
        entries are re-appended into the shard files, and the claimed
        file is kept as ``<path>.migrated``.  A claim file left behind
        by a crashed migration is finished the same way — re-appending
        an entry twice is harmless (same key, last write wins).
        """
        claim = self.path + ".migrating"
        if os.path.exists(self.path):
            try:
                os.rename(self.path, claim)
            except OSError:
                pass  # concurrent migrator won the claim
        if not os.path.exists(claim):
            return
        try:
            with open(claim, "rb") as fh:
                raw = fh.read().decode("utf-8", errors="replace")
        except OSError:
            return
        scratch = CacheShard(0, None)
        moved = 0
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            entry = scratch._parse_entry(line)
            if entry is None:
                continue
            _append_entry(
                shard_path(
                    self.path,
                    shard_index(entry["key"], self.shards),
                    self.shards,
                ),
                entry,
            )
            moved += 1
        try:
            os.replace(claim, self.path + ".migrated")
        except OSError:
            pass
        logger.info(
            "migrated legacy cache %s: %d entr%s into %d shard file(s), "
            "%d line(s) quarantined",
            self.path,
            moved,
            "y" if moved == 1 else "ies",
            self.shards,
            scratch.dropped_lines,
        )

    # -- routing -----------------------------------------------------------
    def _shard(self, digest: str) -> CacheShard:
        return self._shards[shard_index(digest, self.shards)]

    # -- persistence -------------------------------------------------------
    def heal(self) -> int:
        """Self-heal every shard file; returns lines discarded."""
        return sum(s.heal() for s in self._shards)

    # -- lookup / store ----------------------------------------------------
    def lookup(
        self, digest: str, require_certified_unsat: bool = False
    ) -> Optional[dict]:
        """The cached entry for ``digest``, honoring the poisoning guard.

        ``require_certified_unsat`` (certify mode) treats an ``unsat``
        entry recorded without an accepted proof certificate as a miss:
        replaying it would launder an unchecked claim into a certified
        run.  ``sat`` entries replay freely — they are witnessed by a
        model, not by a proof.
        """
        entry = self._shard(digest).get(digest)
        if entry is not None and (
            entry.get("kind") == "pair" or entry.get("result") not in _DEFINITIVE
        ):
            entry = None  # a pair entry, or one that is never stored
        if (
            entry is not None
            and require_certified_unsat
            and entry["result"] == "unsat"
            and not entry.get("certified", False)
        ):
            entry = None
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def store(
        self,
        digest: str,
        result: str,
        model: Optional[Dict[str, object]] = None,
        iterations: int = 0,
        certified: bool = False,
    ) -> None:
        # Exhaustion verdicts are only meaningful for the (shrinking,
        # per-test) deadline they ran under; caching one would replay
        # spurious TIMEOUTs into runs with a full budget.  Drop them.
        if result not in _DEFINITIVE:
            return
        entry = {
            "v": CACHE_VERSION,
            "key": digest,
            "result": result,
            "model": dict(model or {}),
            "iterations": iterations,
            "certified": bool(certified),
        }
        self._shard(digest).put(digest, entry)
        self.stores += 1

    def lookup_pair(self, digest: str) -> Optional["RefinementResult"]:
        """The stored result of the job keyed ``digest``, or None.

        Counts in :attr:`hits`/:attr:`misses` like a query lookup.  Every
        hit is a fresh :class:`~repro.refinement.check.RefinementResult`
        with no timing and :data:`PAIR_NOTE` appended to its notes.
        """
        from repro.refinement.check import RefinementResult

        entry = self._shard(digest).get(digest)
        if entry is None or entry.get("kind") != "pair":
            self.misses += 1
            return None
        self.hits += 1
        self.pair_hits += 1
        result = RefinementResult.from_json(entry["pair"])
        result.notes.append(PAIR_NOTE)
        return result

    def store_pair(self, digest: str, result: "RefinementResult") -> bool:
        """Store one job's result under ``digest`` if it is storable.

        Storable means a verdict in :data:`PAIR_VERDICTS`, no degradation
        step, and no rejected proof certificate.  Timing is dropped: the
        ``elapsed_s``/``phase_times`` fields and the ``phase-times:``
        note.  The payload goes through JSON once, so a memory hit and a
        disk hit replay the same thing.  Returns whether it was stored.
        """
        data = result.to_json(full_certificates=True)
        for name in ("elapsed_s", "phase_times"):
            del data[name]
        data["notes"] = [
            n for n in data["notes"] if not n.startswith("phase-times:")
        ]
        try:
            payload = json.loads(json.dumps(data, sort_keys=True))
        except (TypeError, ValueError):
            return False
        if not _pair_payload_ok(payload):
            return False
        entry = {"v": CACHE_VERSION, "key": digest, "kind": "pair", "pair": payload}
        self._shard(digest).put(digest, entry)
        self.stores += 1
        return True

    # -- bounds (lru-shrink degradation rung) ------------------------------
    def shrink(self) -> Optional[Tuple[int, int]]:
        """Halve the hot-tier bounds (the ``lru-shrink`` MEMOUT rung).

        Returns ``(old_max_entries, new_max_entries)``, or None when the
        bounds are already at the floor.  Entries past the new bounds are
        evicted immediately (memory is released now, not on the next
        store); the disk tier is untouched.
        """
        if self.max_entries <= MIN_SHRINK_ENTRIES:
            return None
        old = self.max_entries
        self.max_entries = max(MIN_SHRINK_ENTRIES, self.max_entries // 2)
        self.max_bytes = max(1 << 20, self.max_bytes // 2)
        per_entries = max(1, self.max_entries // self.shards)
        per_bytes = max(1, self.max_bytes // self.shards)
        for shard in self._shards:
            shard.set_bounds(per_entries, per_bytes)
        return old, self.max_entries

    # -- reporting ---------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(s.entries) for s in self._shards)

    @property
    def dropped_lines(self) -> int:
        return sum(s.dropped_lines for s in self._shards)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "pair_hits": self.pair_hits,
            "stores": self.stores,
            "entries": len(self),
            "quarantined": self.dropped_lines,
            "hit_rate": round(self.hit_rate, 4),
            "shards": self.shards,
            "load_entries": sum(s.loaded_entries for s in self._shards),
            "load_bytes": sum(s.loaded_bytes for s in self._shards),
            "evictions": sum(s.evictions for s in self._shards),
            "mem_bytes": sum(s.mem_bytes for s in self._shards),
            "max_entries": self.max_entries,
            "per_shard": [s.counters() for s in self._shards],
        }


# ---------------------------------------------------------------------------
# Active-cache scoping (mirrors repro.harness.faults.activate)
# ---------------------------------------------------------------------------

_active_cache: Optional[QueryCache] = None


@contextmanager
def activate(cache: Optional[QueryCache]) -> Iterator[Optional[QueryCache]]:
    """Install ``cache`` as the process-wide query cache (None = disabled)."""
    global _active_cache
    previous = _active_cache
    _active_cache = cache
    try:
        yield cache
    finally:
        _active_cache = previous


def active() -> Optional[QueryCache]:
    return _active_cache
