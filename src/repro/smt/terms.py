"""Hash-consed boolean / bitvector terms with constant folding.

Terms are immutable and interned: structurally equal terms are the same
Python object, so equality and hashing are identity-based and cheap.
Smart constructors perform constant folding and light algebraic
simplification; this mirrors the formula-shrinking described in §3.7 of
the Alive2 paper and keeps the bit-blasted CNF small.

Bitvectors are fixed-width and unsigned in representation; signed
operations interpret the two's-complement value.  Bit order is LSB-first
everywhere in this code base.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

# ---------------------------------------------------------------------------
# Term representation
# ---------------------------------------------------------------------------

_INTERN: Dict[tuple, "Term"] = {}
#: How many times :func:`reset_interning` has run.
_GENERATION = 0

#: Callbacks invoked by :func:`reset_interning`.  Any module that caches
#: data keyed by interned terms must register a hook here, or a recycled
#: term object could alias a stale entry after a reset.
_RESET_HOOKS: List[Callable[[], None]] = []


def on_reset(hook: Callable[[], None]) -> Callable[[], None]:
    """Register ``hook`` to run whenever the intern table is reset."""
    _RESET_HOOKS.append(hook)
    return hook


def intern_size() -> int:
    """Number of live interned terms (the warm pool's memory gauge).

    Warm-pool workers keep the interned universe alive across tests to
    amortize re-interning, but reset it once this count crosses their
    high-water mark — the same :func:`reset_interning` a cold pool runs
    per test, just triggered by memory pressure instead of test count.
    """
    return len(_INTERN)


def intern_generation() -> int:
    """The number of :func:`reset_interning` calls so far.

    A memo that holds terms outside the registered reset hooks (a sealed
    function's encodings, :mod:`repro.refinement.check`) puts this in its
    key: terms built before a reset are no longer the interned
    representatives, so an entry of an older generation is never reused.
    """
    return _GENERATION


def reset_interning() -> None:
    """Clear the intern table (mainly to bound memory in long test runs).

    Also clears every term-keyed cache registered with :func:`on_reset`,
    and re-registers the canonical TRUE/FALSE singletons so boolean
    folding keeps returning the module-level objects.
    """
    global _GENERATION
    _GENERATION += 1
    _INTERN.clear()
    _SUBST_CACHE.clear()
    for hook in _RESET_HOOKS:
        hook()
    _INTERN[("const", (), 0, True)] = TRUE
    _INTERN[("const", (), 0, False)] = FALSE


class Term:
    """A boolean (``width == 0``) or bitvector (``width >= 1``) term."""

    __slots__ = ("op", "args", "width", "payload", "_hash", "_vars")

    def __init__(self, op: str, args: Tuple["Term", ...], width: int, payload):
        self.op = op
        self.args = args
        self.width = width
        self.payload = payload
        self._hash = hash((op, args, width, payload))
        self._vars: Optional[FrozenSet[str]] = None

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.op == "const":
            return f"{self.payload}:{self.width}" if self.width else str(self.payload)
        if self.op == "var":
            return str(self.payload)
        inner = " ".join(repr(a) for a in self.args)
        extra = f" {self.payload}" if self.payload is not None else ""
        return f"({self.op}{extra} {inner})"

    @property
    def is_bool(self) -> bool:
        return self.width == 0

    @property
    def is_const(self) -> bool:
        return self.op == "const"

    @property
    def value(self):
        """Constant payload (int for bitvectors, bool for booleans)."""
        assert self.op == "const"
        return self.payload


BoolTerm = Term
BvTerm = Term


def _mk(op: str, args: Tuple[Term, ...], width: int, payload=None) -> Term:
    key = (op, args, width, payload)
    term = _INTERN.get(key)
    if term is None:
        term = Term(op, args, width, payload)
        _INTERN[key] = term
    return term


TRUE: BoolTerm = _mk("const", (), 0, True)
FALSE: BoolTerm = _mk("const", (), 0, False)


def bool_const(value: bool) -> BoolTerm:
    return TRUE if value else FALSE


def bool_var(name: str) -> BoolTerm:
    return _mk("var", (), 0, name)


def bv_var(name: str, width: int) -> BvTerm:
    assert width >= 1
    return _mk("var", (), width, name)


def bv_const(value: int, width: int) -> BvTerm:
    assert width >= 1
    return _mk("const", (), width, value & ((1 << width) - 1))


def _mask(width: int) -> int:
    return (1 << width) - 1


def _to_signed(value: int, width: int) -> int:
    if value >= 1 << (width - 1):
        return value - (1 << width)
    return value


# ---------------------------------------------------------------------------
# Boolean connectives
# ---------------------------------------------------------------------------


def bool_not(a: BoolTerm) -> BoolTerm:
    assert a.is_bool
    if a.is_const:
        return bool_const(not a.value)
    if a.op == "not":
        return a.args[0]
    return _mk("not", (a,), 0)


def bool_and(*terms: BoolTerm) -> BoolTerm:
    flat = []
    for t in terms:
        assert t.is_bool
        if t is FALSE:
            return FALSE
        if t is TRUE:
            continue
        if t.op == "and":
            flat.extend(t.args)
        else:
            flat.append(t)
    uniq: list[Term] = []
    seen = set()
    for t in flat:
        if t in seen:
            continue
        if bool_not(t) in seen:
            return FALSE
        seen.add(t)
        uniq.append(t)
    if not uniq:
        return TRUE
    if len(uniq) == 1:
        return uniq[0]
    return _mk("and", tuple(uniq), 0)


def bool_or(*terms: BoolTerm) -> BoolTerm:
    flat = []
    for t in terms:
        assert t.is_bool
        if t is TRUE:
            return TRUE
        if t is FALSE:
            continue
        if t.op == "or":
            flat.extend(t.args)
        else:
            flat.append(t)
    uniq: list[Term] = []
    seen = set()
    for t in flat:
        if t in seen:
            continue
        if bool_not(t) in seen:
            return TRUE
        seen.add(t)
        uniq.append(t)
    if not uniq:
        return FALSE
    if len(uniq) == 1:
        return uniq[0]
    return _mk("or", tuple(uniq), 0)


def bool_xor(a: BoolTerm, b: BoolTerm) -> BoolTerm:
    assert a.is_bool and b.is_bool
    if a.is_const:
        return bool_not(b) if a.value else b
    if b.is_const:
        return bool_not(a) if b.value else a
    if a is b:
        return FALSE
    return _mk("xor", (a, b), 0)


def bool_implies(a: BoolTerm, b: BoolTerm) -> BoolTerm:
    return bool_or(bool_not(a), b)


def bool_ite(cond: BoolTerm, then: BoolTerm, els: BoolTerm) -> BoolTerm:
    assert cond.is_bool and then.is_bool and els.is_bool
    if cond.is_const:
        return then if cond.value else els
    if then is els:
        return then
    if then is TRUE and els is FALSE:
        return cond
    if then is FALSE and els is TRUE:
        return bool_not(cond)
    if then is TRUE:
        return bool_or(cond, els)
    if then is FALSE:
        return bool_and(bool_not(cond), els)
    if els is TRUE:
        return bool_or(bool_not(cond), then)
    if els is FALSE:
        return bool_and(cond, then)
    return _mk("ite", (cond, then, els), 0)


# ---------------------------------------------------------------------------
# Bitvector arithmetic / logic
# ---------------------------------------------------------------------------


def _binop(op: str, a: BvTerm, b: BvTerm, fold) -> BvTerm:
    assert a.width == b.width and a.width >= 1, (op, a.width, b.width)
    if a.is_const and b.is_const:
        return bv_const(fold(a.value, b.value, a.width), a.width)
    return _mk(op, (a, b), a.width)


def bv_add(a: BvTerm, b: BvTerm) -> BvTerm:
    if a.is_const and a.value == 0:
        return b
    if b.is_const and b.value == 0:
        return a
    return _binop("bvadd", a, b, lambda x, y, w: (x + y) & _mask(w))


def bv_sub(a: BvTerm, b: BvTerm) -> BvTerm:
    if b.is_const and b.value == 0:
        return a
    if a is b:
        return bv_const(0, a.width)
    return _binop("bvsub", a, b, lambda x, y, w: (x - y) & _mask(w))


def bv_mul(a: BvTerm, b: BvTerm) -> BvTerm:
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.value == 0:
                return bv_const(0, a.width)
            if x.value == 1:
                return y
    return _binop("bvmul", a, b, lambda x, y, w: (x * y) & _mask(w))


def bv_udiv(a: BvTerm, b: BvTerm) -> BvTerm:
    """Unsigned division; division by zero yields all-ones (SMT-LIB)."""
    if b.is_const and b.value == 1:
        return a
    return _binop("bvudiv", a, b, lambda x, y, w: _mask(w) if y == 0 else x // y)


def bv_urem(a: BvTerm, b: BvTerm) -> BvTerm:
    return _binop("bvurem", a, b, lambda x, y, w: x if y == 0 else x % y)


def _sdiv_fold(x: int, y: int, w: int) -> int:
    if y == 0:
        return _mask(w)
    sx, sy = _to_signed(x, w), _to_signed(y, w)
    q = abs(sx) // abs(sy)
    if (sx < 0) != (sy < 0):
        q = -q
    return q & _mask(w)


def _srem_fold(x: int, y: int, w: int) -> int:
    if y == 0:
        return x
    sx, sy = _to_signed(x, w), _to_signed(y, w)
    r = abs(sx) % abs(sy)
    if sx < 0:
        r = -r
    return r & _mask(w)


def bv_sdiv(a: BvTerm, b: BvTerm) -> BvTerm:
    return _binop("bvsdiv", a, b, _sdiv_fold)


def bv_srem(a: BvTerm, b: BvTerm) -> BvTerm:
    return _binop("bvsrem", a, b, _srem_fold)


def bv_and(a: BvTerm, b: BvTerm) -> BvTerm:
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.value == 0:
                return bv_const(0, a.width)
            if x.value == _mask(a.width):
                return y
    if a is b:
        return a
    return _binop("bvand", a, b, lambda x, y, w: x & y)


def bv_or(a: BvTerm, b: BvTerm) -> BvTerm:
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.value == 0:
                return y
            if x.value == _mask(a.width):
                return bv_const(_mask(a.width), a.width)
    if a is b:
        return a
    return _binop("bvor", a, b, lambda x, y, w: x | y)


def bv_xor(a: BvTerm, b: BvTerm) -> BvTerm:
    if a is b:
        return bv_const(0, a.width)
    for x, y in ((a, b), (b, a)):
        if x.is_const and x.value == 0:
            return y
    return _binop("bvxor", a, b, lambda x, y, w: x ^ y)


def bv_not(a: BvTerm) -> BvTerm:
    if a.is_const:
        return bv_const(~a.value, a.width)
    if a.op == "bvnot":
        return a.args[0]
    return _mk("bvnot", (a,), a.width)


def bv_neg(a: BvTerm) -> BvTerm:
    if a.is_const:
        return bv_const(-a.value, a.width)
    return _mk("bvneg", (a,), a.width)


def bv_shl(a: BvTerm, b: BvTerm) -> BvTerm:
    if b.is_const:
        sh = b.value
        if sh == 0:
            return a
        if sh >= a.width:
            return bv_const(0, a.width)
        if a.is_const:
            return bv_const(a.value << sh, a.width)
    return _binop(
        "bvshl", a, b, lambda x, y, w: 0 if y >= w else (x << y) & _mask(w)
    )


def bv_lshr(a: BvTerm, b: BvTerm) -> BvTerm:
    if b.is_const:
        sh = b.value
        if sh == 0:
            return a
        if sh >= a.width:
            return bv_const(0, a.width)
        if a.is_const:
            return bv_const(a.value >> sh, a.width)
    return _binop("bvlshr", a, b, lambda x, y, w: 0 if y >= w else x >> y)


def _ashr_fold(x: int, y: int, w: int) -> int:
    sx = _to_signed(x, w)
    if y >= w:
        y = w - 1
    return (sx >> y) & _mask(w)


def bv_ashr(a: BvTerm, b: BvTerm) -> BvTerm:
    if b.is_const and b.value == 0:
        return a
    return _binop("bvashr", a, b, _ashr_fold)


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def bv_eq(a: BvTerm, b: BvTerm) -> BoolTerm:
    assert a.width == b.width and a.width >= 1
    if a is b:
        return TRUE
    if a.is_const and b.is_const:
        return bool_const(a.value == b.value)
    return _mk("bveq", (a, b), 0)


def bv_ult(a: BvTerm, b: BvTerm) -> BoolTerm:
    assert a.width == b.width
    if a is b:
        return FALSE
    if a.is_const and b.is_const:
        return bool_const(a.value < b.value)
    if b.is_const and b.value == 0:
        return FALSE
    return _mk("bvult", (a, b), 0)


def bv_ule(a: BvTerm, b: BvTerm) -> BoolTerm:
    return bool_not(bv_ult(b, a))


def bv_slt(a: BvTerm, b: BvTerm) -> BoolTerm:
    assert a.width == b.width
    if a is b:
        return FALSE
    if a.is_const and b.is_const:
        return bool_const(_to_signed(a.value, a.width) < _to_signed(b.value, b.width))
    return _mk("bvslt", (a, b), 0)


def bv_sle(a: BvTerm, b: BvTerm) -> BoolTerm:
    return bool_not(bv_slt(b, a))


# ---------------------------------------------------------------------------
# Structure: concat / extract / extensions / ite
# ---------------------------------------------------------------------------


def bv_concat(hi: BvTerm, lo: BvTerm) -> BvTerm:
    """Concatenate: result bits are ``hi ++ lo`` with ``lo`` at the LSBs."""
    if hi.is_const and lo.is_const:
        return bv_const((hi.value << lo.width) | lo.value, hi.width + lo.width)
    return _mk("concat", (hi, lo), hi.width + lo.width)


def bv_extract(a: BvTerm, hi: int, lo: int) -> BvTerm:
    """Extract bits ``hi..lo`` inclusive (LSB is bit 0)."""
    assert 0 <= lo <= hi < a.width
    if lo == 0 and hi == a.width - 1:
        return a
    if a.is_const:
        return bv_const(a.value >> lo, hi - lo + 1)
    if a.op == "concat":
        h, l = a.args
        if hi < l.width:
            return bv_extract(l, hi, lo)
        if lo >= l.width:
            return bv_extract(h, hi - l.width, lo - l.width)
    if a.op == "extract":
        base_lo = a.payload[1]
        return bv_extract(a.args[0], base_lo + hi, base_lo + lo)
    return _mk("extract", (a,), hi - lo + 1, (hi, lo))


def bv_zext(a: BvTerm, width: int) -> BvTerm:
    assert width >= a.width
    if width == a.width:
        return a
    return bv_concat(bv_const(0, width - a.width), a)


def bv_sext(a: BvTerm, width: int) -> BvTerm:
    assert width >= a.width
    if width == a.width:
        return a
    if a.is_const:
        return bv_const(_to_signed(a.value, a.width), width)
    return _mk("sext", (a,), width)


def bv_ite(cond: BoolTerm, then: BvTerm, els: BvTerm) -> BvTerm:
    assert cond.is_bool and then.width == els.width and then.width >= 1
    if cond.is_const:
        return then if cond.value else els
    if then is els:
        return then
    return _mk("bvite", (cond, then, els), then.width)


def bool_to_bv(cond: BoolTerm, width: int = 1) -> BvTerm:
    """Encode a boolean as an ``i<width>`` bitvector (1 for true)."""
    return bv_ite(cond, bv_const(1, width), bv_const(0, width))


def bv_is_nonzero(a: BvTerm) -> BoolTerm:
    return bool_not(bv_eq(a, bv_const(0, a.width)))


# ---------------------------------------------------------------------------
# Traversal utilities
# ---------------------------------------------------------------------------


def term_vars(term: Term) -> FrozenSet[str]:
    """Set of variable names occurring in ``term`` (cached on the node)."""
    if term._vars is not None:
        return term._vars
    # Iterative DFS; results cached per node so shared DAGs stay cheap.
    stack = [term]
    order = []
    visited = set()
    while stack:
        t = stack.pop()
        if id(t) in visited or t._vars is not None:
            continue
        visited.add(id(t))
        order.append(t)
        stack.extend(t.args)
    for t in reversed(order):
        if t.op == "var":
            t._vars = frozenset((t.payload,))
        else:
            acc: FrozenSet[str] = frozenset()
            for a in t.args:
                acc |= a._vars if a._vars is not None else term_vars(a)
            t._vars = acc
    return term._vars  # type: ignore[return-value]


_REBUILDERS = {
    "not": lambda args, p, w: bool_not(args[0]),
    "and": lambda args, p, w: bool_and(*args),
    "or": lambda args, p, w: bool_or(*args),
    "xor": lambda args, p, w: bool_xor(args[0], args[1]),
    "ite": lambda args, p, w: bool_ite(args[0], args[1], args[2]),
    "bveq": lambda args, p, w: bv_eq(args[0], args[1]),
    "bvult": lambda args, p, w: bv_ult(args[0], args[1]),
    "bvslt": lambda args, p, w: bv_slt(args[0], args[1]),
    "bvadd": lambda args, p, w: bv_add(args[0], args[1]),
    "bvsub": lambda args, p, w: bv_sub(args[0], args[1]),
    "bvmul": lambda args, p, w: bv_mul(args[0], args[1]),
    "bvudiv": lambda args, p, w: bv_udiv(args[0], args[1]),
    "bvurem": lambda args, p, w: bv_urem(args[0], args[1]),
    "bvsdiv": lambda args, p, w: bv_sdiv(args[0], args[1]),
    "bvsrem": lambda args, p, w: bv_srem(args[0], args[1]),
    "bvand": lambda args, p, w: bv_and(args[0], args[1]),
    "bvor": lambda args, p, w: bv_or(args[0], args[1]),
    "bvxor": lambda args, p, w: bv_xor(args[0], args[1]),
    "bvnot": lambda args, p, w: bv_not(args[0]),
    "bvneg": lambda args, p, w: bv_neg(args[0]),
    "bvshl": lambda args, p, w: bv_shl(args[0], args[1]),
    "bvlshr": lambda args, p, w: bv_lshr(args[0], args[1]),
    "bvashr": lambda args, p, w: bv_ashr(args[0], args[1]),
    "concat": lambda args, p, w: bv_concat(args[0], args[1]),
    "extract": lambda args, p, w: bv_extract(args[0], p[0], p[1]),
    "sext": lambda args, p, w: bv_sext(args[0], w),
    "bvite": lambda args, p, w: bv_ite(args[0], args[1], args[2]),
}


def rebuild_term(op: str, args: Tuple[Term, ...], payload, width: int) -> Term:
    """Reconstruct a term through the smart constructors.

    This is the public rebuilding entry used by DAG-walking rewriters
    (substitution, the e-graph extractor): routing every node through the
    constructors re-applies constant folding and light simplification, so
    a rebuilt term is always in constructor-canonical form.
    """
    if op == "var":
        return bool_var(payload) if width == 0 else bv_var(payload, width)
    if op == "const":
        return bool_const(payload) if width == 0 else bv_const(payload, width)
    return _REBUILDERS[op](args, payload, width)


def term_size(term: Term) -> int:
    """Number of distinct DAG nodes in ``term`` (shared nodes counted once).

    This is the cost metric budgeting the e-graph layer: Tseitin CNF size
    tracks the number of distinct gates, which tracks distinct DAG nodes.
    """
    count = 0
    stack = [term]
    seen = set()
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        count += 1
        stack.extend(t.args)
    return count


#: Memo for whole-call substitutions.  CEGAR re-substitutes the same
#: (psi, instantiation) and priming maps many times per refinement job;
#: interned terms make the (term, mapping) pair a usable dict key, so a
#: repeat costs one lookup instead of a full DAG walk + rebuild.
_SUBST_CACHE: Dict[tuple, Term] = {}
_SUBST_CACHE_MAX = 8192


def substitute(term: Term, mapping: Dict[str, Term]) -> Term:
    """Replace variables by terms; the mapping is keyed by variable name."""
    if not mapping:
        return term
    memo_key = (term, tuple(sorted(mapping.items())))
    memo_hit = _SUBST_CACHE.get(memo_key)
    if memo_hit is not None:
        return memo_hit
    cache: Dict[Term, Term] = {}

    def walk(t: Term) -> Term:
        hit = cache.get(t)
        if hit is not None:
            return hit
        if t.op == "var":
            result = mapping.get(t.payload, t)
            if result is not t:
                assert result.width == t.width, (t.payload, result.width, t.width)
        elif t.op == "const":
            result = t
        else:
            new_args = tuple(walk(a) for a in t.args)
            if new_args == t.args:
                result = t
            else:
                result = _REBUILDERS[t.op](new_args, t.payload, t.width)
        cache[t] = result
        return result

    result = walk(term)
    if len(_SUBST_CACHE) >= _SUBST_CACHE_MAX:
        _SUBST_CACHE.clear()
    _SUBST_CACHE[memo_key] = result
    return result


def evaluate(term: Term, env: Dict[str, int]) -> int:
    """Evaluate a term under a total assignment (``env`` maps name→int/bool).

    Missing variables default to 0/False, matching partial SAT models.
    Returns an int for bitvector terms and a bool for boolean terms.
    """
    cache: Dict[Term, int] = {}

    def walk(t: Term):
        hit = cache.get(t)
        if hit is not None:
            return hit
        if t.op == "const":
            result = t.payload
        elif t.op == "var":
            result = env.get(t.payload, False if t.is_bool else 0)
        else:
            vals = [walk(a) for a in t.args]
            result = _eval_op(t, vals)
        cache[t] = result
        return result

    return walk(term)


def _eval_op(t: Term, vals):
    op, w = t.op, t.width
    if op == "not":
        return not vals[0]
    if op == "and":
        return all(vals)
    if op == "or":
        return any(vals)
    if op == "xor":
        return bool(vals[0]) != bool(vals[1])
    if op == "ite" or op == "bvite":
        return vals[1] if vals[0] else vals[2]
    if op == "bveq":
        return vals[0] == vals[1]
    if op == "bvult":
        return vals[0] < vals[1]
    if op == "bvslt":
        aw = t.args[0].width
        return _to_signed(vals[0], aw) < _to_signed(vals[1], aw)
    if op == "bvadd":
        return (vals[0] + vals[1]) & _mask(w)
    if op == "bvsub":
        return (vals[0] - vals[1]) & _mask(w)
    if op == "bvmul":
        return (vals[0] * vals[1]) & _mask(w)
    if op == "bvudiv":
        return _mask(w) if vals[1] == 0 else vals[0] // vals[1]
    if op == "bvurem":
        return vals[0] if vals[1] == 0 else vals[0] % vals[1]
    if op == "bvsdiv":
        return _sdiv_fold(vals[0], vals[1], w)
    if op == "bvsrem":
        return _srem_fold(vals[0], vals[1], w)
    if op == "bvand":
        return vals[0] & vals[1]
    if op == "bvor":
        return vals[0] | vals[1]
    if op == "bvxor":
        return vals[0] ^ vals[1]
    if op == "bvnot":
        return ~vals[0] & _mask(w)
    if op == "bvneg":
        return -vals[0] & _mask(w)
    if op == "bvshl":
        return 0 if vals[1] >= w else (vals[0] << vals[1]) & _mask(w)
    if op == "bvlshr":
        return 0 if vals[1] >= w else vals[0] >> vals[1]
    if op == "bvashr":
        return _ashr_fold(vals[0], vals[1], w)
    if op == "concat":
        return (vals[0] << t.args[1].width) | vals[1]
    if op == "extract":
        hi, lo = t.payload
        return (vals[0] >> lo) & _mask(hi - lo + 1)
    if op == "sext":
        return _to_signed(vals[0], t.args[0].width) & _mask(w)
    raise NotImplementedError(op)
