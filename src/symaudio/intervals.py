"""Strict intervals over a finite linear order and coarse accessibility relations.

An interval (x, y) with 0 <= x < y <= T covers the points x+1 .. y of a series
of T points.  Seven named relations plus the global relation G connect pairs of
intervals; formulas combine atoms (see logiset.Atom) with boolean connectives
and the modal operators <R> / [R].

The worlds of one mode and series length form a Frame: the intervals in
lexicographic order, their column index, and one boolean matrix per relation.
A set of worlds is a boolean row over the frame's intervals.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio import require_memory

Interval = tuple  # (x, y), ints

# Canonical order, also the tie-break order used by the tree learner.
RELATIONS = ("Id", "L", "Linv", "AO", "AOinv", "DBE", "DBEinv", "G")
REL_ORDER = {name: i for i, name in enumerate(RELATIONS)}

INVERSE = {
    "Id": "Id", "G": "G",
    "L": "Linv", "Linv": "L",
    "AO": "AOinv", "AOinv": "AO",
    "DBE": "DBEinv", "DBEinv": "DBE",
}


def enumerate_intervals(T):
    """All strict intervals over 0..T in lexicographic order."""
    if T < 1:
        raise ValueError(f"domain length must be >= 1, got {T}")
    return [(x, y) for x in range(T) for y in range(x + 1, T + 1)]


def relates(rel, w, v):
    """True iff interval v is reachable from interval w under rel.

    L: v strictly later, AO: meets or properly overlaps on the right,
    DBE: v is a proper part of w (during, begins or ends), G: any interval.
    *inv relations mirror their base relation.  The endpoints of w and v
    may also be integer arrays that broadcast together; the answer is then
    a boolean array of that shape (a scalar True for G).
    """
    wx, wy = w
    vx, vy = v
    if rel == "Id":
        return (vx == wx) & (vy == wy)
    if rel == "L":
        return wy < vx
    if rel == "Linv":
        return vy < wx
    if rel == "AO":
        return (wy == vx) | ((wx < vx) & (vx < wy) & (wy < vy))
    if rel == "AOinv":
        return (vy == wx) | ((vx < wx) & (wx < vy) & (vy < wy))
    if rel == "DBE":
        return (wx <= vx) & (vy <= wy) & ((vx != wx) | (vy != wy))
    if rel == "DBEinv":
        return (vx <= wx) & (wy <= vy) & ((vx != wx) | (vy != wy))
    if rel == "G":
        return True
    raise ValueError(f"unknown relation {rel!r}")


@dataclass(frozen=True, eq=False)
class Frame:
    """The worlds of one mode and series length.

    R[rel][i, j] is true iff intervals[j] is reachable from intervals[i]
    under rel; the matrices are read-only.  Modal frames hold every
    interval, the propositional frame only (0, T).
    """
    intervals: tuple
    index: dict           # interval -> column
    R: dict               # relation -> (I, I) bool matrix

    def reach(self, rel, worlds):
        """Worlds reachable under rel from any world of each boolean row."""
        try:
            matrix = self.R[rel]
        except KeyError:
            raise ValueError(f"unknown relation {rel!r}") from None
        return worlds @ matrix


@lru_cache(maxsize=None)
def frame(mode, T):
    """The frame of mode ('modal' or 'propositional') over T points.  Its
    matrices take len(RELATIONS) bytes for each pair of intervals, and are
    filled a block of rows at a time from the interval endpoints; the
    memory budget must allow them before the build."""
    if mode == "modal":
        require_memory(len(RELATIONS) * (T * (T + 1) // 2) ** 2,
                       f"the modal frame for n_points={T}")
        intervals = tuple(enumerate_intervals(T))
    elif mode == "propositional":
        intervals = ((0, T),)
    else:
        raise ValueError(
            f"mode must be propositional or modal, got {mode!r}")
    n = len(intervals)
    x, y = np.array(intervals).T
    step = max(1, 2 ** 20 // n)   # rows per block: temporaries of <= 1 MB
    R = {}
    for rel in RELATIONS:
        matrix = np.empty((n, n), dtype=bool)
        for lo in range(0, n, step):
            w = (x[lo:lo + step, None], y[lo:lo + step, None])
            matrix[lo:lo + step] = relates(rel, w, (x, y))
        matrix.setflags(write=False)
        R[rel] = matrix
    return Frame(intervals=intervals,
                 index={w: i for i, w in enumerate(intervals)}, R=R)


# --- formulas ---------------------------------------------------------------

@dataclass(frozen=True)
class Not:
    sub: object


@dataclass(frozen=True)
class And:
    parts: tuple  # empty tuple is the constant "true"


@dataclass(frozen=True)
class Or:
    parts: tuple


@dataclass(frozen=True)
class Diamond:
    rel: str
    sub: object


@dataclass(frozen=True)
class Box:
    rel: str
    sub: object


def holds(phi, inst):
    """Truth of phi at every world of inst.frame, as a boolean row.

    Atoms are any leaf object with fn, attr, op and threshold fields, looked
    up in inst.table.  <R>phi holds where some R-successor satisfies phi,
    which are the worlds reached from phi's worlds under the inverse of R;
    [R]phi is !<R>!phi.
    """
    from .logiset import atom_values, compare

    f = inst.frame

    def ev(phi):
        if isinstance(phi, Not):
            return ~ev(phi.sub)
        if isinstance(phi, (And, Or)):
            rows = np.reshape([ev(p) for p in phi.parts],
                              (len(phi.parts), len(f.intervals)))
            if isinstance(phi, And):
                return rows.all(axis=0)
            return rows.any(axis=0)
        # an unknown relation has no inverse and is left for reach to name
        if isinstance(phi, Diamond):
            return f.reach(INVERSE.get(phi.rel, phi.rel), ev(phi.sub))
        if isinstance(phi, Box):
            return ~f.reach(INVERSE.get(phi.rel, phi.rel), ~ev(phi.sub))
        return compare(phi.op, atom_values(inst.table, phi), phi.threshold)

    return ev(phi)


def check(phi, inst, w):
    """Satisfaction of phi on instance inst at interval w."""
    try:
        col = inst.frame.index[w]
    except KeyError:
        raise ValueError(
            f"interval {w} is not a world of the instance's frame") from None
    return bool(holds(phi, inst)[col])


# --- text syntax ------------------------------------------------------------
#
# atom       ::=  fn '(' attr ')' op number      op in {'>=', '<='}
# unary      ::=  '!' unary | '<R>' unary | '[R]' unary | '(' formula ')'
#                 | atom | 'true'
# conj       ::=  unary ('&' unary)*
# formula    ::=  conj ('|' conj)*

def format_formula(phi, attr_names):
    if isinstance(phi, Not):
        return f"!({format_formula(phi.sub, attr_names)})"
    if isinstance(phi, And):
        if not phi.parts:
            return "true"
        return " & ".join(_wrap_binary(p, attr_names) for p in phi.parts)
    if isinstance(phi, Or):
        if not phi.parts:
            return "!(true)"
        return " | ".join(_wrap_binary(p, attr_names) for p in phi.parts)
    if isinstance(phi, Diamond):
        return f"<{phi.rel}>({format_formula(phi.sub, attr_names)})"
    if isinstance(phi, Box):
        return f"[{phi.rel}]({format_formula(phi.sub, attr_names)})"
    # atom
    return f"{phi.fn}({attr_names[phi.attr]}) {phi.op} {_fmt_num(phi.threshold)}"


def _wrap_binary(p, attr_names):
    text = format_formula(p, attr_names)
    if isinstance(p, (And, Or)) and p.parts:
        return f"({text})"
    return text


def _fmt_num(x):
    return repr(float(x))


_TOKEN = re.compile(
    r"\s*(?:(?P<mod><[A-Za-z]+>|\[[A-Za-z]+\])"
    r"|(?P<num>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=)"
    r"|(?P<sym>[()!&|]))"
)


def _tokenize(text):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad formula syntax at {text[pos:pos + 20]!r}")
        pos = m.end()
        for kind in ("mod", "num", "name", "op", "sym"):
            if m.group(kind) is not None:
                out.append((kind, m.group(kind)))
                break
    return out


def parse_formula(text, attr_names):
    """Parse the textual syntax back into a formula over named attributes.

    Raises ValueError for text that is not a formula, including one nested
    too deeply to parse or with a threshold that is not finite.
    """
    from .logiset import FEATURE_FNS, Atom

    name_index = {n: i for i, n in enumerate(attr_names)}
    toks = _tokenize(text)
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else (None, None)

    def take(kind=None, value=None):
        k, v = peek()
        if k is None or (kind and k != kind) or (value and v != value):
            raise ValueError(f"bad formula syntax near token {v!r}")
        pos[0] += 1
        return v

    def unary():
        k, v = peek()
        if k == "sym" and v == "!":
            take()
            return Not(unary())
        if k == "mod":
            take()
            rel = v[1:-1]
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
            cls = Diamond if v[0] == "<" else Box
            return cls(rel, unary())
        if k == "sym" and v == "(":
            take()
            f = formula()
            take("sym", ")")
            return f
        if k == "name" and v == "true":
            take()
            return And(())
        # atom: fn ( attr ) op number
        fn = take("name")
        if fn not in FEATURE_FNS:
            raise ValueError(f"unknown feature function {fn!r}")
        take("sym", "(")
        attr = take("name")
        if attr not in name_index:
            raise ValueError(f"unknown attribute {attr!r}")
        take("sym", ")")
        op = take("op")
        num = float(take("num"))
        if not math.isfinite(num):
            raise ValueError(f"threshold {num} is not finite")
        return Atom(fn=fn, attr=name_index[attr], op=op, threshold=num)

    def conj():
        parts = [unary()]
        while peek() == ("sym", "&"):
            take()
            parts.append(unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def formula():
        parts = [conj()]
        while peek() == ("sym", "|"):
            take()
            parts.append(conj())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    try:
        out = formula()
    except RecursionError:
        raise ValueError("formula nests too deeply") from None
    if pos[0] != len(toks):
        raise ValueError("trailing tokens in formula")
    return out
