"""Exact solver for integer linear systems modulo m.

Used to decide whether two root-of-unity cocycles differ by a coboundary:
that question is a linear system over Z/m.

- **CRT split.**  m is factored into prime powers q = p^e by trial division,
  so m should have small prime factors only (``cohomologous`` passes the part
  of its modulus whose primes divide the group order); the system is solved
  mod each q and the solutions are glued by the Chinese remainder theorem.
  It is unsolvable mod m as soon as it is unsolvable mod one q.
- **Smith reduction over Z/p^e.**  Z/p^e is a local ring: an entry of
  minimal p-valuation v divides every entry of the rows and columns not yet
  reduced.  Pivots are taken level by level (v = 0, 1, ...), column by
  column; within a column the pivot row is the one with the fewest nonzero
  coefficients (the first on ties).  One row shear, applied only to the rows
  that are nonzero in the pivot column, clears the pivot's column and takes
  the pivot row out of the system.  Since the pivot divides the rest of its
  row, the column operation that clears that row is exact; it is recorded
  rather than applied to a transform matrix, and run at the end as the back
  substitution x_j = (b - sum a_k x_k) / a_j, last pivot first.  Updating
  only the rows the pivot meets keeps fill-in small on sparse systems such
  as the coboundary rows e_g + e_h - e_gh.  No divisibility iteration is
  needed.
- **Column layout.**  The coefficient matrix is stored by columns: array
  row j holds column j of A, so a column scan reads contiguous memory.
  Each block of input rows is written into it transposed; no full-size
  transpose copy is made.  Each equation's count of nonzero coefficients is
  kept current through every shear, which changes only the block of the
  rows the pivot meets by the pivot row's nonzero columns, so choosing the
  pivot row reads one count per candidate instead of recounting their rows.
- **Factor once, replay per right-hand side.**  Every pivot is chosen from
  the coefficient columns and the kept row counts, never from the
  right-hand side, and every shear changes the right-hand side only by
  b_i -= b_r * mu_i over the rows i the shear meets, with the multipliers mu
  read off the coefficients.  So the elimination of a system is recorded
  without its right-hand side (per prime power and per pivot: the pivot row
  r, the rows it meets, their multipliers, p^v, the unit inverse and the
  pivot row's coefficients) and then replayed on the right-hand side with
  the same integers mod q: b_r at each pivot is the entry the augmented
  elimination [A | b] would meet there, the replay returns None at its two
  tests (p^v does not divide b_r, or a nonzero b is left), and back
  substitution reads the same terms, so one record answers every
  right-hand side exactly (Holt, Eick and O'Brien, *Handbook of
  Computational Group Theory*, one reduction per coefficient matrix).  A
  caller that keeps a registry (a dict) has each system recorded in it
  once, keyed by m and the exact coefficient entries, and replayed on every
  later call; without one each shear is replayed as the elimination makes
  it and then dropped, so a one-off solve keeps no record.
- **No overflow.**  Residues mod q are stored in the narrowest integer dtype
  that holds q^2 (int16, int32, int64; Python integers beyond that), so every
  product of two residues and every difference fits before it is reduced.
- **Row input.**  The rows arrive as a sequence of equal-length rows: a
  list of lists of Python integers or of one-dimensional integer arrays, or
  ``SystemRows``, one read-only 2-D integer array that also keeps the
  registry key derived from it (``cohomologous`` passes its int8 coboundary
  array so, and a caller that keeps the rows derives the key once).  A
  sequence, not a bare 2-D array, because a caller that wraps ``solve_mod``
  may read its shape as ``len(rows)`` and ``len(rows[0])`` behind an ``if
  rows``, and the truth value of an array is ambiguous.  Each block of rows
  goes through ``np.asarray`` (a view of a ``SystemRows`` array) and is
  reduced mod q straight into the column array, in the residue dtype, without
  per-entry Python iteration and without a widened copy of the block; a
  block with an entry no int64 holds is reduced in Python integers.  The
  right-hand side is a list of integers or a 1-D integer array.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_CHUNK_ROWS = 4096
# (dtype, largest value it holds): a residue mod q lives in the first dtype whose bound is >= q*q
_DTYPES = ((np.int16, 2**15 - 1), (np.int32, 2**31 - 1), (np.int64, 2**63 - 1))


def solve_mod(rows, rhs, m: int, factors: dict | None = None) -> list[int] | None:
    """Solve ``A x = rhs (mod m)`` for integer x, or return None if unsolvable.

    ``rows`` is a dense integer matrix given as a sequence of equal-length
    rows, one per entry of ``rhs``: a list of lists of integers of any size
    or of 1-D integer arrays, or ``SystemRows``; ``rhs`` is a list of
    integers or a 1-D integer array.  The solution is returned with entries
    in ``range(m)``; a homogeneous system gets the zero solution.  m is
    factored by trial division, so its prime factors should be small.

    ``factors`` is a registry the caller keeps, a dict, or None.  With one,
    the system's elimination is recorded in it on first use, keyed by m and
    the exact coefficient entries, and every later call on that system
    replays the record on ``rhs`` instead of eliminating again.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    nrows = len(rows)
    if len(rhs) != nrows:
        raise ValidationError(f"{nrows} equations but {len(rhs)} right-hand sides")
    ncols = len(rows[0]) if nrows else 0
    one_array = isinstance(rows, SystemRows)  # so its rows have one length
    if not one_array and len(set(map(len, rows))) > 1:
        raise ValidationError("coefficient rows have unequal lengths")
    if factors is None:  # each shear is replayed as the elimination makes it, then dropped
        records = ((p**e, _eliminate(rows, ncols, p, e)) for p, e in prime_powers(m))
    else:
        key = rows.key(m) if one_array else _system_key(rows, m)
        records = factors.get(key)
        if records is None:
            records = factors[key] = [(p**e, list(_eliminate(rows, ncols, p, e))) for p, e in prime_powers(m)]
    x = [0] * ncols
    for q, shears in records:
        xq = _replay(q, shears, rhs, ncols)
        if xq is None:
            return None
        lift = m // q * pow(m // q, -1, q)  # 1 mod q, 0 mod the other prime powers
        x = [(a + lift * b) % m for a, b in zip(x, xq)]
    return x


class SystemRows:
    """The rows of one coefficient matrix, held as one read-only 2-D integer
    array, for a caller that poses the system again and again and keeps it:
    a sequence of its rows (``len``, and indexing, where a slice is a view of
    the array), which ``solve_mod`` reads like any list of rows, with its
    registry key from ``key``, derived once per modulus and kept.  No entry
    can change: the array is read-only."""

    __slots__ = ("_array", "_keys")

    def __init__(self, block: np.ndarray):
        block.setflags(write=False)
        self._array = block
        self._keys = {}

    def __len__(self) -> int:
        return len(self._array)

    def __getitem__(self, index) -> np.ndarray:
        return self._array[index]

    def key(self, m: int) -> tuple:
        """``_system_key`` of the array and m, derived on the first call for m."""
        key = self._keys.get(m)
        if key is None:
            key = self._keys[m] = _system_key(self._array, m)
        return key


def _system_key(rows, m: int) -> tuple:
    """The exact system as a registry key: m and the coefficient entries,
    as one integer array's shape, dtype and bytes, or as Python integers
    when no numpy integer dtype holds them all (numpy would then give an
    object or an inexact float array)."""
    block = np.asarray(rows)
    if block.dtype.kind not in "iu":
        return m, tuple(tuple(int(v) for v in row) for row in rows)
    return m, block.shape, block.dtype.str, block.tobytes()


def prime_powers(m: int) -> list[tuple[int, int]]:
    """The factorization of m >= 1 as (p, e) pairs, p increasing, by trial
    division: meant for moduli whose prime factors are small."""
    if m < 1:
        raise ValueError(f"cannot factor {m}: need m >= 1")
    out, p = [], 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m, e = m // p, e + 1
        if e:
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def _residues(values, q: int, width: int, dtype, out=None) -> np.ndarray:
    """The rows ``values`` (each of length ``width``) reduced mod q, in
    ``dtype``, written into ``out`` when it is given (an array of their
    shape in that dtype) and returned."""
    out = np.empty((len(values), width), dtype) if out is None else out
    if dtype is not object:  # then q * q, and so q, fits in int64
        block = np.asarray(values)
        if block.ndim == 2 and np.can_cast(block.dtype, np.int64):
            wide = np.promote_types(block.dtype, dtype)  # holds both the entries and q
            # reduced in `wide` and cast buffer by buffer: every residue fits in `dtype`
            return np.remainder(block, q, out=out, dtype=wide, casting="unsafe")
    out[...] = [[int(v) % q for v in row] for row in values]
    return out


def _dtype(q: int):
    """The narrowest residue dtype that holds q * q."""
    return next((dt for dt, top in _DTYPES if q * q <= top), object)


def _eliminate(rows, ncols: int, p: int, e: int):
    """The elimination of the coefficient matrix mod q = p**e: yields one
    shear per pivot, as it is made, as (pivot row, rows met, multipliers,
    pivot), the pivot as ``_replay`` back-substitutes it."""
    q = p**e
    nrows = len(rows)
    dtype = _dtype(q)
    cols = np.empty((ncols, nrows), dtype)  # the coefficient matrix, one array row per column
    counts = np.empty(nrows, np.intp)  # nonzero coefficients per equation, kept through every shear
    for s in range(0, nrows, _CHUNK_ROWS):
        block = _residues(rows[s:s + _CHUNK_ROWS], q, ncols, dtype, out=cols[:, s:s + _CHUNK_ROWS].T)
        counts[s:s + _CHUNK_ROWS] = np.count_nonzero(block, axis=1)

    open_cols = range(ncols)
    for v in range(e):
        pv, step = p**v, p ** (v + 1)
        left = []
        for j in open_cols:
            col = cols[j]
            hits = col.nonzero()[0]
            if not len(hits):
                continue
            cv = col[hits]
            cand = hits[cv % step != 0]  # valuation exactly v: every live entry has valuation >= v
            if not len(cand):
                left.append(j)
                continue
            r = cand[counts[cand].argmin()] if len(cand) > 1 else cand[0]
            uinv = pow(int(col[r]) // pv, -1, q)
            nzc = cols[:, r].nonzero()[0]
            row = cols[nzc, r]
            # the shear also meets row r itself and zeroes it: its multiplier is 1
            block = (nzc[:, None], hits)
            old = cols[block]
            mults = cv // pv * uinv % q
            new = (old - row[:, None] * mults) % q
            counts[hits] += (new != 0).sum(axis=0) - (old != 0).sum(axis=0)
            cols[block] = new
            yield int(r), hits, mults, (j, pv, uinv, nzc.tolist(), row.tolist())
        open_cols = left


def _replay(q: int, shears, rhs, ncols: int) -> list[int] | None:
    """The elimination mod q, its shears recorded or in the making, run on
    ``rhs``: a solution in range(q), or None.

    Each shear subtracts b_r times its multipliers from the rows it meets,
    r among them with multiplier 1, in the residue dtype of q, so every
    product and difference fits as in the elimination.  Back substitution
    runs last pivot first: a pivot row only reaches columns pivoted after it
    or never (those stay 0); p^v divides every term."""
    b = _residues([rhs], q, len(rhs), _dtype(q))[0]
    pivots = []
    for r, hits, mults, pivot in shears:
        br = int(b[r])
        if br:
            if br % pivot[1]:  # p^v divides the whole coefficient row but not b
                return None
            b[hits] = (b[hits] - br * mults) % q
        pivots.append((pivot, br))
    if b.any():  # an equation 0 = b with b != 0 is left
        return None
    x = [0] * ncols
    for (j, pv, uinv, cols, coeffs), br in reversed(pivots):
        x[j] = (br - sum(a * x[k] for k, a in zip(cols, coeffs) if k != j)) // pv * uinv % q
    return x
