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
- **No overflow.**  Residues mod q are stored in the narrowest integer dtype
  that holds q^2 (int16, int32, int64; Python integers beyond that), so every
  product of two residues and every difference fits before it is reduced.
- **Row input.**  The rows arrive as a list, of lists of Python integers or of
  one-dimensional integer arrays (``cohomologous`` passes the rows of one int8
  array).  A list, not a bare 2-D array, because a caller that wraps
  ``solve_mod`` may read its shape as ``len(rows)`` and ``len(rows[0])``
  behind an ``if rows``, and the truth value of an array is ambiguous.  Each
  block of rows goes through ``np.asarray`` and straight into the residue
  dtype, without per-entry Python iteration and without a full-size int64
  copy; a block with an entry no int64 holds is reduced in Python integers.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_CHUNK_ROWS = 4096
# (dtype, largest value it holds): a residue mod q lives in the first dtype whose bound is >= q*q
_DTYPES = ((np.int16, 2**15 - 1), (np.int32, 2**31 - 1), (np.int64, 2**63 - 1))


def solve_mod(rows: list[list[int]], rhs: list[int], m: int) -> list[int] | None:
    """Solve ``A x = rhs (mod m)`` for integer x, or return None if unsolvable.

    ``rows`` is a dense integer matrix given as a list of equal-length rows,
    one per entry of ``rhs``: lists of integers of any size, or 1-D integer
    arrays.  The solution is returned with entries in ``range(m)``; a
    homogeneous system gets the zero solution.  m is factored by trial
    division, so its prime factors should be small.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    nrows = len(rows)
    if len(rhs) != nrows:
        raise ValidationError(f"{nrows} equations but {len(rhs)} right-hand sides")
    ncols = len(rows[0]) if nrows else 0
    if len(set(map(len, rows))) > 1:
        raise ValidationError("coefficient rows have unequal lengths")
    x = [0] * ncols
    for p, e in prime_powers(m):
        q = p**e
        xq = _solve_prime_power(rows, rhs, ncols, p, e)
        if xq is None:
            return None
        lift = m // q * pow(m // q, -1, q)  # 1 mod q, 0 mod the other prime powers
        x = [(a + lift * b) % m for a, b in zip(x, xq)]
    return x


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


def _residues(values, q: int, width: int, dtype) -> np.ndarray:
    """The rows ``values`` (each of length ``width``) reduced mod q."""
    if dtype is not object:  # then q * q, and so q, fits in int64
        block = np.asarray(values)
        if block.ndim == 2 and np.can_cast(block.dtype, np.int64):
            wide = np.promote_types(block.dtype, dtype)  # holds both the entries and q
            return (block.astype(wide, copy=False) % q).astype(dtype, copy=False)
    return np.array([[int(v) % q for v in row] for row in values], dtype=object).reshape(len(values), width)


def _solve_prime_power(rows, rhs, ncols: int, p: int, e: int) -> list[int] | None:
    """Solve the system mod q = p**e: a solution in range(q), or None."""
    q = p**e
    nrows = len(rows)
    dtype = next((dt for dt, top in _DTYPES if q * q <= top), object)
    Ab = np.empty((nrows, ncols + 1), dtype)  # the augmented matrix [A | rhs]
    for s in range(0, nrows, _CHUNK_ROWS):
        Ab[s:s + _CHUNK_ROWS, :ncols] = _residues(rows[s:s + _CHUNK_ROWS], q, ncols, dtype)
    Ab[:, ncols] = _residues([rhs], q, nrows, dtype)[0]

    pivots = []  # (column, p^v, unit part's inverse, rhs, the pivot row's columns and coefficients)
    open_cols = range(ncols)
    for v in range(e):
        pv, step = p**v, p ** (v + 1)
        left = []
        for j in open_cols:
            col = Ab[:, j]
            hits = col.nonzero()[0]
            if not len(hits):
                continue
            cv = col[hits]
            cand = hits[cv % step != 0]  # valuation exactly v: every live entry has valuation >= v
            if not len(cand):
                left.append(j)
                continue
            r = cand[np.count_nonzero(Ab[cand, :ncols], axis=1).argmin()] if len(cand) > 1 else cand[0]
            uinv = pow(int(col[r]) // pv, -1, q)
            nzc = Ab[r].nonzero()[0]
            row = Ab[r, nzc]
            # the shear also meets row r itself and zeroes it: its multiplier is 1
            block = (hits[:, None], nzc)
            Ab[block] = (Ab[block] - (cv // pv * uinv % q)[:, None] * row) % q
            coeffs = row.tolist()
            b = coeffs.pop() if nzc[-1] == ncols else 0
            if b % pv:  # p^v divides the whole coefficient row but not b
                return None
            pivots.append((j, pv, uinv, b, nzc[:len(coeffs)].tolist(), coeffs))
        open_cols = left
    if Ab[:, ncols].any():  # an equation 0 = b with b != 0 is left
        return None
    # back substitution, last pivot first: a pivot row only reaches columns
    # pivoted after it or never (those stay 0); p^v divides every term
    x = [0] * ncols
    for j, pv, uinv, b, cols, coeffs in reversed(pivots):
        x[j] = (b - sum(a * x[k] for k, a in zip(cols, coeffs) if k != j)) // pv * uinv % q
    return x
