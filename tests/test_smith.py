from itertools import product
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gquot as gq
from gquot import cocycles
from gquot.catalog import GROUP_SPECS, NONDEGENERATE_CARRIERS
from gquot.cocycles import CocycleTable, OneCochain, coboundary, cohomologous, standard_nondegenerate
from gquot.errors import ValidationError
from gquot.smith import prime_powers, solve_mod


def reference_solve_mod(rows, rhs, m):
    """The earlier solver: Smith-style reduction over Z in plain Python
    integers, smallest-absolute-value pivot first, then the diagonal system
    solved mod m."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if ncols == 0:
        return [] if all(v % m == 0 for v in rhs) else None
    A = [list(map(int, row)) for row in rows]
    b = [int(v) for v in rhs]
    V = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    k = 0
    while k < min(nrows, ncols):
        piv = _smallest_pivot(A, k, nrows, ncols)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != k:
            A[k], A[i0] = A[i0], A[k]
            b[k], b[i0] = b[i0], b[k]
        if j0 != k:
            for row in A + V:
                row[k], row[j0] = row[j0], row[k]
        clean = True
        pivot = A[k][k]
        for i in range(nrows):
            if i != k and A[i][k] != 0:
                q = A[i][k] // pivot
                if q:
                    for j in range(k, ncols):
                        A[i][j] -= q * A[k][j]
                    b[i] -= q * b[k]
                if A[i][k] != 0:
                    clean = False
        for j in range(ncols):
            if j != k and A[k][j] != 0:
                q = A[k][j] // pivot
                if q:
                    for row in A + V:
                        row[j] -= q * row[k]
                if A[k][j] != 0:
                    clean = False
        if clean:
            k += 1
    y = [0] * ncols
    for i in range(nrows):
        d = A[i][i] if i < ncols else 0
        c = b[i] % m
        if d == 0:
            if c != 0:
                return None
            continue
        g = gcd(d, m)
        if c % g != 0:
            return None
        mm = m // g
        if mm > 1:
            y[i] = (c // g) * pow((d // g) % mm, -1, mm) % mm
    return [sum(V[i][j] * y[j] for j in range(ncols)) % m for i in range(ncols)]


def _smallest_pivot(A, k, nrows, ncols):
    best = piv = None
    for i in range(k, nrows):
        for j in range(k, ncols):
            v = A[i][j]
            if v != 0 and (best is None or abs(v) < best):
                best, piv = abs(v), (i, j)
                if best == 1:
                    return piv
    return piv


def satisfies(rows, rhs, m, x):
    return all(sum(a * v for a, v in zip(row, x)) % m == t % m for row, t in zip(rows, rhs))


def brute_force_solvable(rows, rhs, m, ncols):
    return any(satisfies(rows, rhs, m, x) for x in product(range(m), repeat=ncols))


@given(
    st.integers(min_value=1, max_value=8),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_solver_agrees_with_enumeration(m, data):
    nrows = data.draw(st.integers(min_value=1, max_value=4))
    ncols = data.draw(st.integers(min_value=1, max_value=3))
    rows = [
        [data.draw(st.integers(min_value=-4, max_value=4)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    rhs = [data.draw(st.integers(min_value=-4, max_value=4)) for _ in range(nrows)]
    x = solve_mod(rows, rhs, m)
    if x is None:
        assert not brute_force_solvable(rows, rhs, m, ncols)
    else:
        assert satisfies(rows, rhs, m, x)


# several prime factors first, then any modulus up to 72
MODULI = st.one_of(st.sampled_from([12, 18, 20, 24, 30, 36, 45, 48, 60, 63, 70, 72]), st.integers(1, 72))


@given(MODULI, st.data())
@settings(max_examples=400, deadline=None)
def test_solver_agrees_with_reference(m, data):
    nrows = data.draw(st.integers(min_value=1, max_value=6))
    ncols = data.draw(st.integers(min_value=1, max_value=5))
    entry = st.one_of(st.just(0), st.integers(min_value=-2 * m, max_value=2 * m))  # negative and >= m
    rows = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if data.draw(st.booleans()):
        rows[data.draw(st.integers(0, nrows - 1))] = [0] * ncols
    if data.draw(st.booleans()):
        j = data.draw(st.integers(0, ncols - 1))
        for row in rows:
            row[j] = 0
    if data.draw(st.booleans()):  # solvable by construction
        x0 = [data.draw(st.integers(0, m - 1)) for _ in range(ncols)]
        rhs = [sum(a * v for a, v in zip(row, x0)) + m * data.draw(st.integers(-2, 2)) for row in rows]
    else:
        rhs = [data.draw(entry) for _ in range(nrows)]
    x = solve_mod(rows, rhs, m)
    assert (x is None) == (reference_solve_mod(rows, rhs, m) is None)
    if x is not None:
        assert satisfies(rows, rhs, m, x) and all(0 <= v < m for v in x)


@given(st.one_of(MODULI, st.sampled_from([181, 46337, 3037000493, 3 * 2**40])), st.data())
@settings(max_examples=200, deadline=None)
def test_array_rows_give_the_list_rows_solution(m, data):
    """Rows as int8 or int64 arrays go through the same residues and pivots
    as the same rows given as lists of Python integers."""
    nrows = data.draw(st.integers(min_value=1, max_value=9))
    ncols = data.draw(st.integers(min_value=1, max_value=6))
    small = st.integers(min_value=-128, max_value=127)
    wide = st.one_of(small, st.integers(min_value=-(2**63), max_value=2**63 - 1))
    dtype = data.draw(st.sampled_from([np.int8, np.int64]))
    entry = small if dtype is np.int8 else wide
    rows = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    rhs = [data.draw(entry) for _ in range(nrows)]
    x = solve_mod(rows, rhs, m)
    assert solve_mod(list(np.array(rows, dtype=dtype)), rhs, m) == x
    assert x is None or satisfies(rows, rhs, m, x)


@pytest.mark.parametrize(
    "m",
    [
        181,  # int16: the largest prime q with q^2 < 2^15
        46337,  # int32: the largest prime q with q^2 < 2^31
        3037000493,  # int64: the largest prime q with q^2 < 2^63
        3 * 2**40,  # int16 mod 3, Python integers mod 2^40
        2**70,  # Python integers, and entries beyond int64
    ],
)
def test_dtype_rungs_return_verified_solutions(m):
    rng = np.random.default_rng(m % 2**32)
    nrows, ncols = 7, 5
    top = min(m, 2**62)
    rows = [[int(rng.integers(0, top)) for _ in range(ncols)] for _ in range(nrows)]
    s = 6 if m % 6 == 0 else 2 if m % 2 == 0 else 1
    for row in rows:  # non-unit pivots: column j is divisible by s^j
        for j in range(ncols):
            row[j] *= s**j
    rows[0][0] += 2**64  # an entry no int64 holds
    rows[1] = [-v for v in rows[1]]
    x0 = [int(rng.integers(0, top)) for _ in range(ncols)]
    rhs = [sum(a * v for a, v in zip(row, x0)) for row in rows]
    x = solve_mod(rows, rhs, m)
    assert x is not None and satisfies(rows, rhs, m, x) and all(0 <= v < m for v in x)
    rhs[2] += 1
    x = solve_mod(rows, rhs, m)
    assert (x is None) == (reference_solve_mod(rows, rhs, m) is None)
    assert x is None or satisfies(rows, rhs, m, x)


def test_prime_powers():
    assert prime_powers(1) == []
    assert prime_powers(72) == [(2, 3), (3, 2)]
    assert prime_powers(3 * 2**40) == [(2, 40), (3, 1)]
    assert prime_powers(181) == [(181, 1)]
    assert prime_powers(41 * 43 * 47**3) == [(41, 1), (43, 1), (47, 3)]
    assert prime_powers(1000003 * 1000033) == [(1000003, 1), (1000033, 1)]
    assert prime_powers(255 * 256) == [(2, 8), (3, 1), (5, 1), (17, 1)]
    assert prime_powers(2 * 1000003) == [(2, 1), (1000003, 1)]  # a large last factor is what is left
    for m in (0, -12):
        with pytest.raises(ValueError, match="need m >= 1"):
            prime_powers(m)


def test_empty_and_trivial_cases():
    assert solve_mod([[0]], [0], 5) == [0]
    assert solve_mod([[0]], [3], 5) is None
    assert solve_mod([[1]], [3], 5) == [3]
    assert solve_mod([[2]], [1], 4) is None
    assert solve_mod([[2]], [2], 4) in ([1], [3])
    assert solve_mod([], [], 5) == []
    assert solve_mod([[]], [0], 5) == [] and solve_mod([[]], [1], 5) is None
    assert solve_mod([[3, 5]], [7], 1) == [0, 0]


@pytest.mark.parametrize(
    "rows, rhs",
    [
        ([[1]], [0, 1]),  # the equation 0 = 1 must not be dropped
        ([[1], [1]], [0]),
        ([[1, 0], [1]], [0, 0]),
    ],
)
def test_shape_mismatch_raises(rows, rhs):
    with pytest.raises(ValidationError):
        solve_mod(rows, rhs, 5)


def _catalog_pairs():
    """Every ordered pair of cocycles on each catalog group among the trivial
    class, the nd_ class where there is one, and each times a random
    coboundary at the composite scale 12."""
    rng = np.random.default_rng(0)
    params = []
    for spec in GROUP_SPECS:
        G = gq.make_group(spec)
        named = {"trivial": CocycleTable.trivial(G, 6)}
        if spec in NONDEGENERATE_CARRIERS:
            named["nd"] = standard_nondegenerate(NONDEGENERATE_CARRIERS[spec])
        for name, a in list(named.items()):
            c = rng.integers(0, 12, G.n)
            c[0] = 0
            named[f"{name}*dc"] = a.mul(coboundary(OneCochain(G, 12, tuple(c))))
        params += [pytest.param(a, b, id=f"{spec}:{na}~{nb}") for (na, a), (nb, b) in product(named.items(), repeat=2)]
    return params


@pytest.mark.parametrize("a, b", _catalog_pairs())
def test_cohomologous_verdicts_match_reference_solver(a, b, monkeypatch):
    verdict, witness = cohomologous(a, b)  # the witness is certified inside
    monkeypatch.setattr(cocycles, "solve_mod", reference_solve_mod)
    assert cohomologous(a, b)[0] == verdict
