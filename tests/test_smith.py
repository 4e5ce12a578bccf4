from itertools import product
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gquot as gq
from gquot import cocycles, smith
from gquot.catalog import GROUP_SPECS, NONDEGENERATE_CARRIERS
from gquot.cocycles import CocycleTable, OneCochain, coboundary, cohomologous, standard_nondegenerate
from gquot.errors import ValidationError
from gquot.smith import prime_powers, solve_mod
from gquot.suite import sweep_cases


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
    monkeypatch.setattr(cocycles, "solve_mod", lambda rows, rhs, m, factors=None: reference_solve_mod(rows, rhs, m))
    assert cohomologous(a, b)[0] == verdict


# -- the column layout against the row-major elimination it replaced ------------


def reference_solve_prime_power(rows, rhs, ncols, p, e):
    """The row-major elimination: the same pivots, chosen by recounting the
    nonzero coefficients of every candidate row at each pivot."""
    q = p**e
    nrows = len(rows)
    dtype = next((dt for dt, top in smith._DTYPES if q * q <= top), object)
    Ab = np.empty((nrows, ncols + 1), dtype)
    if nrows:
        Ab[:, :ncols] = smith._residues(rows, q, ncols, dtype)
    Ab[:, ncols] = smith._residues([rhs], q, nrows, dtype)[0]
    pivots = []
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
            cand = hits[cv % step != 0]
            if not len(cand):
                left.append(j)
                continue
            r = cand[np.count_nonzero(Ab[cand, :ncols], axis=1).argmin()] if len(cand) > 1 else cand[0]
            uinv = pow(int(col[r]) // pv, -1, q)
            nzc = Ab[r].nonzero()[0]
            row = Ab[r, nzc]
            block = (hits[:, None], nzc)
            Ab[block] = (Ab[block] - (cv // pv * uinv % q)[:, None] * row) % q
            coeffs = row.tolist()
            b = coeffs.pop() if nzc[-1] == ncols else 0
            if b % pv:
                return None
            pivots.append((j, pv, uinv, b, nzc[:len(coeffs)].tolist(), coeffs))
        open_cols = left
    if Ab[:, ncols].any():
        return None
    x = [0] * ncols
    for j, pv, uinv, b, cols, coeffs in reversed(pivots):
        x[j] = (b - sum(a * x[k] for k, a in zip(cols, coeffs) if k != j)) // pv * uinv % q
    return x


def solve_prime_power(rows, rhs, ncols, p, e):
    """The system mod p**e as ``solve_mod`` solves it: factored, then
    replayed on ``rhs``."""
    return smith._replay(p**e, smith._eliminate(rows, ncols, p, e), rhs, ncols)


def assert_same_elimination(rows, rhs, m):
    ncols = len(rows[0]) if len(rows) else 0
    for p, e in prime_powers(m):
        got = solve_prime_power(rows, rhs, ncols, p, e)
        assert got == reference_solve_prime_power(rows, rhs, ncols, p, e), (m, p, e)


def _recorded_systems(pairs, monkeypatch):
    """The systems ``cohomologous`` hands to ``solve_mod`` on the given pairs."""
    systems = []

    def recording(rows, rhs, m, factors=None):
        systems.append((rows, rhs, m))
        return solve_mod(rows, rhs, m, factors=factors)

    monkeypatch.setattr(cocycles, "solve_mod", recording)
    for a, b in pairs:
        cohomologous(a, b)
    return systems


def _twisted_by_a_coboundary(rng, a):
    c = rng.integers(0, a.scale, a.group.n)
    c[0] = 0
    return a.mul(coboundary(OneCochain(a.group, a.scale, tuple(c))))


def test_column_layout_matches_the_row_major_elimination_on_the_certify_systems(monkeypatch):
    """The five solves of the certify benchmark round: a class against itself
    times a coboundary and the trivial class against the non-degenerate one
    on C8xC8 and C2xC4xC2xC4, and a bilinear class on C2xC8xC8 times a
    coboundary (orders 64 and 128, 3,969 and 16,129 rows)."""
    rng = np.random.default_rng(0)
    pairs = []
    for invs in ([8], [2, 4]):
        a = standard_nondegenerate(invs)
        pairs += [(a, _twisted_by_a_coboundary(rng, a)), (CocycleTable.trivial(a.group, a.scale), a)]
    G = gq.make_group("C2xC8xC8")
    coords = np.array([(g // 64, g // 8 % 8, g % 8) for g in range(G.n)])
    a = CocycleTable(G, 8, np.outer(coords[:, 1], coords[:, 2]) % 8)
    pairs.append((a, _twisted_by_a_coboundary(rng, a)))
    systems = _recorded_systems(pairs, monkeypatch)
    assert [(len(rows), len(rows[0])) for rows, _, _ in systems] == [(3969, 63)] * 4 + [(16129, 127)]
    for system in systems:
        assert_same_elimination(*system)


def test_column_layout_matches_the_row_major_elimination_on_the_sweep(monkeypatch):
    """Every sweep case against itself times a coboundary and against the
    trivial class."""
    rng = np.random.default_rng(1)
    pairs = []
    for _, G, _, a in sweep_cases():
        pairs += [(a, _twisted_by_a_coboundary(rng, a)), (CocycleTable.trivial(G, a.scale), a)]
    systems = _recorded_systems(pairs, monkeypatch)
    assert len(systems) == 2 * len(sweep_cases())
    for system in systems:
        assert_same_elimination(*system)


@pytest.mark.parametrize(
    "m",
    [
        2**7,  # int16, seven valuation levels
        181,  # int16
        3**9,  # int32
        46337,  # int32
        2**31,  # int64, 31 levels
        3037000493,  # int64
        3**40,  # Python integers
        2**70,  # Python integers
    ],
)
def test_column_layout_matches_the_row_major_elimination_on_random_systems(m):
    """Sparse random systems on every dtype rung, with columns scaled by
    powers of p so that pivots come from several valuation levels, solvable
    by construction or not."""
    rng = np.random.default_rng(m % 2**32)
    p = prime_powers(m)[0][0]
    for trial in range(40):
        nrows, ncols = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        top = min(m, 2**62)
        A = [[int(v) for v in rng.integers(-top, top, ncols)] for _ in range(nrows)]
        keep = rng.random((nrows, ncols)) < 0.3
        scale = [p ** int(rng.integers(0, 4)) for _ in range(ncols)]
        rows = [[a * s if k else 0 for a, s, k in zip(row, scale, mask)] for row, mask in zip(A, keep)]
        if trial % 2:
            x0 = [int(v) for v in rng.integers(0, top, ncols)]
            rhs = [sum(a * v for a, v in zip(row, x0)) for row in rows]
        else:
            rhs = [int(v) for v in rng.integers(-top, top, nrows)]
        assert_same_elimination(rows, rhs, m)


# -- one array per system, loaded straight into the columns --------------------


def list_load_eliminate(rows, ncols, p, e):
    """``smith._eliminate`` with the load it had when a system's rows came as a
    list: each block of rows stacked by ``np.asarray``, widened, reduced mod
    q and cast to the residue dtype as a new array, then copied transposed
    into the columns; the shears as a list."""
    q = p**e
    nrows = len(rows)
    dtype = smith._dtype(q)
    cols = np.empty((ncols, nrows), dtype)
    counts = np.empty(nrows, np.intp)
    for s in range(0, nrows, smith._CHUNK_ROWS):
        values = rows[s:s + smith._CHUNK_ROWS]
        block = np.asarray(values)
        if dtype is not object and block.ndim == 2 and np.can_cast(block.dtype, np.int64):
            wide = np.promote_types(block.dtype, dtype)
            block = (block.astype(wide, copy=False) % q).astype(dtype, copy=False)
        else:
            block = np.array([[int(v) % q for v in row] for row in values], dtype=object).reshape(len(values), ncols)
        cols[:, s:s + smith._CHUNK_ROWS] = block.T
        counts[s:s + smith._CHUNK_ROWS] = np.count_nonzero(block, axis=1)
    shears = []
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
            cand = hits[cv % step != 0]
            if not len(cand):
                left.append(j)
                continue
            r = cand[counts[cand].argmin()] if len(cand) > 1 else cand[0]
            uinv = pow(int(col[r]) // pv, -1, q)
            nzc = cols[:, r].nonzero()[0]
            row = cols[nzc, r]
            block = (nzc[:, None], hits)
            old = cols[block]
            mults = cv // pv * uinv % q
            new = (old - row[:, None] * mults) % q
            counts[hits] += (new != 0).sum(axis=0) - (old != 0).sum(axis=0)
            cols[block] = new
            shears.append((int(r), hits, mults, (j, pv, uinv, nzc.tolist(), row.tolist())))
        open_cols = left
    return shears


def assert_same_shears(rows, m):
    """Per prime power of m, every shear of ``_eliminate`` on the
    ``SystemRows`` ``rows`` equals the shear the list load makes of the
    same rows as lists of Python integers."""
    assert isinstance(rows, smith.SystemRows)
    ncols = len(rows[0]) if rows else 0
    as_lists = [row.tolist() for row in rows]
    for p, e in prime_powers(m):
        got, want = list(smith._eliminate(rows, ncols, p, e)), list_load_eliminate(as_lists, ncols, p, e)
        assert len(got) == len(want), (m, p, e)
        for (r, hits, mults, pivot), (r0, hits0, mults0, pivot0) in zip(got, want):
            assert (r, pivot) == (r0, pivot0), (m, p, e)
            assert np.array_equal(hits, hits0) and np.array_equal(mults, mults0) and mults.dtype == mults0.dtype


def _certify_pairs(rng):
    """The five pairs of the certify benchmark round: the non-degenerate class
    on C8xC8 and C2xC4xC2xC4 against itself times a coboundary and the
    trivial class against it, and the bilinear class on C2xC8xC8 against
    itself times a coboundary."""
    pairs = []
    for invs in ([8], [2, 4]):
        a = standard_nondegenerate(invs)
        pairs += [(a, _twisted_by_a_coboundary(rng, a)), (CocycleTable.trivial(a.group, a.scale), a)]
    G = gq.make_group("C2xC8xC8")
    coords = np.array([(g // 64, g // 8 % 8, g % 8) for g in range(G.n)])
    a = CocycleTable(G, 8, np.outer(coords[:, 1], coords[:, 2]) % 8)
    return pairs + [(a, _twisted_by_a_coboundary(rng, a))]


def test_the_column_load_gives_the_list_load_shears_on_the_catalog(monkeypatch):
    """Every catalog group's coboundary system at the modulus of a scale-12
    solve, at each of its prime powers."""
    rng = np.random.default_rng(6)
    pairs = []
    for spec in GROUP_SPECS:
        trivial = CocycleTable.trivial(gq.make_group(spec), 12)
        pairs.append((trivial, _twisted_by_a_coboundary(rng, trivial)))
    systems = _recorded_systems(pairs, monkeypatch)
    assert len(systems) == len(GROUP_SPECS)
    for rows, _, m in systems:
        assert_same_shears(rows, m)


def test_the_column_load_gives_the_list_load_shears_on_the_certify_systems(monkeypatch):
    """The five certify systems (orders 64 and 128), at each prime power."""
    systems = _recorded_systems(_certify_pairs(np.random.default_rng(7)), monkeypatch)
    assert [(len(rows), len(rows[0])) for rows, _, _ in systems] == [(3969, 63)] * 4 + [(16129, 127)]
    for rows, _, m in systems:
        assert_same_shears(rows, m)


def test_system_rows_are_one_read_only_array():
    """``SystemRows`` is a sequence of the rows of one array: a slice is a view
    of it, nothing in it can be written, and its registry key is the one a
    list of the same rows gets."""
    block = np.arange(12, dtype=np.int8).reshape(4, 3)
    rows = smith.SystemRows(block)
    assert bool(rows) and len(rows) == 4 and len(rows[0]) == 3 and not smith.SystemRows(np.zeros((0, 0), np.int8))
    assert [row.tolist() for row in rows] == block.tolist()
    part = rows[1:3]
    assert isinstance(part, np.ndarray) and np.shares_memory(part, block) and part.shape == (2, 3)
    with pytest.raises(ValueError):
        rows[0][0] = 1
    assert rows.key(6) == smith._system_key(list(block), 6) and rows.key(6) is rows.key(6)


# -- factor once, replay per right-hand side ------------------------------------


def factor(rows, m):
    """The recorded elimination of each prime power of m, as ``solve_mod``
    keeps it in a registry."""
    ncols = len(rows[0]) if len(rows) else 0
    return [(p**e, list(smith._eliminate(rows, ncols, p, e))) for p, e in prime_powers(m)]


def assert_same_replay(rows, rhs_list, m, records=None):
    """On each right-hand side, per prime power, the replay of one record
    kept across the right-hand sides against a fresh factorization and
    against the row-major reference, which eliminates the augmented matrix;
    then the registry solve against the bare one."""
    ncols = len(rows[0]) if len(rows) else 0
    records = factor(rows, m) if records is None else records
    factors = {}
    for rhs in rhs_list:
        for (p, e), (q, shears) in zip(prime_powers(m), records):
            got = smith._replay(q, shears, rhs, ncols)
            assert got == solve_prime_power(rows, rhs, ncols, p, e), (m, p, e)
            assert got == reference_solve_prime_power(rows, rhs, ncols, p, e), (m, p, e)
        assert solve_mod(rows, rhs, m, factors=factors) == solve_mod(rows, rhs, m)
    assert len(factors) == 1


def right_hand_sides(rng, rows, rhs, m, count=3):
    """``rhs``, ``count`` random right-hand sides in range(m) and one
    solvable by construction."""
    A = np.array(rows, dtype=np.int64).reshape(len(rows), len(rows[0]) if len(rows) else 0)
    x0 = rng.integers(0, m, A.shape[1])
    return [list(rhs)] + [rng.integers(0, m, len(rows)).tolist() for _ in range(count)] + [(A @ x0 % m).tolist()]


def test_replay_matches_a_fresh_solve_on_the_certify_systems(monkeypatch):
    """The five solves of the certify benchmark round (orders 64 and 128),
    each replayed on its own right-hand side and on four others."""
    rng = np.random.default_rng(2)
    pairs = []
    for invs in ([8], [2, 4]):
        a = standard_nondegenerate(invs)
        pairs += [(a, _twisted_by_a_coboundary(rng, a)), (CocycleTable.trivial(a.group, a.scale), a)]
    G = gq.make_group("C2xC8xC8")
    coords = np.array([(g // 64, g // 8 % 8, g % 8) for g in range(G.n)])
    a = CocycleTable(G, 8, np.outer(coords[:, 1], coords[:, 2]) % 8)
    pairs.append((a, _twisted_by_a_coboundary(rng, a)))
    systems = _recorded_systems(pairs, monkeypatch)
    assert len(systems) == 5
    for rows, rhs, m in systems:
        assert m < 2**40  # the solvable right-hand side is built in int64
        assert_same_replay(rows, right_hand_sides(rng, rows, rhs, m), m)


def test_replay_matches_a_fresh_solve_on_the_sweep(monkeypatch):
    rng = np.random.default_rng(3)
    pairs = []
    for _, G, _, a in sweep_cases():
        pairs += [(a, _twisted_by_a_coboundary(rng, a)), (CocycleTable.trivial(G, a.scale), a)]
    systems = _recorded_systems(pairs, monkeypatch)
    assert len(systems) == 2 * len(sweep_cases())
    for rows, rhs, m in systems:
        assert m < 2**40
        assert_same_replay(rows, right_hand_sides(rng, rows, rhs, m), m)


@pytest.mark.parametrize(
    "m",
    [
        2**7,  # int16, seven valuation levels
        181,  # int16
        3**9,  # int32
        46337,  # int32
        2**31,  # int64, 31 levels
        3037000493,  # int64
        3**40,  # Python integers
        2**70,  # Python integers
        2**6 * 3**3 * 181,  # three prime powers, int16 and int32
    ],
)
def test_replay_matches_a_fresh_solve_on_random_systems(m):
    """The sparse random systems of the column-layout test, on every dtype
    rung, each with four random right-hand sides, two of them solvable by
    construction."""
    rng = np.random.default_rng(m % 2**32 + 1)
    p = prime_powers(m)[0][0]
    top = min(m, 2**62)
    for _ in range(30):
        nrows, ncols = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        A = [[int(v) for v in rng.integers(-top, top, ncols)] for _ in range(nrows)]
        keep = rng.random((nrows, ncols)) < 0.3
        scale = [p ** int(rng.integers(0, 4)) for _ in range(ncols)]
        rows = [[a * s if k else 0 for a, s, k in zip(row, scale, mask)] for row, mask in zip(A, keep)]
        rhs_list = []
        for trial in range(4):
            if trial % 2:
                x0 = [int(v) for v in rng.integers(0, top, ncols)]
                rhs_list.append([sum(a * v for a, v in zip(row, x0)) for row in rows])
            else:
                rhs_list.append([int(v) for v in rng.integers(-top, top, nrows)])
        assert_same_replay(rows, rhs_list, m)


def test_a_record_with_one_multiplier_off_fails_the_comparison(monkeypatch):
    """One multiplier of the first shear of the C2xC2 coboundary system, off
    by one, must change the replay of a solvable right-hand side."""
    alpha = standard_nondegenerate([2])
    [(rows, rhs, m)] = _recorded_systems([(CocycleTable.trivial(alpha.group), alpha)], monkeypatch)
    rhs_list = right_hand_sides(np.random.default_rng(4), rows, rhs, m)
    records = factor(rows, m)
    assert_same_replay(rows, rhs_list, m, records)
    [(q, shears)] = records
    r, hits, mults, pivot = shears[0]
    off = mults.copy()
    off[np.flatnonzero(hits != r)[0]] += 1
    mutated = [(q, [(r, hits, off, pivot)] + shears[1:])]
    with pytest.raises(AssertionError):
        assert_same_replay(rows, rhs_list, m, mutated)


def test_one_registry_entry_per_exact_system():
    """A registry keys a system by m and the exact coefficients: the same rows
    under two moduli make two entries; a second call on one system factors
    nothing; rows that agree only as floats are two systems."""
    rows, factors = [[1, 2], [3, 4], [0, 6]], {}
    assert solve_mod(rows, [1, 2, 3], 12, factors=factors) == solve_mod(rows, [1, 2, 3], 12)
    assert solve_mod(rows, [1, 2, 3], 10, factors=factors) == solve_mod(rows, [1, 2, 3], 10)
    assert len(factors) == 2
    assert solve_mod(rows, [2, 0, 6], 12, factors=factors) == solve_mod(rows, [2, 0, 6], 12)
    assert len(factors) == 2
    big = [[2**63, -1], [2**63 + 1, -1]]  # numpy reads both rows as one float64 row
    for rows in ([big[0]], [big[1]]):
        assert solve_mod(rows, [5], 2**70, factors=factors) == solve_mod(rows, [5], 2**70)
    assert len(factors) == 4
