import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gquot as gq
from gquot import cocycles
from gquot.catalog import GROUP_SPECS, NONDEGENERATE_CARRIERS, build_group, resolve_cocycle
from gquot.cocycles import (
    MAX_SCALE,
    Bicharacter,
    CocycleTable,
    OneCochain,
    bicharacter_of,
    coboundary,
    cohomologous,
    group_exponent,
    is_cohomologically_trivial,
    parse_cocycle,
    reconcile_scales,
    standard_nondegenerate,
)
from gquot.errors import DomainError, ScaleError, TheoremCheckError, ValidationError
from gquot.smith import solve_mod
from gquot.suite import sweep_cases
from gquot.twisted import TwistedAlgebra, is_nondegenerate


def format_cocycle(a: CocycleTable) -> str:
    """The cocycle text format that ``parse_cocycle`` reads."""
    lines = [f"{a.scale} {a.group.n}"]
    for g in range(a.group.n):
        lines.append(" ".join(str(int(x)) for x in a.exps[g]))
    return "\n".join(lines) + "\n"


def reference_standard_nondegenerate_exps(invariants):
    """The exponent table of ``standard_nondegenerate`` with the coordinates
    of each element read off by the digit loop the function replaced."""
    invariants = list(invariants)
    m = math.lcm(*invariants)
    r, sizes = len(invariants), invariants + invariants
    n = math.prod(sizes)
    coords = np.empty((n, 2 * r), dtype=np.int64)
    for g in range(n):
        x = g
        for j in range(2 * r - 1, -1, -1):
            coords[g, j] = x % sizes[j]
            x //= sizes[j]
    weights = np.array([m // k for k in invariants], dtype=np.int64)
    return (coords[:, :r] * weights @ coords[:, r:].T) % m


@pytest.mark.parametrize(
    "invariants", [(1,), (2,), (3,), (4,), (6,), (2, 2), (2, 3), (3, 3), (2, 4)], ids=str
)
def test_standard_nondegenerate_matches_reference(invariants):
    a = standard_nondegenerate(invariants)
    assert a.scale == math.lcm(*invariants)
    assert a.exps.dtype == np.int64
    assert np.array_equal(a.exps, reference_standard_nondegenerate_exps(invariants))


def test_coboundary_of_zero_is_trivial():
    G = gq.make_group("C2xC2")
    c = OneCochain(G, 4, (0, 0, 0, 0))
    assert coboundary(c).is_trivial_table()
    t = gq.trivial_group()
    assert coboundary(OneCochain(t, 7, (0,))).is_trivial_table()


@given(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
@settings(max_examples=50, deadline=None)
def test_coboundary_is_cocycle_and_trivial_class(vals):
    G = gq.make_group("C2xC2")
    c = OneCochain(G, 4, (0,) + vals)
    table = coboundary(c)  # construction re-checks the identity on all 64 triples
    ok, witness = is_cohomologically_trivial(table)
    assert ok
    lifted = table.rescale(witness.scale)
    assert np.array_equal(coboundary(witness).exps, lifted.exps)


def test_cohomologous_reflexive_with_zero_witness():
    a = standard_nondegenerate([2])
    same, witness = cohomologous(a, a)
    assert same and all(v == 0 for v in witness.exps)


def test_nondegenerate_not_trivial_class_with_block_oracle():
    a = standard_nondegenerate([2])
    triv = CocycleTable.trivial(a.group)
    assert not cohomologous(triv, a)[0]
    # independent oracle: block structures differ
    assert TwistedAlgebra(a.group, triv).wedderburn(seed=0).dims == (1, 1, 1, 1)
    assert TwistedAlgebra(a.group, a).wedderburn(seed=0).dims == (2,)


def test_bicharacter_examples():
    G = gq.make_group("C2xC2")
    assert bicharacter_of(CocycleTable.trivial(G)).is_zero()
    a = standard_nondegenerate([2])
    b = bicharacter_of(a)
    # x = (1,0) is index 2, phi(x) = (0,1) is index 1; value is -1, i.e. m/2
    assert b.exps[2, 1] % 2 == a.scale // 2
    assert b.radical().order == 1


@given(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
@settings(max_examples=40, deadline=None)
def test_bicharacter_is_class_invariant(vals):
    a = standard_nondegenerate([2]).rescale(4)
    c = OneCochain(a.group, 4, (0,) + vals)
    assert bicharacter_of(a.mul(coboundary(c))) == bicharacter_of(a)


def test_bicharacter_requires_abelian():
    S3 = gq.symmetric(3)
    with pytest.raises(DomainError):
        bicharacter_of(CocycleTable.trivial(S3))


def test_radical_examples():
    G = gq.make_group("C2xC2")
    assert bicharacter_of(CocycleTable.trivial(G)).radical().order == G.n
    a44 = standard_nondegenerate([4])
    # the order-4 subgroup <x^2, y^2> is isotropic: the restricted form vanishes,
    # so its radical is the whole subgroup (it is one of the Lagrangians)
    L = gq.generated_subgroup(a44.group, [8, 2])
    rest = a44.restrict(L)
    assert bicharacter_of(rest).radical().order == rest.group.n == L.order
    assert is_cohomologically_trivial(rest)[0]


def test_standard_nondegenerate_families():
    for n in range(1, 7):
        a = standard_nondegenerate([n])
        assert a.group.n == n * n
        assert bicharacter_of(a).radical().order == 1
    a22 = standard_nondegenerate([2, 2])
    assert a22.group.n == 16 and bicharacter_of(a22).radical().order == 1


def test_restriction_examples():
    a44 = standard_nondegenerate([4])
    G = a44.group
    triv = CocycleTable.trivial(G, 4)
    rest = triv.restrict(gq.generated_subgroup(G, [4]))
    assert rest.is_trivial_table()
    restx = a44.restrict(gq.generated_subgroup(G, [4]))
    assert is_cohomologically_trivial(restx)[0]


def test_restriction_to_sub_products_stays_nondegenerate():
    # the generator-indexed sub-products of the reference class stay non-degenerate
    a = standard_nondegenerate([2, 2])
    G = a.group  # factors ordered x1, x2, phi(x1), phi(x2)
    gens = {0: 8, 1: 4, 2: 2, 3: 1}  # generator indices of the four cyclic factors
    for B in [(0,), (1,), (0, 1)]:
        seeds = [gens[i] for i in B] + [gens[i + 2] for i in B]
        H = gq.generated_subgroup(G, seeds)
        rest = a.restrict(H)
        assert bicharacter_of(rest).radical().order == 1


def test_is_nondegenerate_paths_agree():
    # the exact center decides what the block oracle's count decided, and on
    # abelian groups the radical criterion agrees: every abelian catalog
    # class, every sweep case, the trivial class of every catalog group, and
    # the standard non-degenerate class on C2^6 and C8 x C8
    def oracle_verdict(a):
        return len(TwistedAlgebra(a.group, a).wedderburn(seed=0).dims) == 1

    for invs in ([2], [3], [4], [5], [6], [2, 2]):
        a = standard_nondegenerate(invs)
        radical_verdict = bicharacter_of(a).radical().order == 1
        assert radical_verdict == oracle_verdict(a) == is_nondegenerate(a)
        t = CocycleTable.trivial(a.group)
        assert (bicharacter_of(t).radical().order == 1) == oracle_verdict(t) == is_nondegenerate(t)
    G = gq.make_group("C3xC3")
    assert not is_nondegenerate(CocycleTable.trivial(G))
    cases = [(f"{gname}/{cname}", a) for gname, _, cname, a in sweep_cases()]
    cases += [(f"{name}/trivial", CocycleTable.trivial(build_group(name))) for name in GROUP_SPECS]
    cases += [(f"nd_{invs}", standard_nondegenerate(invs)) for invs in ([2, 2, 2], [8])]
    verdicts = {tag: is_nondegenerate(a) for tag, a in cases}
    assert verdicts == {tag: oracle_verdict(a) for tag, a in cases}
    assert verdicts["nd_[2, 2, 2]"] and verdicts["nd_[8]"] and not verdicts["S3/trivial"]


def test_is_nondegenerate_c6xc6():
    a = standard_nondegenerate([6])
    assert is_nondegenerate(a)
    assert TwistedAlgebra(a.group, a).wedderburn(seed=0).dims == (6,)


@pytest.mark.parametrize("cname", ["nd_C2xC2", "trivial"])
def test_nondegeneracy_cross_check_fires_when_the_radical_flips(monkeypatch, cname):
    """A radical that reads the other way contradicts the exact center."""
    G = build_group("C2xC2")
    a = resolve_cocycle(cname, G)
    radical = Bicharacter.radical

    def flipped(self):
        whole = radical(self).order > 1
        return gq.Subgroup(self.group, (0,) if whole else tuple(range(self.group.n)))

    monkeypatch.setattr(Bicharacter, "radical", flipped)
    with pytest.raises(TheoremCheckError, match="^non-degeneracy: center dimension and bicharacter radical disagree$"):
        is_nondegenerate(a)


def test_cohomologous_is_equivalence_on_samples():
    G = gq.make_group("C2xC2")
    rng = np.random.default_rng(3)
    samples = [CocycleTable.trivial(G, 2), standard_nondegenerate([2])]
    for _ in range(3):
        c = OneCochain(G, 4, (0,) + tuple(int(x) for x in rng.integers(0, 4, 3)))
        samples.append(samples[-1].rescale(4).mul(coboundary(c)))
    for a in samples:
        assert cohomologous(a, a)[0]
    for a in samples:
        for b in samples:
            ab = cohomologous(a, b)[0]
            assert ab == cohomologous(b, a)[0]
            for c in samples:
                if ab and cohomologous(b, c)[0]:
                    assert cohomologous(a, c)[0]


def _certified_cohomologous(a, b):
    """cohomologous(a, b), with its witness re-checked here at the solve scale."""
    same, witness = cohomologous(a, b)
    if same:
        m = witness.scale
        assert np.array_equal(coboundary(witness).exps, (b.rescale(m).exps - a.rescale(m).exps) % m)
    return same


def bilinear_c2xc8xc8() -> CocycleTable:
    """The bilinear class zeta_8^(x1 y2) on C2 x C8 x C8, element g = (g // 64, g // 8 % 8, g % 8)."""
    G = gq.make_group("C2xC8xC8")
    coords = np.array([(g // 64, g // 8 % 8, g % 8) for g in range(G.n)])
    return CocycleTable(G, 8, np.outer(coords[:, 1], coords[:, 2]))


def times_random_coboundary(a: CocycleTable, rng) -> CocycleTable:
    c = rng.integers(0, a.scale, a.group.n)
    c[0] = 0
    return a.mul(coboundary(OneCochain(a.group, a.scale, tuple(c))))


@given(st.data())
@settings(max_examples=4, deadline=None)
def test_coboundary_twist_and_relabeling_at_order_128(data):
    a = bilinear_c2xc8xc8()
    G = a.group
    c = OneCochain(G, 8, [0] + data.draw(st.lists(st.integers(0, 7), min_size=G.n - 1, max_size=G.n - 1)))
    b = a.mul(coboundary(c))
    assert _certified_cohomologous(a, b)
    perm = np.array([0] + data.draw(st.permutations(range(1, G.n))))
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    H = gq.FiniteGroup(table)
    moved = []
    for t in (a, b):
        exps = np.empty_like(t.exps)
        exps[np.ix_(perm, perm)] = t.exps
        moved.append(CocycleTable(H, t.scale, exps))
    assert _certified_cohomologous(*moved)
    assert not _certified_cohomologous(CocycleTable.trivial(H, 8), moved[1])


def test_scale_reconciliation():
    G = gq.cyclic(2)
    a = CocycleTable.trivial(G, 2)
    b = CocycleTable.trivial(G, 3)
    assert cohomologous(a, b)[0]
    with pytest.raises(DomainError):
        cohomologous(a, CocycleTable.trivial(gq.cyclic(3), 2))


def inflate(a, proj):
    """Pull a cocycle on a quotient back along the projection."""
    if proj.target != a.group:
        raise DomainError("projection target does not carry the cocycle")
    idx = np.asarray(proj.images)
    return CocycleTable(proj.source, a.scale, a.exps[np.ix_(idx, idx)])


def test_inflate():
    G = gq.make_group("C4xC4")
    N = gq.generated_subgroup(G, [8, 2])
    Q, proj = gq.quotient(G, N)
    aq = standard_nondegenerate([2])
    iso = gq.are_isomorphic(Q, aq.group)
    assert iso.isomorphic
    # pull back along quotient-then-isomorphism; inflation of the identity-class
    relabeled = CocycleTable(Q, aq.scale, aq.exps[np.ix_(iso.hom.images, iso.hom.images)])
    lifted = inflate(relabeled, proj)
    assert lifted.group == G
    # inflation of a trivial table is trivial
    assert inflate(CocycleTable.trivial(Q, 5), proj).is_trivial_table()


def test_cocycle_file_round_trip_and_errors():
    a = standard_nondegenerate([3])
    assert parse_cocycle(format_cocycle(a), a.group) == a
    klein = gq.make_group("C2xC2")
    with pytest.raises(ValidationError, match="line"):
        parse_cocycle("2 4\n0 0 0 0\n0 0 x 0\n0 0 0 0\n0 0 0 0\n", klein)
    with pytest.raises(ValidationError):
        parse_cocycle("2 3\n0 0 0\n0 0 0\n0 0 0\n", klein)


@pytest.mark.parametrize(
    "text, record",
    [
        ("2 2\n0 0\n0 ١\n", "line 3: non-integer entry '١'"),
        ("2 2\n0 0\n0 +1\n", "line 3: non-integer entry '+1'"),
        ("2 2\n0_0 0\n0 1\n", "line 2: non-integer entry '0_0'"),
    ],
)
def test_cocycle_rows_take_ascii_digits_only(text, record):
    """A row entry must be ASCII digits after an optional minus sign: ``int``
    alone read the first text as the exponents [[0, 0], [0, 1]].  A negative
    exponent is still read mod the scale."""
    C2 = gq.cyclic(2)
    with pytest.raises(ValidationError) as raised:
        parse_cocycle(text, C2)
    assert str(raised.value) == record
    assert parse_cocycle("2 2\n0 0\n0 -1\n", C2).exps.tolist() == [[0, 0], [0, 1]]


def test_invalid_cocycle_rejected():
    G = gq.cyclic(3)
    bad = np.zeros((3, 3), dtype=int)
    bad[1, 1] = 1  # breaks the cocycle identity for scale 2
    with pytest.raises(ValidationError):
        CocycleTable(G, 2, bad)
    with pytest.raises(ValidationError, match="normalized"):
        CocycleTable(G, 2, np.ones((3, 3), dtype=int))


def test_scales_beyond_int64_are_refused():
    C4 = gq.cyclic(4)
    with pytest.raises(ValidationError, match="int64"):
        CocycleTable(C4, 2**63, np.zeros((4, 4), dtype=int))
    # from 2**62 on, a sum of two exponents could leave int64
    for scale in (2**62, 2**63 - 1):
        with pytest.raises(ValidationError, match="int64"):
            CocycleTable(C4, scale, np.zeros((4, 4), dtype=int))
        with pytest.raises(ValidationError, match="int64"):
            Bicharacter(C4, scale, np.zeros((4, 4), dtype=int))
        with pytest.raises(ValidationError, match="int64"):
            OneCochain(C4, scale, (0, 1, 2, 3))
    assert CocycleTable(C4, MAX_SCALE, np.zeros((4, 4), dtype=int)).scale == 2**62 - 1
    m = 2**61 + 1
    a = coboundary(OneCochain(C4, m, (0, 1, 2, 3)))
    with pytest.raises(ScaleError, match="int64"):
        a.rescale(4 * m)
    with pytest.raises(ScaleError):
        cohomologous(a, CocycleTable.trivial(C4, m))  # lifts the scale to m * exp(C4)


def python_integer_cocycle(table, m, mul) -> bool:
    """Normalization and the 2-cocycle identity, in Python integers (no wrap)."""
    n = len(table)
    if any(table[0][g] % m or table[g][0] % m for g in range(n)):
        return False
    return all(
        (table[g][h] + table[mul[g][h]][k] - table[h][k] - table[g][mul[h][k]]) % m == 0
        for g in range(n)
        for h in range(n)
        for k in range(n)
    )


@given(st.sampled_from(["C2", "C3", "C4"]), st.integers(0, 3), st.data())
@settings(max_examples=400, deadline=None)
def test_validate_matches_python_integers_near_the_scale_bound(spec, below, data):
    """At scales just below MAX_SCALE, with exponents near 0 and near the
    scale, the int64 validator gives the verdict of a Python-integer check."""
    G = gq.make_group(spec)
    m, n, mul = MAX_SCALE - below, G.n, G.table.tolist()
    near = st.one_of(st.integers(0, 12), st.integers(m - 12, m - 1))
    if data.draw(st.booleans(), label="from a coboundary"):
        c = [0] + data.draw(st.lists(near, min_size=n - 1, max_size=n - 1))
        table = [[(c[g] + c[h] - c[mul[g][h]]) % m for h in range(n)] for g in range(n)]
        g, h = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n - 1))
        table[g][h] = (table[g][h] + data.draw(st.integers(-12, 12))) % m
    else:
        table = [[0] * n] + [[0] + data.draw(st.lists(near, min_size=n - 1, max_size=n - 1)) for _ in range(n - 1)]
    try:
        CocycleTable(G, m, table)
        accepted = True
    except ValidationError:
        accepted = False
    assert accepted == python_integer_cocycle(table, m, mul)


def reference_first_bad_triple(exps, m, mul):
    """The full (n, n, n) check the slab-wise validator replaced."""
    left = exps[:, :, None] + exps[mul, :]
    right = exps[None, :, :] + exps[:, mul]
    bad = (left - right) % m
    return tuple(int(x) for x in np.argwhere(bad)[0]) if bad.any() else None


@given(
    st.sampled_from(["nd_C2xC2", "nd_C3xC3", "nd_C2xC2xC2xC2", "S3", "Q8"]),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_corrupted_table_reports_reference_triple(name, data):
    if name.startswith("nd_"):
        a = standard_nondegenerate(NONDEGENERATE_CARRIERS[name[3:]])
    else:
        a = CocycleTable.trivial(gq.make_group(name), 4)
    n, m = a.group.n, a.scale
    exps = a.exps.copy()
    for _ in range(data.draw(st.integers(1, 3))):
        g, h = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n - 1))
        exps[g, h] = (exps[g, h] + data.draw(st.integers(1, m - 1))) % m
    triple = reference_first_bad_triple(exps, m, a.group.table)
    if triple is None:
        CocycleTable(a.group, m, exps)
    else:
        with pytest.raises(ValidationError, match=re.escape(f"triple ({triple[0]},{triple[1]},{triple[2]})")):
            CocycleTable(a.group, m, exps)


# -- the coboundary system and the generator-column validators ------------------

THEOREM_D_CARRIERS = ((8,), (2, 4))  # C8xC8 and C2xC4xC2xC4, the order-64 carriers of the Theorem-D workload


def reference_coboundary_rows(a: CocycleTable, b: CocycleTable):
    """The system ``cohomologous`` solved when it was built as Python lists:
    one row per (g, h) with g, h != e, g-major, at the whole lifted scale."""
    a, b = reconcile_scales(a, b)
    lift = a.scale * group_exponent(a.group)
    a, b = a.rescale(lift), b.rescale(lift)
    n, m = a.group.n, a.scale
    target = (b.exps - a.exps) % m
    mul = a.group.table
    rows, rhs = [], []
    for g in range(1, n):
        for h in range(1, n):
            coeff = [0] * (n - 1)
            coeff[g - 1] += 1
            coeff[h - 1] += 1
            gh = int(mul[g, h])
            if gh != 0:
                coeff[gh - 1] -= 1
            rows.append(coeff)
            rhs.append(int(target[g, h]))
    return rows, rhs, m


def _system_cases():
    """A cohomologous pair on every catalog group, and on the order-64 and
    order-128 carriers a cohomologous pair and a non-cohomologous one; then
    scales with a large prime that does not divide the group order."""
    rng = np.random.default_rng(19)
    cases = []
    for spec in GROUP_SPECS:
        G = gq.make_group(spec)
        if spec in NONDEGENERATE_CARRIERS:
            a = standard_nondegenerate(NONDEGENERATE_CARRIERS[spec])
        else:
            a = CocycleTable.trivial(G, 6)
        cases.append(pytest.param(a, times_random_coboundary(a, rng), id=spec))
    carriers = [(f"nd{list(i)}", standard_nondegenerate(i)) for i in THEOREM_D_CARRIERS]
    for name, a in carriers + [("C2xC8xC8", bilinear_c2xc8xc8())]:
        cases.append(pytest.param(a, times_random_coboundary(a, rng), id=f"{name}~dc"))
        cases.append(pytest.param(CocycleTable.trivial(a.group), a, id=f"{name}~trivial"))
    for name, a in carriers:
        big = a.rescale(a.scale * 1000003)
        cases.append(pytest.param(big, times_random_coboundary(big, rng), id=f"{name}*1000003~dc"))
        trivial = CocycleTable.trivial(a.group, 3 * 1000033)
        cases.append(pytest.param(trivial, times_random_coboundary(trivial, rng), id=f"{name}:3*1000033~dc"))
        cases.append(pytest.param(trivial, a, id=f"{name}:3*1000033~nd"))
    return cases


@pytest.mark.parametrize("a, b", _system_cases())
def test_coboundary_system_matches_reference_rows(a, b, monkeypatch):
    calls = []

    def recording(rows, rhs, m, factors=None):
        calls.append((rows, rhs, m))
        return solve_mod(rows, rhs, m, factors=factors)

    monkeypatch.setattr(cocycles, "solve_mod", recording)
    same, witness = cohomologous(a, b)
    [(rows, rhs, m)] = calls
    ref_rows, ref_rhs, ref_m = reference_coboundary_rows(a, b)
    # a list of int8 rows: a wrapper may read len(rows[0]) behind `if rows`
    assert isinstance(rows, list) and all(row.dtype == np.int8 for row in rows[:1])
    # the solver gets the part of the lifted scale whose primes divide |G|
    n = a.group.n
    assert ref_m % m == 0 and pow(n, m.bit_length(), m) == 0 and math.gcd(ref_m // m, n) == 1
    assert list(rhs) == ref_rhs
    assert [row.tolist() for row in rows] == ref_rows
    x = solve_mod(ref_rows, ref_rhs, ref_m)  # the whole-scale solve, as before the split
    assert same == (x is not None)
    assert witness is None if x is None else witness.exps == (0,) + tuple(x)


def counted_solves(monkeypatch):
    """Every ``cocycles.solve_mod`` call, as (rows, factors)."""
    calls = []

    def counted(rows, rhs, m, factors=None):
        calls.append((rows, factors))
        return solve_mod(rows, rhs, m, factors=factors)

    monkeypatch.setattr(cocycles, "solve_mod", counted)
    return calls


def test_a_bare_solve_on_c2xc2_is_one_call_of_nine_int8_rows(monkeypatch):
    """The shape the benchmark tracer pins: one ``solve_mod`` call, with a list
    of 9 int8 rows of 3 columns, and no registry."""
    alpha = standard_nondegenerate([2])
    calls = counted_solves(monkeypatch)
    cohomologous(CocycleTable.trivial(alpha.group), alpha)
    [(rows, factors)] = calls
    assert factors is None and isinstance(rows, list) and len(rows) == 9
    assert all(row.dtype == np.int8 and row.shape == (3,) for row in rows)


def test_a_registry_solve_is_still_one_call_per_solve(monkeypatch):
    """With a registry, each ``cohomologous`` call still makes one
    ``cocycles.solve_mod`` call; the rows are built on the first and kept in
    the registry by table core and modulus, the system is factored on the
    first and replayed on the others, with the verdicts and witnesses of
    bare calls.  So the registry holds two entries: the rows and the
    elimination."""
    alpha = standard_nondegenerate([2, 2])
    G, rng = alpha.group, np.random.default_rng(5)
    others = [alpha, times_random_coboundary(alpha, rng), CocycleTable.trivial(G, alpha.scale)]
    others.append(times_random_coboundary(others[-1], rng))
    bare = [cohomologous(alpha, b) for b in others]
    calls, factors = counted_solves(monkeypatch), {}
    replayed = [cohomologous(alpha, b, factors=factors) for b in others]
    assert len(calls) == len(others) and all(f is factors for _, f in calls)
    assert len(factors) == 2
    [(core, m1)] = [key for key in factors if len(key) == 2]
    assert core is G.core and all(rows is factors[core, m1] for rows, _ in calls)
    assert [v for v, _ in replayed] == [True, True, False, False]
    assert [(v, w and w.exps) for v, w in replayed] == [(v, w and w.exps) for v, w in bare]


def test_cohomologous_peak_memory_at_order_128():
    a = bilinear_c2xc8xc8()
    b = times_random_coboundary(a, np.random.default_rng(1))
    cohomologous(a, b)  # first-use allocations of numpy stay out of the measurement
    tracemalloc.start()
    try:
        same, _ = cohomologous(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # half the 29.0 MiB the system peaked at as 16,129 Python lists
    assert same and peak <= 14.5 * 2**20


def test_bicharacter_validation_peak_memory_at_order_256():
    a = standard_nondegenerate([4, 4])
    form = (a.exps - a.exps.T) % a.scale
    tracemalloc.start()
    try:
        b = Bicharacter(a.group, a.scale, form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the all-pairs additivity check built two 256^3 int64 arrays, 128 MiB each
    assert b.radical().order == 1 and peak < 8 * 2**20


def reference_bicharacter_is_additive(exps, m, mul) -> bool:
    """Additivity in the first argument on all pairs, the (n, n, n) check the
    generator-column one replaced."""
    return not ((exps[mul, :] - exps[:, None, :] - exps[None, :, :]) % m).any()


def _validator_cases():
    cases = {}
    for spec in GROUP_SPECS[1:]:  # C1 has no entry to corrupt
        if spec in NONDEGENERATE_CARRIERS:
            cases[spec] = standard_nondegenerate(NONDEGENERATE_CARRIERS[spec])
        else:
            cases[spec] = CocycleTable.trivial(gq.make_group(spec), 4)
    for invs in THEOREM_D_CARRIERS:
        cases[f"nd{list(invs)}"] = standard_nondegenerate(invs)
    cases["C2xC8xC8"] = bilinear_c2xc8xc8()
    return cases


VALIDATOR_CASES = _validator_cases()


@pytest.mark.parametrize("name", list(VALIDATOR_CASES))
def test_cocycle_generator_columns_give_the_full_verdict(name):
    """Random cocycles, and the same with one or two entries moved: accepted
    exactly when the all-triples check passes, else rejected at its first
    failing triple."""
    a = VALIDATOR_CASES[name]
    rng = np.random.default_rng(a.group.n + len(name))
    n, m, mul = a.group.n, a.scale, a.group.table
    rejected = 0
    for trial in range(6):
        exps = times_random_coboundary(a, rng).exps.copy()
        for _ in range(trial % 3):  # trials 0 and 3 stay cocycles
            g, h = rng.integers(1, n, 2)
            exps[g, h] = (exps[g, h] + rng.integers(1, m)) % m
        triple = reference_first_bad_triple(exps, m, mul)
        if triple is None:
            CocycleTable(a.group, m, exps)
        else:
            rejected += 1
            with pytest.raises(ValidationError, match=re.escape(f"triple ({triple[0]},{triple[1]},{triple[2]})")):
                CocycleTable(a.group, m, exps)
    assert rejected or n == 2  # every normalized table on C2 is a cocycle


@pytest.mark.parametrize("name", [name for name, a in VALIDATOR_CASES.items() if a.group.is_abelian])
def test_bicharacter_generator_columns_give_the_full_verdict(name):
    """Multiples of a bicharacter, and the same with b(x, u) and b(u, x)
    moved by opposite amounts (still alternating): accepted exactly when
    the all-pairs additivity check passes."""
    a = VALIDATOR_CASES[name]
    rng = np.random.default_rng(a.group.n + len(name))
    n, m, mul = a.group.n, a.scale, a.group.table
    base = bicharacter_of(a).exps
    rejected = 0
    for trial in range(6):
        exps = base * int(rng.integers(0, m)) % m
        for _ in range(trial % 3):  # trials 0 and 3 stay bicharacters
            x, u = rng.choice(n, 2, replace=False)
            d = int(rng.integers(1, m))
            exps[x, u] = (exps[x, u] + d) % m
            exps[u, x] = (exps[u, x] - d) % m
        if reference_bicharacter_is_additive(exps, m, mul):
            Bicharacter(a.group, m, exps)
        else:
            rejected += 1
            with pytest.raises(ValidationError, match="not additive in the first argument"):
                Bicharacter(a.group, m, exps)
    assert rejected > 0


def reference_conjugation(a: CocycleTable):
    """conj[h][g] = h g h^-1 and kappa[h][g], one pair at a time in Python
    integers.  kappa comes from u_h u_g = zeta^kappa u_{hgh^-1} u_h, i.e.
    c(h, g) = kappa + c(hgh^-1, h), not from the formula through h^-1 that
    ``CocycleTable.conjugation`` uses; the 2-cocycle identity makes them equal."""
    G, c, m = a.group, a.exps.tolist(), a.scale
    conj = [[G.mul(G.mul(h, g), G.inv(h)) for g in G.elements()] for h in G.elements()]
    kappa = [[(c[h][g] - c[conj[h][g]][h]) % m for g in G.elements()] for h in G.elements()]
    return conj, kappa


CONJUGATION_CASES = [(f"{c[0]}/{c[2]}", c[3]) for c in sweep_cases()]
CONJUGATION_CASES += [(f"nd{list(i)}", standard_nondegenerate(i)) for i in THEOREM_D_CARRIERS]
CONJUGATION_CASES += [("C2xC8xC8", bilinear_c2xc8xc8())]
# a non-abelian group with a non-trivial table: kappa is not an alternating form
CONJUGATION_CASES += [
    ("S4/dc", times_random_coboundary(CocycleTable.trivial(gq.make_group("S4"), 6), np.random.default_rng(4)))
]


@pytest.mark.parametrize("name, a", CONJUGATION_CASES, ids=[n for n, _ in CONJUGATION_CASES])
def test_conjugation_matches_reference(name, a):
    """Both integer tables equal the per-element reference entry for entry."""
    conj, kappa = a.conjugation()
    assert conj.dtype == kappa.dtype == np.int64
    assert (conj.tolist(), kappa.tolist()) == reference_conjugation(a)
