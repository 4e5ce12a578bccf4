"""Answers computed apart from gquot, and the checks that compare them.

The independent side reads only the inputs (multiplication tables and
cocycle exponent tables) or the mathematics the paper states, and uses its
own arithmetic: no gquot algorithm is called here.  Each ``check_*``
function raises :class:`Mismatch` when the program's answer disagrees.
"""

from __future__ import annotations

import ast
import math
import re
from itertools import permutations

import numpy as np

TOL_REP = 1e-7  # projective-law, unitarity and character-norm tolerance


class Mismatch(Exception):
    """The program's answer disagrees with the independent computation."""


def require(cond, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# -- groups as tables, built from their definitions ---------------------------


def cyclic_table(k: int) -> np.ndarray:
    idx = np.arange(k)
    return (idx[:, None] + idx[None, :]) % k


def dihedral_table(k: int) -> np.ndarray:
    """Affine maps x -> r + (-1)^f x of Z/k, index r + k*f, composed as maps."""
    maps = [(r, f) for f in (0, 1) for r in range(k)]
    pos = {m: i for i, m in enumerate(maps)}
    out = np.empty((2 * k, 2 * k), dtype=np.int64)
    for i, (ra, fa) in enumerate(maps):
        for j, (rb, fb) in enumerate(maps):
            out[i, j] = pos[((ra + (-1) ** fa * rb) % k, (fa + fb) % 2)]
    return out


def symmetric_table(k: int) -> np.ndarray:
    """Permutations in lexicographic order, (p*q)(x) = p(q(x))."""
    perms = sorted(permutations(range(k)))
    pos = {p: i for i, p in enumerate(perms)}
    return np.array([[pos[tuple(p[x] for x in q)] for q in perms] for p in perms])


def product_table(*tables: np.ndarray) -> np.ndarray:
    """Direct product on mixed-radix indices, the first factor most significant."""
    out = tables[0]
    for t in tables[1:]:
        n2 = len(t)
        i = np.arange(len(out) * n2)
        out = out[np.ix_(i // n2, i // n2)] * n2 + t[np.ix_(i % n2, i % n2)]
    return out


def table_of(spec: str) -> np.ndarray:
    """Own table for descriptors such as ``C2xC8xC8``, ``S4xC2`` or ``D8xC4``."""
    build = {"C": cyclic_table, "D": dihedral_table, "S": symmetric_table}
    return product_table(*(build[part[0]](int(part[1:])) for part in spec.split("x")))


# -- subgroup enumeration by joins ---------------------------------------------


def _span(table: list, gens) -> frozenset:
    out = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = table[x][g]
            if y not in out:
                out.add(y)
                frontier.append(y)
    return frozenset(out)


def join_closed_subgroups(table: np.ndarray, pieces, admit=None) -> list[frozenset]:
    """Every subgroup generated by a union of ``pieces``, by breadth-first joins.

    With conjugacy classes as pieces these are the normal subgroups; with
    single elements, all subgroups.  ``admit(gens, piece)`` may refuse a
    join; the result is then every subgroup reachable through admitted joins.
    """
    rows = table.tolist()
    start = frozenset({0})
    found = {start: ()}
    frontier = [start]
    while frontier:
        nxt = []
        for H in frontier:
            gens = found[H]
            for piece in pieces:
                if piece <= H or (admit is not None and not admit(gens, piece)):
                    continue
                J = _span(rows, gens + tuple(piece))
                if J not in found:
                    found[J] = gens + tuple(piece)
                    nxt.append(J)
        frontier = nxt
    return list(found)


def normal_subgroups(table: np.ndarray) -> list[frozenset]:
    n = len(table)
    inv = [int(np.flatnonzero(table[g] == 0)[0]) for g in range(n)]
    classes = {frozenset(int(table[table[h, g], inv[h]]) for h in range(n)) for g in range(n)}
    return join_closed_subgroups(table, sorted(classes, key=min))


def all_subgroups_abelian(table: np.ndarray) -> list[frozenset]:
    require(np.array_equal(table, table.T), "expected an abelian group")
    return join_closed_subgroups(table, [frozenset({g}) for g in range(1, len(table))])


def alternating_form(exps: np.ndarray, scale: int) -> np.ndarray:
    """b(s, t) = c(s, t) - c(t, s) mod m, straight from the exponent table."""
    return (np.asarray(exps) - np.asarray(exps).T) % scale


def isotropic_subgroups(table: np.ndarray, form: np.ndarray, scale: int) -> list[frozenset]:
    """Subgroups on which the alternating bicharacter ``form`` vanishes.

    The form is bilinear (checked here) and alternating, so a join stays
    isotropic exactly when the new generator pairs trivially with the old
    generators.
    """
    n = len(table)
    require(np.array_equal(table, table.T), "expected an abelian group")
    additive = (form[table, :] - form[:, None, :] - form[None, :, :]) % scale
    require(not additive.any(), "commutator form is not bilinear")
    zero = form == 0

    def admit(gens, piece):
        (g,) = piece
        return all(zero[g, x] for x in gens)

    return join_closed_subgroups(table, [frozenset({g}) for g in range(1, n)], admit)


def lagrangians(table: np.ndarray, form: np.ndarray, scale: int) -> set[tuple[int, ...]]:
    root = math.isqrt(len(table))
    return {
        tuple(sorted(H)) for H in isotropic_subgroups(table, form, scale) if len(H) == root
    }


def nondegenerate_on(form: np.ndarray, H) -> bool:
    """The form restricted to H has trivial radical inside H."""
    elems = sorted(H)
    sub = form[np.ix_(elems, elems)]
    return bool(sub[1:].any(axis=1).all())


def quotient_is_cyclic(table: np.ndarray, L) -> bool:
    q = len(table) // len(L)
    for g in range(len(table)):
        x, k = g, 1
        while x not in L:
            x, k = int(table[x, g]), k + 1
        if k == q:
            return True
    return False


# -- abelian types ------------------------------------------------------------


def _prime_powers(n: int) -> dict[int, int]:
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(cyclic_orders) -> tuple[int, ...]:
    """Invariant factors (ascending, 1s dropped) of a product of cyclic groups."""
    per_prime: dict[int, list[int]] = {}
    for k in cyclic_orders:
        for p, e in _prime_powers(k).items():
            per_prime.setdefault(p, []).append(p**e)
    width = max((len(v) for v in per_prime.values()), default=0)
    factors = [1] * width
    for powers in per_prime.values():
        for i, q in enumerate(sorted(powers, reverse=True)):
            factors[i] *= q
    return tuple(sorted(factors))


def homocyclic_squarefree(invariants) -> bool:
    if not invariants:
        return True
    q = invariants[-1]
    return all(x == q for x in invariants) and all(e == 1 for e in _prime_powers(q).values())


def abelian_types(k: int) -> list[tuple[int, ...]]:
    """Chains n1 | n2 | ... | nr with every ni >= 2 and product k."""
    out = []

    def rec(rest, last, acc):
        if rest == 1:
            out.append(tuple(acc))
            return
        for d in range(max(last, 2), rest + 1):
            if rest % d == 0 and d % last == 0:
                rec(rest // d, d, acc + [d])

    rec(k, 1, [])
    return out


def type_multisets(k: int) -> list[tuple[tuple[int, ...], ...]]:
    """Multisets of abelian types of order >= 2 whose orders sum to k."""
    types = sorted(t for j in range(2, k + 1) for t in abelian_types(j))
    out = []

    def rec(rest, start, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for i in range(start, len(types)):
            order = math.prod(types[i])
            if order <= rest:
                rec(rest - order, i, acc + [types[i]])

    rec(k, 0, [])
    return out


def diagonal_classes(n: int) -> set[tuple[tuple[tuple[int, ...], ...], bool]]:
    """Maximal connected gradings of C^n: M(n) free products, M(n-1) with a line."""
    return {(m, False) for m in type_multisets(n)} | {(m, True) for m in type_multisets(n - 1)}


def diagonal_label(factors, has_trivial: bool) -> str:
    label = " * ".join("x".join(f"C{k}" for k in t) for t in factors)
    return (label + " + C" if label else "C") if has_trivial else label


# -- free products of cyclic groups --------------------------------------------


def reduce_word(letters, orders) -> tuple[tuple[int, int], ...]:
    """Normal form of a product of (factor, power) letters in a free product
    of cyclic groups of the given orders."""
    stack: list[tuple[int, int]] = []
    for f, p in letters:
        p %= orders[f]
        if not p:
            continue
        if stack and stack[-1][0] == f:
            q = (stack[-1][1] + p) % orders[f]
            stack.pop()
            if q:
                stack.append((f, q))
        else:
            stack.append((f, p))
    return tuple(stack)


C2_C2 = (2, 2)  # a = (0, 1), b = (1, 1)
C3_C2 = (3, 2)  # g = (0, 1), h = (1, 1)
# Pull-back generators as (C4 exponent, Klein bits, C2*C2 letters, C3*C2 letters);
# sigma is Klein 2, sigma*tau is Klein 3, and the Klein product is XOR.
RANK4_GENERATORS = {
    "z1": (1, 2, ((0, 1),), ()),
    "z2": (1, 2, ((1, 1),), ()),
    "z3": (2, 3, (), ()),
}
RANK5_GENERATORS = {
    "w": (1, 2, ((0, 1),), ((1, 1),)),
    "b": (1, 2, ((1, 1),), ()),
    "c": (2, 3, (), ()),
    "g": (0, 0, (), ((0, 1),)),
}


def evaluate_pullback_word(word, generators) -> tuple:
    c4, klein, left, right = 0, 0, [], []
    for name in word:
        x, k, l3, l4 = generators[name]
        c4, klein = (c4 + x) % 4, klein ^ k
        left.extend(l3)
        right.extend(l4)
    return c4, klein, reduce_word(left, C2_C2), reduce_word(right, C3_C2)


def check_expression(t, word, generators) -> None:
    got = evaluate_pullback_word(word, generators)
    want = (t[0], t[1], tuple(t[2].syllables), tuple(t[3].syllables) if len(t) > 3 else ())
    require(got == want, f"expression evaluates to {got}, not {want}")


def admissible_count_rank4(max_len: int) -> int:
    """Identity plus two alternating words per length, four admissible C4 x Klein pairs each."""
    return 4 * (2 * max_len + 1)


def admissible_count_rank5(max_len_22: int, max_len_32: int) -> int:
    a_parities = [0] + [
        (length + (start == 0)) // 2 % 2
        for start in (0, 1)
        for length in range(1, max_len_22 + 1)
    ]
    h_parities = []
    frontier = [(None, 0)]  # (last factor, h count)
    h_parities.append(0)
    for _ in range(max_len_32):
        nxt = []
        for last, h in frontier:
            if last != 0:
                nxt += [(0, h), (0, h)]  # g or g^2
            if last != 1:
                nxt.append((1, h + 1))
        h_parities += [h % 2 for _, h in nxt]
        frontier = nxt
    return 4 * sum(1 for a in a_parities for h in h_parities if a == h)


Q5_RELATION = re.compile(r"alternating relation found: (.*) = e$")


def check_q5_relation(detail: str) -> None:
    """The reported relation is the identity in C2*C2 x C3*C2 and a non-empty
    reduced alternating word of C6 * C2, so the pull-back is not that free product."""
    m = Q5_RELATION.search(detail)
    require(m is not None, f"no relation in {detail!r}")
    left, right, kinds = [], [], []
    for token in m.group(1).split():
        power = re.fullmatch(r"\(u1u2\)\^(-?\d+)", token)
        if power:
            k = int(power.group(1))
            require(k % 6 != 0, f"power {k} of u1u2 is trivial in C6")
            left.append((1, k))   # u1u2 -> (b, g)
            right.append((0, k))
            kinds.append("u12")
        else:
            require(token == "u3", f"unknown letter {token!r}")
            left.append((0, 1))   # u3 -> (a, h)
            right.append((1, 1))
            kinds.append("u3")
    require(kinds, "empty relation")
    require(all(x != y for x, y in zip(kinds, kinds[1:])), "relation is not alternating")
    require(reduce_word(left, C2_C2) == () and reduce_word(right, C3_C2) == (), "relation does not evaluate to e")


# -- certify ------------------------------------------------------------------


def check_coboundary_witness(result, a_exps, a_scale, b_exps, b_scale, table) -> None:
    ok, witness = result
    require(ok and witness is not None, "cohomologous pair reported as not cohomologous")
    m = witness.scale
    require(m % a_scale == 0 and m % b_scale == 0, f"witness scale {m} is not a common multiple")
    target = (np.asarray(b_exps) * (m // b_scale) - np.asarray(a_exps) * (m // a_scale)) % m
    w = np.asarray(witness.exps, dtype=np.int64)
    require(w[0] == 0, "witness is not normalized")
    delta = (w[:, None] + w[None, :] - w[table]) % m
    require(np.array_equal(delta, target), "delta(witness) differs from b - a")


def check_not_cohomologous(result, a_exps, a_scale, b_exps, b_scale, table) -> None:
    ok, witness = result
    require(not ok and witness is None, "pair with distinct commutator forms reported cohomologous")
    require(np.array_equal(table, table.T), "refutation by commutator form needs an abelian group")
    m = math.lcm(a_scale, b_scale)
    diff = np.asarray(b_exps) * (m // b_scale) - np.asarray(a_exps) * (m // a_scale)
    require(alternating_form(diff, m).any(), "commutator forms agree, so no refutation")


def degrees_of_product(*factor_degrees) -> tuple[int, ...]:
    out = [1]
    for degs in factor_degrees:
        out = [x * d for x in out for d in degs]
    return tuple(sorted(out))


def check_block_dims(dims, expected) -> None:
    require(tuple(dims) == tuple(expected), f"block dimensions {tuple(dims)} != {tuple(expected)}")


def check_projective_rep(rho, dim: int, exps, scale: int, table) -> None:
    """rho(g) rho(h) = alpha(g, h) rho(gh), rho unitary and irreducible."""
    rho = np.asarray(rho)
    n = len(table)
    require(rho.shape == (n, dim, dim), f"representation shape {rho.shape}")
    eye = np.eye(dim)
    require(
        np.abs(rho @ np.conj(np.swapaxes(rho, 1, 2)) - eye).max() < TOL_REP, "not unitary"
    )
    phases = np.exp(2j * np.pi * np.asarray(exps) / scale)
    for g in range(n):
        defect = rho[g] @ rho - phases[g][:, None, None] * rho[table[g]]
        require(np.abs(defect).max() < TOL_REP, f"projective law fails at g = {g}")
    norm = float(np.sum(np.abs(np.trace(rho, axis1=1, axis2=2)) ** 2))
    require(abs(norm - n) < TOL_REP * n, f"character norm {norm / n:.9f} != 1: not irreducible")


# -- battery ------------------------------------------------------------------


def _int_field(text: str, key: str) -> int:
    m = re.search(rf"\b{key}=(\d+)", text)
    require(m is not None, f"no {key}= in {text!r}")
    return int(m.group(1))


def _fraction_full(text: str, expected: int) -> None:
    m = re.fullmatch(r"(\d+)/(\d+) expressed", text)
    require(m is not None, f"unexpected record {text!r}")
    require(int(m.group(1)) == int(m.group(2)) == expected, f"{text!r}, expected {expected}/{expected}")


def check_criterion(result, expected: dict) -> None:
    """Compare one battery criterion with the independently computed ``expected``.

    Criterion 8 must FAIL on the genuine rank-5 relation, every other check of
    it must pass; every other criterion must PASS.
    """
    require(result is not None, "no result")
    num = result.number
    rec = dict(result.records)
    require(result.passed == (num != 8), f"criterion {num} passed={result.passed}")
    if num in (1, 2):
        require(int(rec["cases"]) == expected["cases"], f"cases {rec['cases']} != {expected['cases']}")
    elif num == 3:
        for gname, count in expected["subgroups"].items():
            require(_int_field(rec[gname], "subgroups") == count, f"{gname}: {rec[gname]}")
    elif num == 4:
        for gname, (lags, unique) in expected["maximal"].items():
            text = rec[gname]
            require(_int_field(text, "maximal") == lags, f"{gname}: {text} (expected {lags})")
            require(f"unique={unique}" in text and f"homocyclic_squarefree={unique}" in text, text)
        kinds = set(ast.literal_eval(rec["C4xC4.quotient_types"]))
        require(kinds == expected["c4xc4_quotient_types"], f"C4xC4 quotient types {kinds}")
    elif num == 5:
        got = int(rec["doubly_nondegenerate_cases"])
        require(got == expected["doubly_nondegenerate"], f"doubly non-degenerate cases {got}")
    elif num == 6:
        for gname, count in expected["normal_subgroups"].items():
            require(_int_field(rec[gname], "normal_subgroups") == count, f"{gname}: {rec[gname]}")
    elif num == 7:
        require(all(v.startswith("pass") for k, v in result.records if not k.startswith("admissible")),
                "a rank-4 presentation check failed")
        _fraction_full(rec["admissible_triples_len6"], admissible_count_rank4(6))
        _fraction_full(rec["admissible_triples_len40"], admissible_count_rank4(40))
    elif num == 8:
        for key, value in result.records:
            if key == "q5_free_product":
                require(value.startswith("FAIL (") and value.endswith(")"), "q5 certificate did not fail")
                check_q5_relation(value[len("FAIL ("):-1])
            elif not key.startswith("admissible"):
                require(value.startswith("pass"), f"rank-5 check {key}: {value}")
        _fraction_full(rec["admissible_tuples_len4"], admissible_count_rank5(4, 4))
    elif num == 9:
        for n in range(2, 6):
            text = rec[f"n={n}"]
            got = ast.literal_eval(text.split(" == ")[0].split(" != ")[0])
            want = sorted(diagonal_label(f, t) for f, t in diagonal_classes(n))
            require(len(got) == len(want) == len(diagonal_classes(n)), f"n={n}: {len(got)} classes")
            require(sorted(got) == want, f"n={n}: {got} != {want}")
    elif num == 10:
        for gname, (count, _) in expected["maximal"].items():
            got = _int_field(rec[gname], "lagrangian_quotients_witnessed")
            require(got == count, f"{gname}: {got} witnessed, {count} Lagrangians")
        require(rec["inconclusive"] == "0", f"inconclusive IYB searches: {rec['inconclusive']}")
    else:
        raise Mismatch(f"unexpected criterion {num}")
