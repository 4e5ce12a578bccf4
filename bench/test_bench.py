"""Tests of the benchmark's own checks: each must accept a right answer and
refuse a wrong one.  Run with ``python3 -m pytest bench/test_bench.py``."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace as NS

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from checks import Mismatch  # noqa: E402


def standard_form_table(k: int):
    """C_k x C_k with the cocycle x(g) * y(h) mod k, built here."""
    table = checks.table_of(f"C{k}xC{k}")
    x, y = np.divmod(np.arange(k * k), k)
    exps = np.outer(x, y) % k
    return table, exps, checks.alternating_form(exps, k)


# -- independent enumerations against closed formulas ---------------------------


@pytest.mark.parametrize(
    "spec, count",
    [("C12", 6), ("C7", 2), ("D3", 3), ("D4", 6), ("S4", 4), ("C2xC2", 5)],
)
def test_normal_subgroup_counts(spec, count):
    # cyclic: one per divisor; S3 = D3: 1, A3, S3; D4: 6; S4: 1, V4, A4, S4
    assert len(checks.normal_subgroups(checks.table_of(spec))) == count


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lagrangians_of_a_plane_are_its_lines(p):
    table, _, form = standard_form_table(p)
    assert len(checks.lagrangians(table, form, p)) == p + 1


def test_diagonal_counts_match_the_paper():
    assert [len(checks.diagonal_classes(n)) for n in (2, 3, 4, 5)] == [1, 2, 4, 5]
    labels = sorted(checks.diagonal_label(f, t) for f, t in checks.diagonal_classes(4))
    assert labels == ["C2 * C2", "C2xC2", "C3 + C", "C4"]


def test_admissible_counts():
    assert checks.admissible_count_rank4(6) == 52
    assert checks.admissible_count_rank5(4, 4) == 404


# -- theorem_d ----------------------------------------------------------------


def test_theorem_d_check_refuses_wrong_kernels_and_uniqueness():
    from workloads import check_theorem_d

    table, _, form = standard_form_table(4)
    lags = checks.lagrangians(table, form, 4)
    carrier = {"lagrangians": lags, "unique": False}
    subs = [NS(elements=e) for e in sorted(lags)]
    good = NS(maximal_normals=subs, lagrangian_normals=subs, unique_maximal_class=False)
    check_theorem_d(good, carrier)
    with pytest.raises(Mismatch):
        check_theorem_d(NS(maximal_normals=subs[1:], lagrangian_normals=subs, unique_maximal_class=False), carrier)
    with pytest.raises(Mismatch):
        check_theorem_d(NS(maximal_normals=subs, lagrangian_normals=subs, unique_maximal_class=True), carrier)


# -- certify ------------------------------------------------------------------


def test_coboundary_witness_check():
    table, exps, _ = standard_form_table(4)
    c = np.arange(16) % 4
    c[0] = 0
    moved = (exps + c[:, None] + c[None, :] - c[table]) % 4
    witness = NS(scale=4, exps=tuple(c))
    checks.check_coboundary_witness((True, witness), exps, 4, moved, 4, table)
    bad = NS(scale=4, exps=(0,) + tuple((c[1:] + 1) % 4))
    with pytest.raises(Mismatch):
        checks.check_coboundary_witness((True, bad), exps, 4, moved, 4, table)
    with pytest.raises(Mismatch):
        checks.check_coboundary_witness((False, None), exps, 4, moved, 4, table)


def test_refutation_check():
    table, exps, _ = standard_form_table(4)
    zero = np.zeros_like(exps)
    checks.check_not_cohomologous((False, None), zero, 1, exps, 4, table)
    with pytest.raises(Mismatch):  # the program claims a witness
        checks.check_not_cohomologous((True, NS(scale=16, exps=(0,) * 16)), zero, 1, exps, 4, table)
    with pytest.raises(Mismatch):  # equal forms: no refutation, so "not cohomologous" is unproven
        checks.check_not_cohomologous((False, None), exps, 4, exps, 4, table)


def test_block_dims_check():
    checks.check_block_dims((1, 1, 2), checks.degrees_of_product((1, 1, 2)))
    with pytest.raises(Mismatch):
        checks.check_block_dims((1, 1, 1, 1, 2), checks.degrees_of_product((1, 1, 2), (1, 1)))


def pauli_rep():
    """rho(a, b) = X^a Z^b on C2 x C2 (index 2a + b), cocycle b(g) a(h) mod 2."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.diag([1, -1]).astype(complex)
    coords = [(g // 2, g % 2) for g in range(4)]
    rho = np.array([np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, b) for a, b in coords])
    exps = np.array([[g[1] * h[0] % 2 for h in coords] for g in coords])
    return rho, exps, checks.table_of("C2xC2")


def test_projective_rep_check():
    rho, exps, table = pauli_rep()
    checks.check_projective_rep(rho, 2, exps, 2, table)
    with pytest.raises(Mismatch):  # wrong cocycle
        checks.check_projective_rep(rho, 2, np.zeros_like(exps), 2, table)
    with pytest.raises(Mismatch):  # not unitary
        checks.check_projective_rep(2 * rho, 2, exps, 2, table)
    with pytest.raises(Mismatch):  # a representation, but reducible
        checks.check_projective_rep(np.array([np.eye(2)] * 4, dtype=complex), 2, np.zeros_like(exps), 2, table)


# -- pi1 and criteria 8, 9 ------------------------------------------------------

RELATION = "alternating relation found: (u1u2)^2 u3 (u1u2)^3 u3 (u1u2)^4 u3 (u1u2)^3 u3 = e"


def test_q5_relation_check():
    checks.check_q5_relation(RELATION)
    for wrong in (
        RELATION.replace("^4", "^2"),         # not the identity in C2*C2 x C3*C2
        RELATION.replace("^4", "^6"),         # u1u2 has order 6: trivial letter
        RELATION.replace(" u3 (u1u2)^4", ""), # shorter word, no longer e
        "no alternating relation up to 8 syllables",
    ):
        with pytest.raises(Mismatch):
            checks.check_q5_relation(wrong)


def test_expression_check():
    from gquot.pullbacks import express_rank4, express_rank5, enumerate_admissible_rank4, enumerate_admissible_rank5

    t4 = enumerate_admissible_rank4(3)[-1]
    t5 = enumerate_admissible_rank5(3, 3)[-1]
    checks.check_expression(t4, express_rank4(t4), checks.RANK4_GENERATORS)
    checks.check_expression(t5, express_rank5(t5), checks.RANK5_GENERATORS)
    with pytest.raises(Mismatch):
        checks.check_expression(t4, express_rank4(t4) + ["z3"], checks.RANK4_GENERATORS)
    with pytest.raises(Mismatch):
        checks.check_expression(t5, ["g"] + express_rank5(t5), checks.RANK5_GENERATORS)


def test_diagonal_check():
    from workloads import check_diagonal

    classes = checks.diagonal_classes(6)
    got = [NS(factor_invariants=f, has_trivial_part=t) for f, t in sorted(classes)]
    check_diagonal(got, classes)
    with pytest.raises(Mismatch):
        check_diagonal(got[1:], classes)
    with pytest.raises(Mismatch):
        check_diagonal(got[1:] + [NS(factor_invariants=((6,),), has_trivial_part=True)], classes)


def test_pi1_check():
    from workloads import check_pi1

    classes = checks.diagonal_classes(5)
    labels = tuple(range(len(classes)))
    q5 = NS(name="q5_free_product", passed=False, detail=RELATION)
    ok = NS(name="z3_central", passed=True, detail="")
    check_pi1(NS(structure="H5 x C10", maximal_class_labels=labels, presentation=NS(checks=[ok, q5])), 5, classes)
    for report in (
        NS(structure="H5 x C6", maximal_class_labels=labels, presentation=NS(checks=[ok, q5])),
        NS(structure="H5 x C10", maximal_class_labels=labels[1:], presentation=NS(checks=[ok, q5])),
        NS(structure="H5 x C10", maximal_class_labels=labels,
           presentation=NS(checks=[ok, NS(name="q5_free_product", passed=True, detail="")])),
        NS(structure="H5 x C10", maximal_class_labels=labels,
           presentation=NS(checks=[NS(name="z3_central", passed=False, detail=""), q5])),
    ):
        with pytest.raises(Mismatch):
            check_pi1(report, 5, classes)


def criterion(number, passed, records):
    return NS(number=number, passed=passed, records=records)


def test_criterion_1_and_9_checks():
    expected = {"cases": 120}
    checks.check_criterion(criterion(1, True, [("cases", "120")]), expected)
    with pytest.raises(Mismatch):
        checks.check_criterion(criterion(1, True, [("cases", "119")]), expected)
    with pytest.raises(Mismatch):
        checks.check_criterion(criterion(1, False, [("cases", "120")]), expected)
    records = []
    for n in range(2, 6):
        labels = sorted(checks.diagonal_label(f, t) for f, t in checks.diagonal_classes(n))
        records.append((f"n={n}", f"{labels} == {labels}"))
    checks.check_criterion(criterion(9, True, records), {})
    records[2] = ("n=4", "['C2 * C2', 'C2xC2', 'C4'] == ['C2 * C2', 'C2xC2', 'C4']")
    with pytest.raises(Mismatch):
        checks.check_criterion(criterion(9, True, records), {})


def test_criterion_8_check():
    records = [
        ("z1_order", "pass (ok)"),
        ("q5_free_product", f"FAIL ({RELATION})"),
        ("admissible_tuples_len4", "404/404 expressed"),
    ]
    checks.check_criterion(criterion(8, False, records), {})
    with pytest.raises(Mismatch):  # criterion 8 must not pass: the relation is genuine
        checks.check_criterion(criterion(8, True, records), {})
    with pytest.raises(Mismatch):
        checks.check_criterion(criterion(8, False, records[:2] + [("admissible_tuples_len4", "400/404 expressed")]), {})
    with pytest.raises(Mismatch):
        checks.check_criterion(criterion(8, False, [("z1_order", "FAIL (x)")] + records[1:]), {})


# -- tracing --------------------------------------------------------------------


def test_per_layer_metrics_match_benchmark_json():
    from tracing import layer_metrics

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer_metrics()


def test_tracer_records_nested_spans_and_restores_originals():
    from gquot import cocycles, smith
    from gquot.cocycles import CocycleTable, standard_nondegenerate
    from tracing import Tracer

    alpha = standard_nondegenerate([2])
    original = cocycles.solve_mod
    tracer = Tracer()
    tracer.install()
    try:
        assert cocycles.solve_mod is not original and smith.solve_mod is cocycles.solve_mod
        cocycles.cohomologous(CocycleTable.trivial(alpha.group), alpha)
    finally:
        tracer.uninstall()
    assert cocycles.solve_mod is original and smith.solve_mod is original
    names = [s[2] for s in tracer.spans]
    assert names == ["cocycles.cohomologous", "smith.solve_mod"]
    assert tracer.spans[1][1] == tracer.spans[0][0]
    summary = tracer.summarize(0, len(tracer.spans))
    assert summary["smith.solve_mod.calls"] == 1
    assert summary["smith.solve_mod.rows"] == 9 and summary["smith.solve_mod.cols"] == 3
