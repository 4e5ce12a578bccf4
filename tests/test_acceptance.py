"""The acceptance battery, asserted criterion by criterion.

Runs the shared suite once per session and prints one pass/fail line per
criterion.  Criterion 8 is expected to fail: its bounded free-product
certificate at syllable length 8 finds a genuine relation in the rank-5
pull-back (the fiber product is not the claimed free product); the relation
itself is pinned by a dedicated test below.  Everything else must pass.
"""

from pathlib import Path

import pytest

import gquot.suite as suite
from gquot.errors import TheoremCheckError
from gquot.pullbacks import enumerate_admissible_rank4
from gquot.suite import run_all

SEED = 0


@pytest.fixture(scope="module")
def battery():
    results, report = run_all(seed=SEED)
    for r in results:
        print(r.line())
    return {r.number: r for r in results}, report


def test_a_run_builds_one_lattice_per_carrier(monkeypatch):
    """Every context of a run lives on the run's group object, so the trivial
    and the non-degenerate class of a carrier and all the criteria that ask
    about them read one subgroup lattice."""
    from gquot import groups

    builds = []
    build = groups._cyclic_extension
    monkeypatch.setattr(groups, "_cyclic_extension", lambda G: builds.append(G) or build(G))
    run = suite._Run(SEED)
    G = run.group("C2xC2")
    contexts = [run.context("C2xC2", cname) for cname in ("trivial", "nd_C2xC2")]
    suite.criterion_3(run)
    assert all(context.group is G for context in contexts)
    assert builds[0] is G and G not in builds[1:]


def _assert_criterion(battery, number):
    results, _ = battery
    r = results[number]
    print(r.line())
    assert r.passed, "\n".join(f"{k}: {v}" for k, v in r.records)


def test_criterion_1_reconstruction(battery):
    _assert_criterion(battery, 1)
    results, _ = battery
    assert int(dict(results[1].records)["cases"]) >= 300


def test_criterion_2_quotient_equidimensionality(battery):
    _assert_criterion(battery, 2)


def test_criterion_3_crossed_product_iff_lagrangian(battery):
    _assert_criterion(battery, 3)


def test_criterion_4_maximal_elementary_uniqueness(battery):
    _assert_criterion(battery, 4)
    results, _ = battery
    recs = dict(results[4].records)
    assert "C4xC4.quotient_types" in recs


def test_criterion_5_doubly_nondegenerate(battery):
    _assert_criterion(battery, 5)
    results, _ = battery
    assert int(dict(results[5].records)["doubly_nondegenerate_cases"]) >= 20


def test_criterion_6_cube_free_law(battery):
    _assert_criterion(battery, 6)


def test_criterion_7_rank4_presentation(battery):
    _assert_criterion(battery, 7)
    results, _ = battery
    recs = dict(results[7].records)
    assert recs["admissible_triples_len6"] == "52/52 expressed"


def test_criterion_7_reports_a_refused_long_triple_as_fail(monkeypatch):
    """A length-40 triple that the expression refuses counts as not expressed;
    it neither ends the battery nor passes."""
    short = enumerate_admissible_rank4(6)
    refused = next(t for t in enumerate_admissible_rank4(40) if t not in short)
    express = suite.express_rank4

    def refusing(t, pb):
        if t == refused:
            raise TheoremCheckError("refused")
        return express(t, pb)

    monkeypatch.setattr(suite, "express_rank4", refusing)
    r = suite.criterion_7()
    assert not r.passed
    recs = dict(r.records)
    assert recs["admissible_triples_len6"] == "52/52 expressed"
    assert recs["admissible_triples_len40"] == "323/324 expressed"


@pytest.mark.xfail(
    strict=True,
    reason=(
        "source defect: the rank-5 common-quotient pull-back is not the claimed "
        "free product; the length-8 certificate finds an explicit relation "
        "(see notes ledger); all other rank-5 checks pass"
    ),
)
def test_criterion_8_rank5_presentation(battery):
    _assert_criterion(battery, 8)


def test_criterion_8_attainable_parts(battery):
    """Everything in criterion 8 except the free-product certificate holds."""
    results, _ = battery
    recs = dict(results[8].records)
    assert recs["admissible_tuples_len4"] == "404/404 expressed"
    for name in (
        "central_element_identity",
        "central_element_commutes",
        "central_element_order_2",
        "zbar6_wbar2",
        "kernel_b_squared",
        "h5_meets_center_trivially",
        "beta5_kernel",
    ):
        assert recs[name].startswith("pass"), name
    assert recs["q5_free_product"].startswith("FAIL")
    assert "alternating relation found" in recs["q5_free_product"]


def test_criterion_9_diagonal_maxima(battery):
    _assert_criterion(battery, 9)


def test_criterion_10_iyb_witnesses(battery):
    _assert_criterion(battery, 10)
    results, _ = battery
    assert dict(results[10].records)["inconclusive"] == "0"


def test_criterion_11_determinism(battery):
    _assert_criterion(battery, 11)


def test_report_is_reproducible(battery):
    _, report = battery
    assert report.startswith(f"seed: {SEED}")
    assert "criterion 11 [determinism]: PASS" in report


@pytest.fixture(scope="module")
def report_seed7():
    _, report = run_all(seed=7)
    return report


def test_report_matches_golden(battery):
    _, report = battery
    assert report == (Path(__file__).parent / "golden" / "suite_seed0.txt").read_text()


def test_seed7_report_matches_golden(report_seed7):
    assert report_seed7 == (Path(__file__).parent / "golden" / "suite_seed7.txt").read_text()


def test_report_differs_between_seeds_only_in_the_seed_line(battery, report_seed7):
    """Every verdict and record is the same at seeds 0 and 7; only the header moves."""
    _, report = battery
    other = report_seed7
    lines, other_lines = report.splitlines(), other.splitlines()
    assert lines[0] == f"seed: {SEED}" and other_lines[0] == "seed: 7"
    assert lines[1:] == other_lines[1:]
