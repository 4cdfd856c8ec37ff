"""Check registry, suite runner, report formats, and concordance plumbing."""

import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

import pytest

from spinlrl import expr, ops, verify, weyl
from spinlrl.verify import CheckResult, Report, of_expr


# -- catalog -------------------------------------------------------------------


def test_catalog_ids_unique_and_ordered():
    checks = verify.list_checks()
    ids = [c.id for c in checks]
    assert len(ids) == len(set(ids))
    assert ids[0] == "GAMMA-CLIFF"
    # stable order: two calls agree
    assert ids == [c.id for c in verify.list_checks()]


def test_catalog_contains_expected_entries():
    by_id = {c.id: c for c in verify.list_checks()}
    assert "[A_i, M_j]" in by_id["SO-COM-AM"].ref
    assert "APP-B-7" in by_id
    assert by_id["NONCLOSE-GIGJ"].tier == "transcription"
    assert by_id["APP-C-14"].tier == "transcription"
    assert by_id["SO-COM-JJ"].tier == "core"


def test_suite_filters():
    core = verify.list_checks("core")
    assert len(core) >= 12
    assert all(c.suite == "core" for c in core)
    d3 = {c.id for c in verify.list_checks("d3")}
    assert {"JB-DOT", "JA-DOT"} <= d3
    with pytest.raises(ValueError):
        verify.list_checks("bogus")


def test_dims_gating():
    metric = verify.get_check("SO21-METRIC")
    assert metric.applicable(3) and not metric.applicable(5)
    d3 = verify.get_check("JA-DOT")
    assert d3.applicable(3) and not d3.applicable(2)


def test_registry_sides_match_golden():
    # one sha256 per (check, d) over "label\tlhs\trhs" lines of canonical
    # sides, written by the engine before the index families were stated as
    # combinators (d = 5 added before the one-off sides were written in the
    # index notation): pins labels, their order and both sides of every pair
    golden = json.loads((Path(__file__).parent / "golden" / "registry_sides.json").read_text())
    digests = {}
    for check in verify.list_checks():
        for d in (2, 3, 4, 5):
            if check.applicable(d):
                pairs = check.pairs(d)
                labels = [label for label, _, _ in pairs]
                assert len(labels) == len(set(labels)), check.id
                lines = "".join(f"{label}\t{weyl.render(lhs.to_expr())}\t{weyl.render(rhs.to_expr())}\n" for label, lhs, rhs in pairs)
                digests[f"{check.id} d={d}"] = hashlib.sha256(lines.encode()).hexdigest()
    assert len(digests) == 308
    assert digests == golden


# -- sides in index notation ----------------------------------------------------


def expand(d, terms, **bound):
    """A side's terms expanded as ``verify._stated`` expands them, with the
    ``bound`` letters substituted."""
    plan = ops._plan([chain for _, chain in terms], tuple(bound))
    return verify.OpSum(d, ops._expand(d, terms, plan, tuple(bound.values())))


def test_unbound_letters_are_summed_and_zero_factors_left_out():
    d = 3
    side = expand(d, [(1, "S_ij S_ik p_j p_k")])
    expected = [
        (ops.build(d, "S", i, j), ops.build(d, "S", i, k), weyl.p(d, j), weyl.p(d, k))
        for i, j, k in itertools.product(range(1, d + 1), repeat=3)
        if i != j and i != k
    ]
    assert len(side.terms) == len(expected) == 12
    assert [factors for _, factors in side.terms] == expected


def test_bound_letters_are_not_summed():
    d = 3
    side = expand(d, [(2, "S_ij x_j")], i=2)
    assert [factors for _, factors in side.terms] == [(ops.build(d, "S", 2, 1), weyl.x(d, 1)), (ops.build(d, "S", 2, 3), weyl.x(d, 3))]
    assert [c for c, _ in side.terms] == [2, 2]
    # a delta keeps the chains whose letters agree, and is left out of them
    assert [factors for _, factors in expand(d, [(1, "delta_ij g_j")], i=2).terms] == [(weyl.gamma(d, 2),)]
    assert [factors for _, factors in expand(d, [(1, "delta_ij g_i")], i=2, j=2).terms] == [(weyl.gamma(d, 2),)]
    assert expand(d, [(1, "delta_ij g_i")], i=2, j=3).terms == ()


def test_a_run_over_the_same_letters_interleaves_and_shares_factors():
    d = 3
    side = expand(d, [(1, "S_ij S_ik"), (1, "S_ik S_ij")])
    tuples = [(i, j, k) for i, j, k in itertools.product(range(1, d + 1), repeat=3) if i != j and i != k]
    expected = [chain for i, j, k in tuples for chain in ((ops.build(d, "S", i, j), ops.build(d, "S", i, k)), (ops.build(d, "S", i, k), ops.build(d, "S", i, j)))]
    chains = [factors for _, factors in side.terms]
    assert chains == expected
    # each adjacent pair is a bracket of the same two objects, so combine_products cuts its leading terms
    for first, second in zip(chains[::2], chains[1::2]):
        assert first[0] is second[1] and first[1] is second[0]
    # a name with one index tuple is one object in every chain
    assert len({id(f) for chain in chains for f in chain}) == len({(i, j) for i, j, _ in tuples} | {(i, k) for i, _, k in tuples})


@pytest.mark.parametrize("chain, token", [("S_ij Foo_i", "Foo_i"), ("x_ij", "x_ij"), ("H_i", "H_i")])
def test_an_unknown_or_misindexed_factor_names_its_token(chain, token):
    with pytest.raises(ValueError, match=repr(token)):
        ops._plan([chain], ())


# -- run_check ------------------------------------------------------------------


def test_run_check_examples():
    result = verify.run_check("CASIMIR-Q2", 3)
    assert result.passed and result.residual.is_zero()
    assert verify.run_check("LRL-CONSERVED", 2).passed
    assert verify.run_check("SO-COM-AA", 4).passed


def test_run_check_unknown_id():
    with pytest.raises(KeyError):
        verify.run_check("NOT-A-CHECK", 3)


def test_run_check_inapplicable_dimension():
    with pytest.raises(ValueError):
        verify.run_check("JA-DOT", 2)


# -- run_suite ------------------------------------------------------------------


def test_core_suite_d2_all_pass():
    report = verify.run_suite("core", 2)
    assert len(report.results) >= 12
    assert report.failed == 0
    assert report.passed == len(report.results)


def test_d3_suite_includes_dot_products():
    report = verify.run_suite("d3", 3)
    ids = {r.id for r in report.results}
    assert {"JB-DOT", "JA-DOT", "JB-DOT-SIGMA"} <= ids
    assert report.failed == 0


def test_report_sorted_and_consistent():
    report = verify.run_suite("sturm", 2)
    ids = [r.id for r in report.results]
    assert ids == sorted(ids)
    assert report.passed + report.failed == len(report.results)


# -- reports ---------------------------------------------------------------------


def test_json_schema_fields():
    report = verify.run_suite("d3", 3)
    payload = json.loads(verify.report_to_json([report], no_timing=True))
    assert set(payload.keys()) == {"suite", "version", "d", "checks", "summary"}
    assert payload["suite"] == "d3" and payload["d"] == 3
    for entry in payload["checks"]:
        assert set(entry.keys()) == {"id", "paperRef", "pass", "residualTermCount", "residualText", "elapsedMs"}
        assert entry["elapsedMs"] == 0.0
    assert payload["summary"] == {"passed": report.passed, "failed": report.failed}


def test_report_determinism_modulo_timing():
    first = verify.report_to_json([verify.run_suite("d3", 3)], no_timing=True)
    second = verify.report_to_json([verify.run_suite("d3", 3)], no_timing=True)
    assert first == second


def test_markdown_mirrors_json():
    report = verify.run_suite("d3", 3)
    md = verify.report_to_markdown([report], no_timing=True)
    payload = json.loads(verify.report_to_json([report], no_timing=True))
    for entry in payload["checks"]:
        assert entry["id"] in md
    assert f"d={payload['d']}" in md


def test_text_report_states_summary():
    report = verify.run_suite("d3", 3)
    text = verify.report_to_text([report], no_timing=True)
    assert f"{report.passed} passed, {report.failed} failed" in text


# -- failure handling ---------------------------------------------------------------


def _fake_result(check_id, passed):
    return CheckResult(check_id, 3, passed, weyl.zero(3) if passed else weyl.x(3, 1), None if passed else "x", 0.0)


def test_blocking_failure_respects_tier():
    # a transcription-tier failure blocks only in strict mode
    soft = Report(suite="all", d=3, results=(_fake_result("APP-A-SS", False),))
    assert not verify.has_blocking_failure(soft)
    assert verify.has_blocking_failure(soft, strict=True)
    hard = Report(suite="all", d=3, results=(_fake_result("SO-COM-JJ", False),))
    assert verify.has_blocking_failure(hard)


# -- full registry invariant -------------------------------------------------------------


@pytest.mark.parametrize("d", (2, 3, 4, 5, 6))
def test_full_registry_zero_residual(d):
    # every check, every applicable dimension in the default range
    report = verify.run_suite("all", d)
    assert report.failed == 0, [(r.id, r.failed_label) for r in report.results if not r.passed]


# -- negative controls: a pass is evidence only if the same path can fail ----------------

PERTURBATIONS = ("x1", "p1", "g1", "rinv2", "alpha", "E", "i", "rinv2 x1 p2", "g1 g2 p1")


@pytest.mark.parametrize("d", (2, 3))
def test_perturbed_checks_fail(monkeypatch, d):
    # one term P added to the rhs of each check's first pair must make run_check,
    # the path verify reports, fail on that pair, and the oracle disagree there; the
    # perturbed check keeps only that pair, where run_check would stop anyway
    terms = [(of_expr(expr.evaluate(text, d)), True) for text in PERTURBATIONS]
    if d == 3:
        # the engine side only: the oracle's one irreducible representation at odd d
        # has g1 g2 g3 = i (the strict xfail in test_cli), and the two
        # pauli_quotient checks project the term away by design
        terms.append((of_expr(expr.evaluate("g1 g2 g3 - i", d)), False))
    for check in verify.list_checks():
        if not check.applicable(d):
            continue
        label, lhs, rhs = check.pairs(d)[0]
        for term, oracle_side in terms:
            if not oracle_side and check.pauli_quotient:
                continue
            pair = (label, lhs, rhs + term)
            monkeypatch.setitem(verify._BY_ID, check.id, dataclasses.replace(check, pairs=lambda _: [pair]))
            result = verify.run_check(check.id, d)
            assert not result.passed and result.failed_label == label and not result.residual.is_zero(), (check.id, str(term.to_expr()))
            if oracle_side:
                (entry,) = verify.crosscheck_check(check.id, d, trials=1)
                assert not entry.agreed and entry.witness is not None, (check.id, str(term.to_expr()))


# -- oracle concordance ----------------------------------------------------------------


def test_crosscheck_check_agrees():
    entries = verify.crosscheck_check("GX-SQUARE", 3, trials=6)
    assert entries and all(e.agreed for e in entries)


def test_whole_registry_oracle_concordance():
    # every pair of every applicable check; CI runs d = 4 and 5 with one trial
    for d, trials in ((2, 5), (3, 2)):
        entries = verify.crosscheck_suites(("all",), d, trials=trials)
        assert entries
        assert [(e.check_id, e.label) for e in entries if not e.agreed] == []


def test_crosscheck_detects_wrong_identity():
    # sanity: a deliberately wrong pair must disagree
    from spinlrl.verify import OpSum, of_expr

    wrong = OpSum(2, [(2, (weyl.x(2, 1),))])
    right = of_expr(weyl.x(2, 1))
    from spinlrl import oracle

    f = oracle.random_function(2, 0)
    assert wrong.apply(f) != right.apply(f)


def test_opsum_to_expr_matches_manual_product():
    from spinlrl.verify import comm

    a, b = weyl.x(2, 1), weyl.p(2, 1)
    assert comm(a, b).to_expr() == weyl.commutator(a, b)


@pytest.mark.parametrize("trials", [0, -2])
def test_crosscheck_rejects_trial_counts_below_one(trials):
    with pytest.raises(ValueError):
        verify.crosscheck_check("GAMMA-CLIFF", 2, trials=trials)
    with pytest.raises(ValueError):
        verify.crosscheck_suites(("core",), 2, trials=trials)


def test_opsum_apply_uses_the_given_single_apply():
    from spinlrl import oracle
    from spinlrl.verify import comm

    seen = []

    def apply_one(op, f):
        seen.append(op)
        return oracle.apply(op, f)

    a, b = weyl.x(2, 1), weyl.p(2, 1)
    f = oracle.random_function(2, 3)
    assert comm(a, b).apply(f, apply_one) == comm(a, b).apply(f) == oracle.apply(weyl.commutator(a, b), f)
    assert len(seen) == 4


def test_unit_coefficients_are_shared():
    from spinlrl.coeff import P_I, P_ONE
    from spinlrl.verify import OpSum, acomm, comm

    a, b = weyl.x(2, 1), weyl.p(2, 1)
    assert [c for c, _ in comm(a, b).terms] == [P_ONE, -P_ONE]
    assert [c for c, _ in (-comm(a, b)).terms] == [-P_ONE, P_ONE]
    assert [c for c, _ in OpSum(2, [(P_I, (a,)), (-P_I, (b,)), (3, ()), (0, (a,))]).terms] == [P_I, -P_I, 3]
    # one scalar object per unit value, however many terms carry it
    pairs = verify.get_check("S-SO(D)").pairs(3) + verify.get_check("LRL-ALG").pairs(3)
    units = {c for _, lhs, rhs in pairs for c, _ in lhs.terms + rhs.terms + (-rhs).terms if c in (P_ONE, -P_ONE, P_I, -P_I)}
    assert len(units) == 4
    assert len({id(c) for _, lhs, rhs in pairs for c, _ in lhs.terms + (-rhs).terms if c in units}) == 4
    assert len({id(c) for c, _ in acomm(a, b).terms + comm(b, a).terms}) == 2
