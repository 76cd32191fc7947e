"""Model construction, validation, catalog, and JSON round-trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from digrowth import model as M


def test_breaks_must_start_at_zero():
    with pytest.raises(M.SchemaError):
        M.PeriodicMatrixFunction.from_segments([0.25], [np.eye(2)])


def test_breaks_must_increase():
    with pytest.raises(M.SchemaError):
        M.PeriodicMatrixFunction.from_segments([0.0, 0.5, 0.5],
                                               [np.eye(2)] * 3)


@pytest.mark.parametrize("breaks", [[0.0, float("nan")],
                                    [0.0, 0.5, float("nan")]])
def test_breaks_must_be_numbers_in_the_unit_interval(breaks):
    # every comparison with NaN is false, so no order check catches it
    with pytest.raises(M.SchemaError, match=r"\[0, 1\)"):
        M.PeriodicMatrixFunction.from_segments(breaks,
                                               [np.eye(2)] * len(breaks))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_matrix_entries_must_be_finite(bad):
    L = np.array([[-1.0, 2.0], [1.0, -2.0]])
    L[1, 0] = bad
    with pytest.raises(M.SchemaError, match="finite"):
        M.PeriodicMatrixFunction.from_segments([0.0, 0.5], [-L.T, L])


def test_segment_lookup_and_wraparound():
    f = M.PeriodicMatrixFunction.from_segments(
        [0.0, 0.5], [np.zeros((2, 2)), np.ones((2, 2))])
    assert f.value(0.25)[0, 0] == 0.0
    assert f.value(0.75)[0, 0] == 1.0
    assert f.value(1.25)[0, 0] == 0.0  # periodic extension


def test_model_parameters_domain():
    with pytest.raises(ValueError):
        M.ModelParameters(m=-0.5, T=1.0)
    with pytest.raises(ValueError):
        M.ModelParameters(m=1.0, T=0.0)
    M.ModelParameters(m=0.0, T=1.0)  # m = 0 is allowed


def test_validate_flags_negative_offdiagonal():
    growth = M.PeriodicMatrixFunction.constant(np.diag([0.1, -0.2]))
    bad = M.PeriodicMatrixFunction.constant([[1.0, -0.5], [-1.0, 0.5]])
    report = M.validate(M.PatchModel(2, growth, bad))
    assert report.status is M.ValidationStatus.INVALID
    kinds = {i.kind for i in report.issues}
    assert "NegativeOffDiagonal" in kinds


def test_validate_flags_column_sum_violation():
    growth = M.PeriodicMatrixFunction.constant(np.diag([0.1, -0.2]))
    bad = M.PeriodicMatrixFunction.constant([[-1.0, 2.0], [1.0, -2.0 + 1e-6]])
    report = M.validate(M.PatchModel(2, growth, bad))
    assert report.status is M.ValidationStatus.INVALID
    assert any(i.kind == "ColumnSumViolation" for i in report.issues)


def test_validate_on_mixed_breakpoints_names_migration_segments():
    # migration breaks 0, 1/4, 3/4 against growth breaks 0, 1/2: migration
    # segment 1 spans two of the model's segments, and a violation in it is
    # still reported with its own index
    growth = M.PeriodicMatrixFunction.from_segments(
        [0.0, 0.5], [np.diag([0.5, -1.5]), np.diag([-1.0, 0.5])])
    two_way = np.array([[-1.0, 1.0], [1.0, -1.0]])
    one_way = np.array([[-2.0, 0.0], [2.0, 0.0]])
    zero = np.zeros((2, 2))

    def report(*mats):
        mdl = M.PatchModel(2, growth, M.PeriodicMatrixFunction.from_segments(
            [0.0, 0.25, 0.75], mats))
        rep = M.validate(mdl)
        assert mdl.validation is rep.status
        return rep

    S = M.ValidationStatus
    assert report(two_way, two_way, two_way).status is S.IRREDUCIBLE_EVERYWHERE
    assert report(two_way, one_way, two_way).status is S.POSITIVE_MONODROMY_ONLY
    assert report(zero, one_way, zero).status is S.NO_POSITIVE_MONODROMY
    bad = report(two_way, -two_way, two_way)
    assert bad.status is S.INVALID
    assert [str(i) for i in bad.issues] == [
        "NegativeOffDiagonal(segment=1, i=0, j=1)",
        "NegativeOffDiagonal(segment=1, i=1, j=0)"]


def test_column_sum_tolerance_accepts_tiny_residual():
    growth = M.PeriodicMatrixFunction.constant(np.diag([0.1, -0.2]))
    ok = M.PeriodicMatrixFunction.constant(
        [[-1.0, 2.0], [1.0, -2.0 + 1e-14]])
    assert M.validate(M.PatchModel(2, growth, ok)).ok


def test_catalog_statuses():
    irreducible = ["ab1", "ab2s", "ab_mstar_inf", "abc_two_patch",
                   "fainshil", "pm1", "three_patch_circular"]
    positive = ["unidir_favorable", "unidir_unfavorable",
                "three_patch_reducible(1,-1)", "three_patch_reducible(1,-0.8)",
                "fainshil(0,0.1)"]
    for name in irreducible:
        assert M.builtin(name).validation is \
            M.ValidationStatus.IRREDUCIBLE_EVERYWHERE, name
    for name in positive:
        assert M.builtin(name).validation is \
            M.ValidationStatus.POSITIVE_MONODROMY_ONLY, name
    assert M.builtin("fainshil(0,0)").validation is \
        M.ValidationStatus.NO_POSITIVE_MONODROMY
    assert M.validate(M.builtin("fainshil(0,0)")).ok


def test_unvalidated_model_carries_its_status():
    growth = M.PeriodicMatrixFunction.constant(np.diag([0.1, -0.2]))
    one_way = M.PeriodicMatrixFunction.constant([[0.0, 1.0], [0.0, -1.0]])
    mdl = M.PatchModel(2, growth, one_way)
    assert mdl.validation is M.ValidationStatus.NO_POSITIVE_MONODROMY
    assert M.validated(mdl) is mdl


def _taylor_exp(A: np.ndarray, terms: int = 60) -> np.ndarray:
    """e^A as e^-c times the Taylor series of A + cI >= 0: every term is
    nonnegative, so a structural zero of e^A stays exactly 0."""
    c = max(0.0, -float(A.diagonal().min()))
    B = A + c * np.eye(len(A))
    term = total = np.eye(len(A))
    for j in range(1, terms):
        term = term @ B / j
        total = total + term
    return np.exp(-c) * total


@st.composite
def migration_patterns(draw):
    """(n, rates, breaks, migration matrices) with 0/1 off-diagonal flows."""
    n = draw(st.sampled_from([2, 3]))
    inner = draw(st.lists(st.integers(1, 7), unique=True, max_size=2))
    breaks = [0.0] + sorted(k / 8 for k in inner)
    mats = []
    for _ in breaks:
        L = np.zeros((n, n))
        L[~np.eye(n, dtype=bool)] = draw(
            st.lists(st.sampled_from([0.0, 1.0]), min_size=n * (n - 1),
                     max_size=n * (n - 1)))
        mats.append(L - np.diag(L.sum(axis=0)))
    rates = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return n, rates, breaks, mats


@settings(max_examples=200, deadline=None)
@given(spec=migration_patterns())
def test_certificate_matches_sign_of_monodromy(spec):
    n, rates, breaks, mats = spec
    mdl = M.PatchModel(n, M.PeriodicMatrixFunction.constant(np.diag(rates)),
                       M.PeriodicMatrixFunction.from_segments(breaks, mats))
    Phi = np.eye(n)
    seg = mdl.segments
    for w, R, L in zip(seg.widths, seg.R.transpose(2, 0, 1),
                       seg.L.transpose(2, 0, 1)):
        Phi = _taylor_exp(w * (R + L)) @ Phi
    certified = mdl.validation in (M.ValidationStatus.IRREDUCIBLE_EVERYWHERE,
                                   M.ValidationStatus.POSITIVE_MONODROMY_ONLY)
    assert certified == bool(np.all(Phi > 0.0))
    assert (mdl.validation is M.ValidationStatus.IRREDUCIBLE_EVERYWHERE) == \
        all(_taylor_exp(L).min() > 0.0 for L in mats)


def test_builtin_name_parsing():
    a = M.builtin("pm1(0.5)")
    b = M.builtin("pm1", 0.5)
    assert a.growth == b.growth and a.migration == b.migration
    with pytest.raises(M.UnknownModel):
        M.builtin("no_such_model")
    with pytest.raises(M.UnknownModel):
        M.builtin("pm1(oops)")
    with pytest.raises(M.UnknownModel):
        M.builtin("pm1(2.0)")  # out of the open unit interval


def test_builtin_builds_each_model_once():
    a = M.builtin("fainshil(0.1,0.1)")
    assert a is M.builtin("fainshil", 0.1, 0.1)
    assert a is not M.builtin("fainshil", 0.2, 0.1)
    # parameters are told apart by their repr: a name keeps its spelling
    assert M.builtin("fainshil", 0, 0).name == "fainshil(0,0)"
    assert M.builtin("fainshil(0,0)").name == "fainshil(0.0,0.0)"
    # the shared instance's cached arrays cannot be written
    for arr in (a.segments.R, a.segment_reach, a.kernel_segments.R,
                a.kernel_segments.breaks):
        assert not arr.flags.writeable


def test_catalog_lists_all():
    names = M.catalog()
    assert "ab1" in names and "fainshil" in names
    assert names == tuple(sorted(names))


def test_mean_rates_exact():
    m = M.builtin("ab1")
    assert np.allclose(m.mean_rates(), [-0.25, -0.5], atol=0, rtol=0)
    assert m.all_sinks()


def test_json_round_trip(tmp_path):
    m = M.builtin("abc_two_patch")
    path = tmp_path / "abc.json"
    M.save(m, path)
    m2 = M.load(path)
    assert m2.n == m.n
    assert m2.growth == m.growth
    assert m2.migration == m.migration
    assert m2.validation is M.ValidationStatus.IRREDUCIBLE_EVERYWHERE


def test_load_rejects_wrong_version(tmp_path):
    doc = M.to_dict(M.builtin("ab1"))
    doc["version"] = 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(M.SchemaVersionMismatch):
        M.load(path)


def test_load_rejects_missing_field(tmp_path):
    doc = M.to_dict(M.builtin("ab1"))
    del doc["migration"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(M.ParseError):
        M.load(path)


def test_load_rejects_broken_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(M.ParseError):
        M.load(path)


def test_load_rejects_invalid_matrices(tmp_path):
    doc = M.to_dict(M.builtin("ab1"))
    doc["migration"]["matrices"][0][0][1] = -3.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(M.SchemaError):
        M.load(path)


def test_load_rejects_non_finite_entries(tmp_path):
    # Python's json reads NaN and Infinity
    doc = M.to_dict(M.builtin("ab1"))
    doc["growth"]["diagonals"][0][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(M.SchemaError, match="finite"):
        M.load(path)


def test_random_models_validate(rng):
    from conftest import random_model
    for _ in range(10):
        m = random_model(rng)
        assert m.validation is M.ValidationStatus.IRREDUCIBLE_EVERYWHERE
