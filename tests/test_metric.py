import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isolab.gauges import make_builtin_gauge
from isolab.metric import (
    AmbiguousSupport,
    AtomicMeasure,
    SeminormVector,
    WeightSequence,
    count_support_start,
    measures_from_vectors,
    metric_value,
    moment_curve,
    separate,
)

CLIP = make_builtin_gauge("clip")
RAT = make_builtin_gauge("rational")
EXP = make_builtin_gauge("exp")


def test_weight_sequence_must_sum_to_one():
    WeightSequence((0.5, 0.25), declared_tail=0.25)
    with pytest.raises(ValueError):
        WeightSequence((0.5, 0.25), declared_tail=0.1)
    with pytest.raises(ValueError):
        WeightSequence((0.5, -0.5, 1.0))
    with pytest.raises(ValueError):
        WeightSequence((0.5, np.nan))
    with pytest.raises(ValueError):
        WeightSequence((0.5, 0.5), declared_tail=np.nan)


def test_seminorm_vector_must_be_nondecreasing():
    SeminormVector((0.0, 0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        SeminormVector((1.0, 0.5))
    with pytest.raises(ValueError):
        SeminormVector((-1.0, 0.0))


def test_metric_value_frozen_rational():
    # (1/2) theta(1) + (1/2) theta(2) with theta = t/(1+t):
    # 1/2 * 1/2 + 1/2 * 2/3 = 7/12
    w, a = WeightSequence.uniform(2), SeminormVector((1.0, 2.0))
    iv = metric_value(RAT, w, a)
    assert abs(iv.lower - 7.0 / 12.0) < 1e-15
    assert iv.upper == iv.lower  # zero declared tail
    # the moment curve at t = 1 is bit for bit the plain weighted sum
    assert iv.lower == float(np.dot(w.array, RAT(a.array)))


def test_metric_value_tail_enclosure():
    w = WeightSequence((0.5, 0.25), declared_tail=0.25)
    iv = metric_value(CLIP, w, SeminormVector((1.0, 2.0)))
    assert abs(iv.lower - 0.75) < 1e-15
    assert abs(iv.upper - 1.0) < 1e-15


def test_moment_curve_frozen_rational():
    # at t=3: 1/2 * 3/4 + 1/2 * 6/7 = 45/56
    v = moment_curve(RAT, WeightSequence.uniform(2), SeminormVector((1.0, 2.0)), 3.0)
    assert abs(v - 45.0 / 56.0) < 1e-15


def test_moment_curve_vectorized_matches_scalar():
    w = WeightSequence.uniform(3)
    a = SeminormVector((0.5, 1.0, 4.0))
    ts = np.array([0.1, 1.0, 10.0])
    vec = moment_curve(EXP, w, a, ts)
    for t, v in zip(ts, vec):
        assert abs(moment_curve(EXP, w, a, float(t)) - v) < 1e-15


def test_moment_curve_rejects_negative_t():
    with pytest.raises(ValueError):
        moment_curve(CLIP, WeightSequence.uniform(1), SeminormVector((1.0,)), -1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6),
    st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6),
)
def test_metric_subadditive_in_the_vector(xs, ys):
    """Triangle-type bound: d(a + b) <= d(a) + d(b) entrywise.

    Holds for admissible gauges by monotonicity plus subadditivity, and
    is what makes the weighted gauge sum a metric on differences.
    """
    n = min(len(xs), len(ys))
    a = np.sort(np.array(xs[:n]))
    b = np.sort(np.array(ys[:n]))
    w = WeightSequence.uniform(n)
    for g in (CLIP, RAT, EXP):
        lhs = metric_value(g, w, SeminormVector(tuple(np.sort(a + b)))).lower
        rhs = (
            metric_value(g, w, SeminormVector(tuple(a))).lower
            + metric_value(g, w, SeminormVector(tuple(b))).lower
        )
        assert lhs <= rhs + 1e-12


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------


def test_separate_example_pair():
    w = WeightSequence.uniform(2)
    res = separate(CLIP, w, SeminormVector((1.0, 2.0)), SeminormVector((1.0, 3.0)))
    assert res.verdict == "separated"
    assert res.gap > 1e-12
    # the curves differ by exactly 1/8 at t = 1/4
    gap_q = abs(
        moment_curve(CLIP, w, SeminormVector((1.0, 2.0)), 0.25)
        - moment_curve(CLIP, w, SeminormVector((1.0, 3.0)), 0.25)
    )
    assert abs(gap_q - 0.125) < 1e-15


def test_separate_equal_measures_not_separated():
    # same multiset of (weight, entry) atoms after merging: permuted pairs
    w = WeightSequence.uniform(2)
    a = SeminormVector((1.0, 2.0))
    res = separate(CLIP, w, a, a)
    assert res.verdict == "not_separated"
    assert res.gap == 0.0
    assert res.t_star is None


def test_separate_merged_atoms_equal():
    # (1,1,2) vs (1,2,1 sorted) build the same atomic measure
    w = WeightSequence.uniform(3)
    a = SeminormVector((1.0, 1.0, 2.0))
    b = SeminormVector((1.0, 1.0, 2.0))
    assert separate(RAT, w, a, b).verdict == "not_separated"


def test_separate_rejects_zero_entries():
    w = WeightSequence.uniform(2)
    with pytest.raises(ValueError):
        separate(CLIP, w, SeminormVector((0.0, 1.0)), SeminormVector((1.0, 2.0)))


def test_separate_raises_on_a_nan_gap():
    # a NaN gap is no finding: neither separated nor inconclusive
    def nan_gauge(x):
        return np.full_like(x, np.nan)

    w = WeightSequence.uniform(2)
    with pytest.raises(ValueError, match="NaN gap"):
        separate(nan_gauge, w, SeminormVector((1.0, 2.0)), SeminormVector((1.0, 3.0)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_separate_random_distinct_pairs(data):
    n = data.draw(st.integers(1, 5))
    a = np.sort(np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))))
    bump = data.draw(st.integers(0, n - 1))
    b = a.copy()
    b[bump] = b[bump] * 1.7 + 0.3
    b = np.sort(b)
    w = WeightSequence.uniform(n)
    ma = measures_from_vectors(w, SeminormVector(tuple(a)))
    mb = measures_from_vectors(w, SeminormVector(tuple(b)))
    res = separate(RAT, w, SeminormVector(tuple(a)), SeminormVector(tuple(b)))
    if ma.approx_equal(mb):
        assert res.verdict == "not_separated"
    else:
        assert res.verdict == "separated"
        assert res.gap > 1e-12


# ---------------------------------------------------------------------------
# support counting
# ---------------------------------------------------------------------------


def test_measures_from_vectors_merges_coincident():
    w = WeightSequence.uniform(3)
    m = measures_from_vectors(w, SeminormVector((1.0, 1.0, 2.0)))
    assert np.array_equal(m.atoms, (1.0, 2.0))
    assert np.allclose(m.masses, (2.0 / 3.0, 1.0 / 3.0))


def test_measures_from_vectors_rejects_zero_entries():
    # zero is not a legal atom; vectors with zeros stay at the vector level
    w = WeightSequence.uniform(4)
    with pytest.raises(ValueError):
        measures_from_vectors(w, SeminormVector((0.0, 0.0, 1.0, 2.0)))


def test_count_support_start_leading_zeros():
    w = WeightSequence.uniform(4)
    a = SeminormVector((0.0, 0.0, 1.0, 2.0))
    assert count_support_start(EXP, w, a, t_large=1e4) == 2


def test_count_support_start_all_zero():
    w = WeightSequence.uniform(4)
    a = SeminormVector((0.0, 0.0, 0.0, 0.0))
    assert count_support_start(EXP, w, a, t_large=1e4) == 4


def test_count_support_start_no_zeros():
    w = WeightSequence.uniform(3)
    a = SeminormVector((0.5, 1.0, 2.0))
    assert count_support_start(RAT, w, a, t_large=1e8) == 0


def test_count_support_start_needs_large_t():
    w = WeightSequence.uniform(2)
    a = SeminormVector((1.0, 2.0))
    with pytest.raises(ValueError):
        count_support_start(RAT, w, a, t_large=0.5)


def test_count_support_start_ambiguous_tail():
    # a fat declared tail swamps half the smallest weight
    w = WeightSequence((0.3, 0.3), declared_tail=0.4)
    a = SeminormVector((1.0, 2.0))
    with pytest.raises(AmbiguousSupport):
        count_support_start(EXP, w, a, t_large=1e6)


def test_count_support_start_random_blocks():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n + 1))
        body = np.sort(rng.uniform(0.1, 10.0, size=n - k))
        a = SeminormVector(tuple(np.concatenate([np.zeros(k), body])))
        w = WeightSequence.uniform(n)
        assert count_support_start(EXP, w, a, t_large=1e5) == k


# ---------------------------------------------------------------------------
# atomic measures
# ---------------------------------------------------------------------------


def test_atomic_measure_validation():
    with pytest.raises(ValueError):
        AtomicMeasure((2.0, 1.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        AtomicMeasure((1.0, 2.0), (0.5, 0.0))
    with pytest.raises(ValueError):
        AtomicMeasure((np.nan,), (0.5,))
    with pytest.raises(ValueError):
        AtomicMeasure((1.0,), (np.nan,))
    with pytest.raises(ValueError):
        AtomicMeasure((1.0, np.inf), (0.25, 0.25))


def test_atomic_measure_approx_equal():
    m1 = AtomicMeasure((1.0, 2.0), (0.5, 0.5))
    m2 = AtomicMeasure((1.0 + 1e-14, 2.0), (0.5, 0.5))
    m3 = AtomicMeasure((1.0, 2.5), (0.5, 0.5))
    assert m1.approx_equal(m2)
    assert not m1.approx_equal(m3)
