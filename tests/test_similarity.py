"""Cosine, Jaccard, and Dice on sparse weight vectors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synsim.evaluation
from synsim import (
    MEASURES,
    ConfigError,
    Corpus,
    DocumentVector,
    ProcessedDocument,
    SimilarityScore,
    anchor_matrix,
    cosine,
    dice,
    dot,
    jaccard,
    similarity,
)


def vec(values) -> dict:
    """Dense test values as the sparse mapping the measures consume."""
    return {f"t{i}": float(v) for i, v in enumerate(values)}


def random_pair(rng, max_dim=50):
    """A random nonnegative sparse vector pair on a shared vocabulary."""
    dim = int(rng.integers(1, max_dim + 1))
    x = rng.uniform(0.0, 5.0, size=dim)
    y = rng.uniform(0.0, 5.0, size=dim)
    # knock components out so supports differ
    x[rng.random(dim) < 0.4] = 0.0
    y[rng.random(dim) < 0.4] = 0.0
    return vec(x), vec(y)


def test_dot_direct():
    assert dot(vec([1, 2, 3]), vec([4, 5, 6])) == 32.0


def test_dot_zero_vector():
    assert dot(vec([1, 2]), vec([0, 0])) == 0.0


def test_dot_of_empty_vectors_is_float():
    assert type(dot({}, {})) is float
    assert type(dot({}, {"a": 1.0})) is float


def added_in_order(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def test_dot_and_norm_add_left_to_right():
    # A compensated sum, such as built-in sum() since Python 3.12, would
    # give 1.0000000000000002 for both.
    assert dot({"a": 1.0, "b": 1e-16, "c": 1e-16}, {"a": 1.0, "b": 1.0, "c": 1.0}) == 1.0
    assert DocumentVector({"a": 1.0, "b": 1e-8, "c": 1e-8}).norm_squared == 1.0


def test_report_averages_add_left_to_right(monkeypatch):
    # anchor_matrix sums each measure's rows as it scores them; built-in
    # sum() since Python 3.12 would give 1.0000000000000002 / 3.
    # Each target is scored traditional, then modified.
    values = iter([1.0, 1.0, 1e-16, 1e-16, 1e-16, 1e-16])

    def fake(measure, a, b):
        return SimilarityScore(next(values), measure)

    monkeypatch.setattr(synsim.evaluation, "similarity", fake)
    corpus = Corpus([ProcessedDocument.from_terms(i, ["t"]) for i in ("q", "a", "b", "c")])
    table = anchor_matrix(corpus, "q", ["a", "b", "c"], ["cosine"])
    assert [r.traditional for r in table.rows] == [1.0, 1e-16, 1e-16]
    assert table.averages["cosine"] == (1.0 / 3, 1.0 / 3, 0.0)


def test_dot_and_jaccard_match_union_sums_bitwise():
    # Summing the key intersection equals summing the union: a term stored
    # on one side only adds +0.0. dot walks its first argument's terms and
    # keeps those the second stores, so both argument orders are checked;
    # stored zeros of either sign are stored terms, and each adds a signed
    # zero. Each measure is then its plain formula over those sums.
    rng = np.random.default_rng(7)
    for i in range(200):
        x, y = random_pair(rng)
        x = {t: w for t, w in x.items() if w}
        y = {t: w for t, w in y.items() if w and rng.random() < 0.8}
        if i % 2:
            x.update(z0=0.0, z1=-0.0, z2=-0.0)
            y.update(z1=float(rng.uniform(0.0, 5.0)), z2=-0.0)
        union = added_in_order(
            x.get(t, 0.0) * y.get(t, 0.0) for t in sorted(set(x) | set(y))
        )
        assert dot(x, y).hex() == float(union).hex()
        assert dot(y, x).hex() == float(union).hex()
        xx = added_in_order(x[t] * x[t] for t in sorted(x))
        yy = added_in_order(y[t] * y[t] for t in sorted(y))
        s = dot(x, y)
        if xx + yy - s:
            assert jaccard(x, y).hex() == min(s / (xx + yy - s), 1.0).hex()
        nx, ny = math.sqrt(xx), math.sqrt(yy)
        expected = min(s / (nx * ny), 1.0) if nx and ny else 0.0
        assert cosine(x, y).hex() == expected.hex()
        expected = min(2.0 * s / (xx + yy), 1.0) if xx + yy else 0.0
        assert dice(x, y).hex() == expected.hex()


# Any finite weight: negative, signed zero, subnormal, or large enough that
# products overflow to an infinity and later sums of both signs to nan. The
# bounded draws have full mantissas, so the order of the additions shows.
finite_weights = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-4.0, max_value=4.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e200, -1e200, 1e308, -1e308]),
)
sparse_maps = st.dictionaries(st.sampled_from("abcdefgh"), finite_weights, max_size=8)


@settings(max_examples=300, deadline=None)
@given(sparse_maps, sparse_maps)
def test_dot_and_norm_add_any_finite_weights_in_sorted_order(x, y):
    shared = sorted(set(x) & set(y))
    expected = added_in_order(x[t] * y[t] for t in shared)
    assert float.hex(dot(x, y)) == float.hex(expected)
    assert float.hex(dot(y, x)) == float.hex(expected)
    expected = added_in_order(x[t] * x[t] for t in sorted(x))
    assert float.hex(DocumentVector(x).norm_squared) == float.hex(expected)
    assert float.hex(dot({}, {})) == float.hex(0.0)


def test_dot_adds_nothing_for_a_term_one_side_stores_even_when_infinite():
    # For finite weights the intersection and the union sum alike; an
    # infinite weight tells them apart, since inf * 0.0 is nan.
    assert dot({"a": math.inf, "b": 2.0}, {"b": 3.0}) == 6.0
    assert dot({"b": 3.0}, {"a": -math.inf, "b": 2.0}) == 6.0


def test_cosine_identical():
    v = vec([0.3, 1.2])
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert cosine(vec([1, 0]), vec([0, 1])) == 0.0


def test_cosine_direct():
    expected = 32 / math.sqrt(14 * 77)
    assert cosine(vec([1, 2, 3]), vec([4, 5, 6])) == pytest.approx(
        expected, abs=1e-12
    )
    assert expected == pytest.approx(0.974632, abs=1e-6)


def test_jaccard_identical():
    v = vec([2.0, 0.5])
    assert jaccard(v, v) == pytest.approx(1.0, abs=1e-12)


def test_jaccard_disjoint_supports():
    assert jaccard(vec([1, 0]), vec([0, 3])) == 0.0


def test_jaccard_direct():
    assert jaccard(vec([1, 2]), vec([2, 1])) == pytest.approx(4 / 6, abs=1e-12)


def test_dice_direct():
    assert dice(vec([1, 2]), vec([2, 1])) == pytest.approx(0.8, abs=1e-12)


def test_dice_from_jaccard():
    j = jaccard(vec([1, 2]), vec([2, 1]))
    assert dice(vec([1, 2]), vec([2, 1])) == pytest.approx(2 * j / (1 + j))


def test_zero_vectors_score_zero():
    z = vec([0, 0])
    for fn in (cosine, jaccard, dice):
        assert fn(z, z) == 0.0
        assert fn(vec([1, 1]), z) == 0.0


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("y", [{}, {"a": 1e-200}], ids=["empty", "tiny"])
def test_a_norm_that_overflows_against_a_zero_one_scores_zero(measure, y):
    # |x|² overflows to inf and |y|² is 0, so sqrt(inf) * sqrt(0.0) is nan;
    # cosine tests the two norms, not their product.
    x = {"a": 1e200}
    assert similarity(measure, x, y).value == 0.0
    assert similarity(measure, y, x).value == 0.0


def test_dice_doubles_its_numerator_not_halves_its_denominator():
    # At subnormal scale (xx + yy) / 2 rounds: s / ((xx + yy) / 2) gives
    # 0.8400556328233658 here.
    x = {"a": 5.442292252959519e-161, "b": 6.039200385961945e-161, "c": 6.552885923981311e-162}
    y = {"a": 8.3746908209646e-161, "b": 2.3433096104669637e-161}
    assert dice(x, y) == 0.8397636426833507


def test_score_carries_measure_name():
    score = similarity("cosine", vec([1]), vec([1]))
    assert score.measure == "cosine"
    assert score.value == pytest.approx(1.0, abs=1e-12)
    assert similarity("dice", vec([1]), vec([1])).measure == "dice"


def test_similarity_dispatch_unknown_measure():
    with pytest.raises(ConfigError):
        similarity("euclid", vec([1]), vec([1]))


def test_symmetry_exact():
    rng = np.random.default_rng(21)
    for _ in range(300):
        x, y = random_pair(rng)
        for name in ("cosine", "jaccard", "dice"):
            assert similarity(name, x, y).value == similarity(name, y, x).value


def test_range_and_ordering():
    """0 <= J <= D <= C <= 1 on nonnegative vectors."""
    rng = np.random.default_rng(22)
    for _ in range(300):
        x, y = random_pair(rng)
        c = cosine(x, y)
        j = jaccard(x, y)
        d = dice(x, y)
        for v in (c, j, d):
            assert 0.0 <= v <= 1.0
        assert j <= d + 1e-15
        assert d <= c + 1e-15


def test_dice_jaccard_identity():
    rng = np.random.default_rng(23)
    for _ in range(300):
        x, y = random_pair(rng)
        j = jaccard(x, y)
        d = dice(x, y)
        assert d == pytest.approx(2 * j / (1 + j), abs=1e-9)
        if d < 1.0:
            assert j == pytest.approx(d / (2 - d), abs=1e-9)


def test_cosine_scale_invariance():
    rng = np.random.default_rng(24)
    for _ in range(100):
        x, y = random_pair(rng)
        if dot(x, x) == 0 or dot(y, y) == 0:
            continue
        alpha, beta = rng.uniform(0.01, 10.0, size=2)
        scaled_x = {t: alpha * w for t, w in x.items()}
        scaled_y = {t: beta * w for t, w in y.items()}
        assert cosine(scaled_x, scaled_y) == pytest.approx(
            cosine(x, y), abs=1e-12
        )


def test_padding_with_shared_zeros_changes_nothing():
    x, y = vec([1, 2, 0]), vec([2, 1, 0])
    padded_x = dict(x, pad1=0.0, pad2=0.0)
    padded_y = dict(y, pad1=0.0, pad2=0.0)
    for name in ("cosine", "jaccard", "dice"):
        assert similarity(name, x, y).value == similarity(name, padded_x, padded_y).value
