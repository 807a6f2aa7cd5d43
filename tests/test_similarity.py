"""Cosine, Jaccard, and Dice on sparse weight vectors."""

import math

import numpy as np
import pytest

from synsim import ConfigError, DocumentVector, cosine, dice, dot, jaccard, similarity


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
    assert DocumentVector("d", {"a": 1.0, "b": 1e-8, "c": 1e-8}).norm_squared == 1.0


def test_dot_and_jaccard_match_union_sums_bitwise():
    # Summing the key intersection equals summing the union: a term stored
    # on one side only adds +0.0.
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, y = random_pair(rng)
        x = {t: w for t, w in x.items() if w}
        y = {t: w for t, w in y.items() if w and rng.random() < 0.8}
        union = added_in_order(
            x.get(t, 0.0) * y.get(t, 0.0) for t in sorted(set(x) | set(y))
        )
        assert dot(x, y).hex() == float(union).hex()
        xx = added_in_order(x[t] * x[t] for t in sorted(x))
        yy = added_in_order(y[t] * y[t] for t in sorted(y))
        s = dot(x, y)
        if xx + yy - s:
            assert jaccard(x, y).hex() == min(s / (xx + yy - s), 1.0).hex()


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
