"""Cosine, Jaccard, and Dice similarity over sparse weight vectors.

All three are symmetric and, for vectors with nonnegative components, land
in [0, 1] with value 1 on identical nonzero vectors. Any measure involving
a zero vector is defined as 0 (no evidence of similarity), which keeps the
functions total on empty documents.

Functions accept either a :class:`~synsim.weighting.DocumentVector` or a
plain term-to-weight mapping. Accumulation always runs left to right in
sorted term order, so results are reproducible and exactly symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .errors import check_choice
from .weighting import DocumentVector, _sum_left_to_right

MEASURES = ("cosine", "jaccard", "dice")


@dataclass(frozen=True)
class SimilarityScore:
    """A similarity value tagged with the measure that produced it."""

    value: float
    measure: str


def _vector(v) -> DocumentVector:
    if isinstance(v, DocumentVector):
        return v
    return DocumentVector(weights=v)


def _cap(value: float) -> float:
    # Scores are provably <= 1 for nonnegative inputs; min() only absorbs
    # float rounding overshoot on near-identical vectors.
    return min(value, 1.0)


def dot(x, y) -> float:
    """Inner product over the terms stored on both sides, in sorted order.

    It walks the shorter vector's sorted terms and keeps those the other
    stores. A term stored on one side only would add ``+0.0``, which leaves
    the sum unchanged, so summing the intersection equals summing the union.
    """
    x, y = _vector(x), _vector(y)
    xw, yw = x.weights, y.weights
    if len(xw) <= len(yw):
        shared = [*filter(yw.__contains__, x._terms)]
    else:
        shared = [*filter(xw.__contains__, y._terms)]
    return _sum_left_to_right(map(mul, map(xw.__getitem__, shared), map(yw.__getitem__, shared)))


def cosine(x, y) -> float:
    """dot(x, y) / (|x| * |y|); 0 when either vector is zero."""
    x, y = _vector(x), _vector(y)
    nx = math.sqrt(x.norm_squared)
    ny = math.sqrt(y.norm_squared)
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return _cap(dot(x, y) / (nx * ny))


def jaccard(x, y) -> float:
    """dot(x, y) / (|x|^2 + |y|^2 - dot(x, y)); 0 when both vectors are zero."""
    x, y = _vector(x), _vector(y)
    s = dot(x, y)
    denominator = x.norm_squared + y.norm_squared - s
    if denominator == 0.0:
        return 0.0
    return _cap(s / denominator)


def dice(x, y) -> float:
    """2 * dot(x, y) / (|x|^2 + |y|^2); 0 when both vectors are zero."""
    x, y = _vector(x), _vector(y)
    denominator = x.norm_squared + y.norm_squared
    if denominator == 0.0:
        return 0.0
    return _cap(2.0 * dot(x, y) / denominator)


_MEASURE_FUNCTIONS = {"cosine": cosine, "jaccard": jaccard, "dice": dice}


def similarity(measure: str, x, y) -> SimilarityScore:
    """Dispatch to one of the named measures."""
    check_choice("measure", measure, MEASURES)
    return SimilarityScore(value=_MEASURE_FUNCTIONS[measure](x, y), measure=measure)
