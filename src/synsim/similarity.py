"""Cosine, Jaccard, and Dice similarity over sparse weight vectors.

All three are symmetric and, for vectors with nonnegative components, land
in [0, 1] with value 1 on identical nonzero vectors. Any measure involving
a zero vector is defined as 0 (no evidence of similarity), which keeps the
functions total on empty documents.

Functions accept either a :class:`~synsim.weighting.DocumentVector` or a
plain term-to-weight mapping. Accumulation always runs in sorted term
order, so results are reproducible and exactly symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import check_choice
from .weighting import DocumentVector

MEASURES = ("cosine", "jaccard", "dice")


@dataclass(frozen=True)
class SimilarityScore:
    """A similarity value tagged with the measure that produced it."""

    value: float
    measure: str


def _weights(v) -> Mapping[str, float]:
    if isinstance(v, DocumentVector):
        return v.weights
    return v


def _cap(value: float) -> float:
    # Scores are provably <= 1 for nonnegative inputs; min() only absorbs
    # float rounding overshoot on near-identical vectors.
    return min(value, 1.0)


def dot(x, y) -> float:
    """Inner product over the union of stored terms, in sorted term order."""
    xw, yw = _weights(x), _weights(y)
    return sum(xw.get(t, 0.0) * yw.get(t, 0.0) for t in sorted(set(xw) | set(yw)))


def _norm_squared(w: Mapping[str, float]) -> float:
    return sum(w[t] * w[t] for t in sorted(w))


def cosine(x, y) -> float:
    """dot(x, y) / (|x| * |y|); 0 when either vector is zero."""
    nx = math.sqrt(_norm_squared(_weights(x)))
    ny = math.sqrt(_norm_squared(_weights(y)))
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return _cap(dot(x, y) / (nx * ny))


def jaccard(x, y) -> float:
    """dot(x, y) / (|x|^2 + |y|^2 - dot(x, y)); 0 when both vectors are zero."""
    s = dot(x, y)
    denominator = _norm_squared(_weights(x)) + _norm_squared(_weights(y)) - s
    if denominator == 0.0:
        return 0.0
    return _cap(s / denominator)


def dice(x, y) -> float:
    """2 * dot(x, y) / (|x|^2 + |y|^2); 0 when both vectors are zero."""
    denominator = _norm_squared(_weights(x)) + _norm_squared(_weights(y))
    if denominator == 0.0:
        return 0.0
    return _cap(2.0 * dot(x, y) / denominator)


_MEASURE_FUNCTIONS = {"cosine": cosine, "jaccard": jaccard, "dice": dice}


def similarity(measure: str, x, y) -> SimilarityScore:
    """Dispatch to one of the named measures."""
    check_choice("measure", measure, MEASURES)
    return SimilarityScore(value=_MEASURE_FUNCTIONS[measure](x, y), measure=measure)
