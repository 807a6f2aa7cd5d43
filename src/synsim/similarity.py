"""Cosine, Jaccard, and Dice similarity over sparse weight vectors.

:func:`similarity` computes all three, each as a numerator over a
denominator of ``s = dot(x, y)`` and the squared norms ``xx`` and ``yy``:

* cosine: ``s / (sqrt(xx) * sqrt(yy))``, 0 when either norm is 0;
* Jaccard: ``s / (xx + yy - s)``, 0 when that denominator is 0;
* Dice: ``2.0 * s / (xx + yy)``, 0 when that denominator is 0.

Cosine tests the two norms, not their product: a squared norm may
overflow to inf while the other is 0, and ``inf * 0.0`` is nan. Dice
doubles its numerator rather than halving its denominator, since at
subnormal scale ``(xx + yy) / 2`` rounds and moves the value.

Every value is capped at 1.0. For vectors with nonnegative components the
measures are symmetric, land in [0, 1], are 1 on identical nonzero vectors
and 0 when either vector is zero, so empty documents score 0.
:func:`cosine`, :func:`jaccard` and :func:`dice` equal
``similarity(name, x, y).value``.

Functions accept either a :class:`~synsim.weighting.DocumentVector` or a
plain term-to-weight mapping. Each sum is one loop that adds left to right
in sorted term order, so results are reproducible and exactly symmetric.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import check_choice
from .weighting import DocumentVector

MEASURES = ("cosine", "jaccard", "dice")


class SimilarityScore(NamedTuple):
    """A similarity value tagged with the measure that produced it; a named tuple."""

    value: float
    measure: str


def _vector(v) -> DocumentVector:
    if isinstance(v, DocumentVector):
        return v
    return DocumentVector(weights=v)


def dot(x, y) -> float:
    """Inner product over the terms stored on both sides, in sorted order.

    One loop over ``x``'s sorted terms adds the products of the terms ``y``
    stores. A term stored on one side only would add a zero for any finite
    weight, so summing the intersection equals summing the union.
    """
    x, y = _vector(x), _vector(y)
    xw, yw = x.weights, y.weights
    # CPython specialises float * and += inside a loop, where
    # reduce(operator.add, ...) makes a generic call for each element.
    total = 0.0
    for term in x._terms:
        if term in yw:
            total += xw[term] * yw[term]
    return total


def similarity(measure: str, x, y) -> SimilarityScore:
    """The named measure of ``x`` and ``y``, by the rules in the module docstring."""
    check_choice("measure", measure, MEASURES)
    x, y = _vector(x), _vector(y)
    s, xx, yy = dot(x, y), x.norm_squared, y.norm_squared
    if measure == "cosine":
        nx, ny = math.sqrt(xx), math.sqrt(yy)
        numerator, denominator = s, nx * ny
        zero = nx == 0.0 or ny == 0.0
    elif measure == "jaccard":
        numerator, denominator = s, xx + yy - s
        zero = denominator == 0.0
    else:
        numerator, denominator = 2.0 * s, xx + yy
        zero = denominator == 0.0
    # min() only absorbs float rounding overshoot on near-identical vectors.
    value = 0.0 if zero else min(numerator / denominator, 1.0)
    return SimilarityScore(value=value, measure=measure)


def cosine(x, y) -> float:
    """``similarity("cosine", x, y).value``."""
    return similarity("cosine", x, y).value


def jaccard(x, y) -> float:
    """``similarity("jaccard", x, y).value``."""
    return similarity("jaccard", x, y).value


def dice(x, y) -> float:
    """``similarity("dice", x, y).value``."""
    return similarity("dice", x, y).value
