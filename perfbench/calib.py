"""Machine-speed calibration for the benchmark's timings.

The speed of a shared machine drifts by tens of percent within seconds as
other tenants load it, so raw times of two runs of one commit disagree by
up to 30%. A fixed piece of pure-Python work (tokenize, count and score
fixed texts with the reference scorer) slows down with the machine as
synsim does. The runner times it between consecutive jobs and multiplies
every time measured in a job by ``PASS_REFERENCE_S`` over the mean
calibration time just before and just after that job. Such times stay
steady across runs: they are seconds at the speed where one pass takes
``PASS_REFERENCE_S``.
"""

from __future__ import annotations

import random
import time

import gen
import reference

# Median time of one pass on the machine the baseline was recorded on.
PASS_REFERENCE_S = 0.006


class Calibration:
    """Fixed calibration work; ``time(passes)`` measures it."""

    def __init__(self):
        rng = random.Random(0)
        stems = gen.make_vocabulary(rng, 400)
        cum_weights = gen.zipf_cum_weights(len(stems), 1.0)
        self.texts = [gen.document_text(rng, stems, cum_weights, 300) for _ in range(4)]
        self.stopwords = set(gen.STOPWORDS)

    def time(self, passes: int) -> float:
        """Seconds taken by ``passes`` passes."""
        start = time.perf_counter()
        for _ in range(passes):
            vectors = []
            for text in self.texts:
                counts: dict[str, int] = {}
                for token in reference.tokenize(text):
                    word = token.lower()
                    if word not in self.stopwords:
                        counts[word] = counts.get(word, 0) + 1
                total = sum(counts.values())
                vectors.append({t: c / total for t, c in counts.items()})
            for x in vectors:
                for y in vectors:
                    for measure in reference.MEASURES:
                        reference.score(measure, x, y)
        return (time.perf_counter() - start) / passes

    def scale(self, before: float, after: float) -> float:
        """Factor for work done between two per-pass calibration times."""
        return PASS_REFERENCE_S / ((before + after) / 2)
