"""One measured child process of the benchmark.

Usage: ``python3 perfbench/worker.py JOB.json``, with synsim's source
directory on ``PYTHONPATH``. The job file names an optional trace file and
one job:

* ``cli``: run ``synsim.cli.main`` on ``argv`` (the traced CLI run; the
  untraced one is plain ``python3 -m synsim``);
* ``session``: a library client that loads the lexicons, builds the corpus
  (timed as set-up) and sends ``requests`` to ``compare_pair`` one at a
  time, timing each;
* ``setup``: only the set-up of a session.

Results go to the job's ``out`` file; spans, when traced, to ``trace``.
"""

from __future__ import annotations

import json
import sys
import time

import synsim
from synsim.cli import main as cli_main


def setup(inputs):
    stopwords = synsim.load_stopwords(inputs["stopwords"])
    lexicon = synsim.load_stem_lexicon(inputs["stems"])
    table = synsim.load_synonym_table(inputs["synonyms"], lexicon)
    return synsim.load_corpus(inputs["dirs"], stopwords, lexicon, table)


def run(job, tracer) -> int:
    if job["kind"] == "cli":
        return cli_main(job["argv"])
    clock = time.perf_counter
    start = clock()
    corpus = setup(job["inputs"])
    result = {"setup_s": clock() - start, "docs": len(corpus)}
    if job["kind"] == "session":
        latencies, scores = [], []
        for number, (a, b, measure) in enumerate(job["requests"], start=1):
            if tracer is not None:
                tracer.request = number
            start = clock()
            pair = synsim.compare_pair(corpus, a, b, measure)
            latencies.append(clock() - start)
            scores.append([pair.traditional.hex(), pair.modified.hex()])
        result.update(latencies=latencies, scores=scores)
    with open(job["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def main(path) -> int:
    with open(path, encoding="utf-8") as handle:
        job = json.load(handle)
    tracer = None
    if job.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        return run(job, tracer)
    finally:
        if tracer is not None:
            tracer.dump(job["trace"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
