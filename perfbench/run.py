"""The synsim benchmark: one workload, one seed, one run.

Usage (from the root of a synsim checkout):

    python3 perfbench/run.py --workload report-n200 --seed 1 --seconds 30 --trace 0

It generates the workload's inputs from the seed, computes the expected
outputs with the independent reference scorer, then runs measured jobs,
one at a time, until ``--seconds`` have passed. Every job is a fresh child
process that imports synsim from ``src/`` of the checkout:

* ``report`` and ``vector`` jobs are CLI invocations (``python3 -m synsim``);
* ``session`` jobs are library clients that build the corpus, then send a
  fixed number of ``compare_pair`` requests one at a time.

Every time measured in a job is scaled to a reference machine speed by
the calibrations run just before and just after the job (see ``calib``).
Every output is checked against the reference after the measured window.
With ``--trace 0`` the run prints the end-to-end metrics, and on a line
starting ``# unscaled`` the same metrics without calibration with the
median calibration factor. With ``--trace 1`` it alternates untraced and
traced jobs and prints the per-layer metrics of the traced job with the
median wall time. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
JOB_TIMEOUT_S = 60
CALIBRATION_PASSES = 6
END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "docs_per_s": "1/s",
    "item_ms.p50": "ms",
    "item_ms.tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Job:
    """One finished child process.

    ``scale`` converts this job's measured times to the reference speed.
    """

    def __init__(self, wall_s, code, rss_mb, stdout, out, trace, scale):
        self.raw_wall_s, self.code, self.rss_mb = wall_s, code, rss_mb
        self.stdout, self.out, self.trace = stdout, out, trace
        self.scale = scale
        self.wall_s = wall_s * scale


class Runner:
    """Spawns measured child processes and waits for each in turn, timing
    the calibration work between consecutive jobs."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.calibration = calib.Calibration()
        self.last_calibration = self.calibration.time(CALIBRATION_PASSES)

    def spawn(self, argv) -> tuple[float, int, float, Path]:
        self.count += 1
        stdout = self.work / f"job{self.count}.stdout"
        stderr = self.work / f"job{self.count}.stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                             file_actions=actions)
        previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(JOB_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024, stdout

    def job(self, argv=None, spec=None, traced=False) -> Job:
        """Run ``python3 -m synsim argv``, or the worker on ``spec``."""
        out = trace = None
        if spec is not None:
            n = self.count + 1
            out = self.work / f"job{n}.out.json"
            trace = self.work / f"job{n}.trace.json" if traced else None
            spec = dict(spec, out=str(out), trace=str(trace) if trace else None)
            path = self.work / f"job{n}.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            argv = [str(HERE / "worker.py"), str(path)]
        else:
            argv = ["-m", "synsim", *argv]
        wall, code, rss, stdout = self.spawn(argv)
        before = self.last_calibration
        self.last_calibration = self.calibration.time(CALIBRATION_PASSES)
        scale = self.calibration.scale(before, self.last_calibration)
        return Job(wall, code, rss, stdout, out, trace, scale)


def read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def tail(samples) -> tuple[float, float]:
    """(percentile, value): the highest percentile up to 95 that has at
    least 10 samples beyond it, by nearest rank; the median when fewer
    than 20 samples leave no such percentile at or above 50."""
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        return 50.0, float("nan")
    if n < 20:
        return 50.0, statistics.median(ordered)
    q = min(95.0, 100.0 * (n - 10) / n)
    return q, ordered[max(0, math.ceil(q / 100 * n) - 1)]


class Workload:
    """Inputs, reference outputs and jobs of one workload at one seed."""

    def __init__(self, name: str, seed: int, work: Path):
        self.spec = SPEC["workloads"][name]
        self.kind = self.spec["job"]
        params = self.spec["generator"]
        clusters = [tuple(c) for c in params["clusters"]]
        info = gen.generate(work / "inputs", seed, **dict(params, clusters=clusters))
        self.dirs = list(info["directories"].values())
        self.ids = info["ids"]
        self.docs = sum(len(ids) for ids in self.ids.values())
        self.inputs = {
            "stopwords": info["stopwords"],
            "stems": info["stems"],
            "synonyms": info["synonyms"],
            "dirs": self.dirs,
        }
        lexicons = reference.Lexicons(info["stopwords"], info["stems"], info["synonyms"])
        self.ref = reference.Corpus(lexicons, self.dirs)
        self.rng = random.Random(f"{name}-{seed}")
        resources = ["--stopwords", info["stopwords"], "--stems", info["stems"],
                     "--synonyms", info["synonyms"]]
        if self.kind == "report":
            similar, dissimilar = self.ids.values()
            anchor = self.rng.choice(similar)
            self.argv = ["report", *resources, *self.dirs, anchor]
            self.expected = reference.report(self.ref, similar, dissimilar, anchor).encode()
            self.items = len(similar) + len(dissimilar) - 1
        elif self.kind == "vector":
            doc = self.rng.choice(self.ref.ids)
            self.argv = ["vector", *resources, *self.dirs, doc]
            self.expected = reference.vector(self.ref, doc).encode()
            self.items = 1
        else:
            self.items = self.spec["requests_per_session"]
            self.anchors = self.ref.ids[:]
            self.rng.shuffle(self.anchors)

    def requests(self, session: int) -> list[list[str]]:
        """The session's (a, b, measure) triples. No anchor repeats within a
        session, nor across the first len(corpus) / requests_per_session
        sessions of a run."""
        start = session * self.items
        batch = []
        for i in range(start, start + self.items):
            a = self.anchors[i % len(self.anchors)]
            b = self.rng.choice([d for d in self.ref.ids if d != a])
            batch.append([a, b, self.rng.choice(reference.MEASURES)])
        return batch

    def run_job(self, runner: Runner, session: int, traced: bool):
        """One job; returns (Job, requests sent or None)."""
        if self.kind == "session":
            requests = self.requests(session)
            spec = {"kind": "session", "inputs": self.inputs, "requests": requests}
            return runner.job(spec=spec, traced=traced), requests
        if traced:
            return runner.job(spec={"kind": "cli", "argv": self.argv}, traced=True), None
        return runner.job(argv=self.argv), None


class Tally:
    """Attempted and failed operations."""

    def __init__(self):
        self.attempted = self.failed = 0

    def add(self, ok: bool, weight: int = 1):
        self.attempted += weight
        if not ok:
            self.failed += weight


def check(workload: Workload, job: Job, requests, tally: Tally):
    """Count the job's operations as attempted, and as failed where the exit
    code or an output differs from the reference. Returns the job's result
    file contents, or None."""
    result = read_json(job.out) if job.out else None
    ok = job.code == 0 and (job.trace is None or read_json(job.trace) is not None)
    if requests is None:
        tally.add(ok and job.stdout.read_bytes() == workload.expected)
        return None
    if not ok or result is None:
        tally.add(False, len(requests))
        return None
    for (a, b, measure), got in zip(requests, result["scores"]):
        want = [v.hex() for v in workload.ref.pair(a, b, measure)]
        tally.add(got == want)
    tally.add(False, len(requests) - len(result["scores"]))
    return result


def measure(workload: Workload, runner: Runner, seconds: float, traced: bool):
    """Jobs until ``seconds`` pass, in rounds; outputs are checked afterwards.

    Untraced, a round is one job and, for CLI workloads, one set-up probe, so
    probes are spread over the run like the jobs. Traced, a round is one
    untraced and one traced job. Returns the untraced and traced (job,
    result) pairs, the (job, unscaled set-up seconds) pairs and the tally.
    """
    runs = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not runs:
        for role in ("plain", "traced") if traced else ("plain",):
            job, requests = workload.run_job(runner, len(runs), role == "traced")
            runs.append((role, job, requests))
        if not traced and workload.kind != "session":
            runs.append(("probe", runner.job(spec={"kind": "setup", "inputs": workload.inputs}), None))
    tally = Tally()
    jobs = {"plain": [], "traced": []}
    setups = []
    for role, job, requests in runs:
        if role == "probe":
            result = read_json(job.out)
            ok = job.code == 0 and result is not None and result["docs"] == workload.docs
            tally.add(ok)
            if ok:
                setups.append((job, result["setup_s"]))
            continue
        result = check(workload, job, requests, tally)
        jobs[role].append((job, result))
        if workload.kind == "session" and result:
            setups.append((job, result["setup_s"]))
    return jobs["plain"], jobs["traced"], setups, tally


def end_to_end(workload: Workload, plain, setups, calibrated: bool = True):
    """End-to-end metrics of the untraced jobs, and a note per metric.

    ``setups`` holds (job, unscaled set-up seconds) pairs. Times are scaled
    by each job's calibration factor unless ``calibrated`` is false, except
    the session tail, which is never scaled. A session yields one latency
    per request and a CLI job one (its wall time over its items); the
    latencies of all jobs are pooled for the median and the tail.
    """
    def scale(job):
        return job.scale if calibrated else 1.0

    walls = [job.raw_wall_s * scale(job) for job, _ in plain]
    if workload.kind == "session":
        items = [t * 1000 * scale(job) for job, r in plain if r for t in r["latencies"]]
        # The slowest requests fall in slow spells inside a session, whose
        # speed the calibration around the whole session does not follow:
        # in three sets of runs measured both ways, the scaled tail spread
        # 10-19% across seeds, the unscaled one 6%.
        q, tail_ms = tail(t * 1000 for _, r in plain if r for t in r["latencies"])
        tail_note = f"p{q:g} of {len(items)} samples, unscaled"
    else:
        items = [w * 1000 / workload.items for w in walls]
        q, tail_ms = tail(items)
        tail_note = f"p{q:g} of {len(items)} samples"
    setup_s = statistics.median(t * scale(job) for job, t in setups) if setups else float("nan")
    metrics = {
        "wall_s": statistics.median(walls),
        "items_per_s": workload.items * len(walls) / sum(walls),
        "docs_per_s": workload.docs / setup_s,
        "item_ms.p50": statistics.median(items) if items else float("nan"),
        "item_ms.tail": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(job.rss_mb for job, _ in plain),
    }
    notes = {
        "wall_s": f"median of {len(walls)} jobs, median calibration factor "
                  f"{statistics.median(job.scale for job, _ in plain):.3f}",
        "item_ms.p50": f"{len(items)} samples",
        "item_ms.tail": tail_note,
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": f"median of {len(walls)} jobs",
    }
    return metrics, notes


def per_layer(plain, with_trace):
    """Per-layer metrics of the traced job with the median wall time."""
    usable = [job for job, _ in with_trace if job.code == 0 and read_json(job.trace)]
    if not usable:
        return dict.fromkeys(spans.metric_names(), float("nan")), {}
    usable.sort(key=lambda job: job.wall_s)
    job = usable[(len(usable) - 1) // 2]
    metrics = spans.summarize(read_json(job.trace), job.raw_wall_s, job.scale)
    metrics["trace.overhead_s"] = job.wall_s - statistics.median(j.wall_s for j, _ in plain)
    layers = sum(v for k, v in metrics.items() if k.endswith("_s") and k != "trace.overhead_s")
    notes = {
        "cli.self_s": f"layer self times + cli.self_s = {layers:.6f} s, "
                      f"traced wall = {job.wall_s:.6f} s ({len(usable)} traced jobs)",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one synsim benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "synsim" / "__init__.py").is_file():
        print(f"error: no synsim package under {SRC}; run from a synsim checkout",
              file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        start = time.perf_counter()
        workload = Workload(args.workload, args.seed, work)
        runner = Runner(work)
        print(f"# {args.workload} seed={args.seed}: {workload.docs} documents, "
              f"inputs and reference in {time.perf_counter() - start:.2f} s")
        plain, with_trace, setups, tally = measure(
            workload, runner, args.seconds, bool(args.trace))
        if args.trace:
            metrics, notes = per_layer(plain, with_trace)
            units = {name: "s" if name.endswith("_s") else
                     "ratio" if name.endswith("_ratio") else "count"
                     for name in metrics}
        else:
            metrics, notes = end_to_end(workload, plain, setups)
            unscaled, _ = end_to_end(workload, plain, setups, calibrated=False)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"fail_ratio {ratio:g} ({tally.failed} of {tally.attempted} operations failed)")
    if not args.trace:
        factor = statistics.median(job.scale for job, _ in plain)
        print("# unscaled " + json.dumps({"calibration_factor": factor, "metrics": unscaled}))
    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
