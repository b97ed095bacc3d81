"""Timed passes of one offlang command, in a process of its own.

Started by run.py with PYTHONPATH=src and the work directory as its
current directory, so that every byte of ru_maxrss belongs to the workload.

    python3 perfbench/worker.py SPEC.json     timed (or traced) passes
    python3 perfbench/worker.py --probe       time `import offlang.cli` alone

Each pass is one call of offlang.cli.main(argv).  A pure-Python reference
loop runs just before and just after every pass, and a short slice of it
runs every SAMPLE_INTERVAL_S of wall time during the pass, from a SIGALRM
handler.  The pass's wall time, less the time those slices took, is
multiplied by (mean reference rate / NOMINAL_RATE) ** SCALE_EXPONENT, so a
pass during which the CPU happened to run slow is not read as slow code.
The brackets alone are not enough on a host whose speed changes within a
second; see README.md.
"""

import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time

# Scaled seconds are seconds at this reference rate (iterations per
# second), a middling rate for CPython 3.11 on a 2.1 GHz Xeon cloud VM whose
# rate wanders between 1.4e6 and 3.3e6.  Only the unit depends on it.
NOMINAL_RATE = 2.0e6
# Within one run, a pass's wall time moved by 0.79-0.92 % for each 1 % of
# reference rate (numpy code slows less than the interpreter); scaling by
# the full rate over-corrects the forest's native share.
SCALE_EXPONENT = 0.9
REF_ITERS = 60_000
REF_REPS = 5
SAMPLE_INTERVAL_S = 0.05
SAMPLE_ITERS = 1_500


def reference_work(n: int) -> int:
    """Fixed pure-Python work: string formatting, dict updates, integer math."""
    counts = {}
    total = 0
    for i in range(n):
        word = "w%d" % (i % 211)
        counts[word] = counts.get(word, 0) + len(word)
        total += (i * 7) % 13
    return total + len(counts)


def reference_rate() -> float:
    """Reference iterations per second: median of REF_REPS short runs."""
    times = []
    for _ in range(REF_REPS):
        t0 = time.perf_counter()
        reference_work(REF_ITERS)
        times.append(time.perf_counter() - t0)
    return REF_ITERS / statistics.median(times)


class SpeedSampler:
    """Reference-rate samples taken every SAMPLE_INTERVAL_S while active."""

    def __init__(self):
        self.rates: list[float] = []
        self.spent_s = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_work(SAMPLE_ITERS)
        dt = time.perf_counter() - t0
        self.rates.append(SAMPLE_ITERS / dt)
        self.spent_s += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def timed(fn, *args) -> dict:
    """Run fn(*args) between two reference brackets, sampling during it.

    Returns the result, the wall seconds spent in fn (sampling excluded),
    the mean reference rate and the scaled seconds."""
    before = reference_rate()
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0 - sampler.spent_s
    after = reference_rate()
    rate = statistics.fmean([before, *sampler.rates, after])
    return {"result": result, "wall_s": wall, "ref_rate": rate,
            "ref_before": before, "ref_after": after, "samples": len(sampler.rates),
            "scaled_s": wall * (rate / NOMINAL_RATE) ** SCALE_EXPONENT}


def sha256_file(path) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe() -> dict:
    """Set-up as a workload pays it: importing offlang's entry point."""
    t0 = time.perf_counter()
    import offlang.cli  # noqa: F401
    return {"wall_s": time.perf_counter() - t0}


def run_pass(cli, argv, recorder=None) -> dict:
    """One timed CLI call; stdout and stderr are captured, not shown."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if recorder is None:
            t = timed(cli.main, argv)
        else:
            t = timed(recorder.call, "cli.main", cli.main, argv)
    t["rc"] = t.pop("result")
    t["stdout"], t["stderr"] = out.getvalue(), err.getvalue()
    return t


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    import offlang.cli as cli
    import_s = time.perf_counter() - t0

    passes = []
    result = {"import_s": import_s, "passes": passes}
    if spec["trace"]:
        import spans
        recorder = spans.Recorder()
        recorder.install()
        try:
            p = run_pass(cli, spec["argv"], recorder)
        finally:
            recorder.uninstall()
        p["digest"] = sha256_file(spec["output"])
        passes.append(p)
        result["layers"] = recorder.metrics(p["scaled_s"] / p["wall_s"])
        recorder.write(spec["trace_out"])
    else:
        start = time.perf_counter()
        while True:
            p = run_pass(cli, spec["argv"])
            p["digest"] = sha256_file(spec["output"])
            passes.append(p)
            if p["rc"] != 0:
                break
            elapsed = time.perf_counter() - start
            typical = statistics.median(q["wall_s"] for q in passes)
            if len(passes) >= spec["min_passes"] and elapsed + typical > spec["seconds"]:
                break
    result["maxrss_mb"] = maxrss_mb()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps(probe()))
        sys.exit(0)
    sys.exit(main(sys.argv[1]))
