"""Run kmerfab CLI calls in one fresh process and report what they cost.

    python3 perfbench/worker.py SRC_DIR [SPEC_JSON]

SRC_DIR is the directory that holds the `kmerfab` package. The process
imports `kmerfab.cli` first and notes the CLOCK_MONOTONIC reading at which
that import finished, so the parent can take set-up time as that reading
minus its own reading just before the spawn. Without a spec, that is all
it does. With a spec, {"calls": [argv, ...], "spans": dir or null}, it runs
each argv through `kmerfab.cli.main` in order, timing each call, and with
"spans" set it first installs the tracing wrappers and writes the spans
to that directory at the end.

While the calls run, a SIGALRM timer interrupts them every SAMPLE_PERIOD_S
to time a short fixed calibration loop (one sample is also taken before the
first call), so the parent can tell how fast the machine ran during the
calls. Call times and span times come from net_clock, which leaves the
sampling time out. The last line of stdout is one JSON object.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import kmerfab.cli  # noqa: E402  set-up ends when this import does

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
from pathlib import Path  # noqa: E402

SAMPLE_PERIOD_S = 0.2
SAMPLE_KEYS = 4_000  # about 10 ms on the baseline machine
MASK64 = (1 << 64) - 1


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop shaped like kmerfab's hot paths:
    64-bit hash mixing, bytearray bit probes and dict counting. It never
    changes, so its duration measures the machine, not the program."""
    bits = bytearray(1 << 16)
    n_bits = len(bits) * 8
    counts: dict[int, int] = {}
    x = 1
    t0 = time.perf_counter()
    for i in range(SAMPLE_KEYS):
        x = (x * 0x9E3779B97F4A7C15 + i) & MASK64
        h1 = x ^ (x >> 31)
        h2 = (x >> 17) | 1
        for j in range(4):
            p = ((h1 + j * h2) & MASK64) % n_bits
            bits[p >> 3] |= 1 << (p & 7)
        counts[x & 0x3FF] = counts.get(x & 0x3FF, 0) + 1
    return time.perf_counter() - t0


class Sampler:
    """Calibration samples taken from a signal handler, and a clock that
    leaves their time out."""

    def __init__(self):
        self.samples: list[float] = []
        # (sampled seconds so far, start of the last sample, its duration),
        # replaced as one tuple so net_clock never sees half an update
        self.state = (0.0, float("-inf"), 0.0)

    def sample(self, *_):
        start = time.perf_counter()
        d = calibrate()
        self.samples.append(d)
        self.state = (self.state[0] + d, start, d)

    def net_clock(self) -> float:
        t = time.perf_counter()
        total, last_start, last_d = self.state
        # a sample that began after t ran between the two reads above
        return t - (total - last_d if last_start > t else total)

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    if len(sys.argv) < 3:
        print(json.dumps({"ready": READY}))
        return 0
    spec = json.loads(sys.argv[2])
    sampler = Sampler()
    tracer = None
    cli_main = kmerfab.cli.main
    if spec.get("spans"):
        import tracing

        tracing.clock = sampler.net_clock
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    calls = []
    with sampler:
        for argv in spec["calls"]:
            fn = cli_main if tracer is None else tracer.span(f"cli.{argv[0]}", cli_main)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = sampler.net_clock()
                code = fn(argv)
                elapsed = sampler.net_clock() - t0
            calls.append({"argv": argv, "code": code, "s": elapsed,
                          "stdout": out.getvalue(), "stderr": err.getvalue()})
    result = {
        "ready": READY,
        "calls": calls,
        "calibration_s": sampler.samples,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        tracer.write(Path(spec["spans"]))
        result["counts"] = tracer.counts
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
