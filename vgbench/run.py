"""Run one vgpricer benchmark workload and print its result as JSON.

    python3 vgbench/run.py --workload smile_slices --seed 1 --seconds 30 --trace 0

One closed-loop client in this process sends the workload's requests one
after another, in whole passes over the workload's pool, until --seconds
have elapsed.  Every price is then checked against the Gamma-mixture oracle
(vgbench/oracle.py), outside the timed region.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the layers are
wrapped (vgbench/trace.py) and the metrics are the per-layer ones, and the
spans of the first pass are written to .vgbench/ in the checkout.

Times are reported at a reference host speed (see HostClock): the shared
host runs identical inputs up to twice as fast in one minute as in the next.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".vgbench"
WORKLOADS = ("smile_slices", "random_book", "engine_crosscheck")
SETUP_REPEATS = 3
# a fresh interpreter importing the library, as every user process does
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import vgpricer, vgpricer.cli"


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


class HostClock:
    """Wall time divided by the host's current slowness.

    The sandbox shares its CPUs with other machines, and its speed moves in
    steps: one smile request took 47 ms at one time and 92 ms at another on
    identical inputs, with CPU time equal to wall time.  After each piece of
    measured work a fixed calibration kernel runs once to warm the caches,
    then twice more, timed; the faster of the two is the kernel time.  The
    work's wall time is divided by the mean of the kernel times just before
    and just after it, over the kernel's reference time: the result is the
    time the work would take on a host where the kernel takes its reference
    time.

    Work of different kinds slows differently, so there are two kernels.
    The interpreter kernel (frozen dataclasses, dicts and math calls, numpy
    and scipy log-Gamma on 26 x 26 grids, a Python compensated sum) follows
    the series workloads: between the fastest and the slowest quarter of
    4,800 smile requests their time moved by 79 % and its ratio to this
    kernel by 1 %.  The array kernel (an integer loop, then log-Gamma and a
    complex power over 2,048 points) follows the Fourier-bound crosscheck,
    whose ratio to it moved by 2 % where the interpreter kernel's moved 24 %.
    """

    REFERENCE_S = {"interpreter": 1.3e-3, "array": 1.4e-3}

    def __init__(self, kernel: str):
        import numpy as np
        from scipy.special import gammaln

        self._np, self._gammaln = np, gammaln
        self._n1 = np.arange(26)[:, None]
        self._n2 = np.arange(26)[None, :]
        self._x = np.linspace(0.5, 40.0, 2048)
        self._kernel = getattr(self, "_" + kernel)
        self.reference_s = self.REFERENCE_S[kernel]
        self.last = self._calibrate()
        self.samples = []

    def _interpreter(self):
        np, n1, n2 = self._np, self._n1, self._n2
        total = 0.0
        for i in range(400):
            pair = _Pair(i * 0.5, i * 0.25)
            fields = {"a": pair.a, "b": pair.b}
            total += math.log1p(fields["a"]) * math.exp(-fields["b"] * 1e-3)
        for _ in range(4):
            terms = np.where(n1 % 2 == 0, 1.0, -1.0) * np.exp(
                self._gammaln(0.5 * n1 + 0.25 * n2 + 0.3) - 0.7 * n1 - 0.9 * n2
            )
            sums = np.bincount((n1 + n2).ravel(), weights=terms.ravel())
            total = comp = 0.0
            for value in sums.tolist():
                y = value - comp
                t = total + y
                comp = (t - total) - y
                total = t
        self._np.power(1.0 + 0.5j * self._x, -0.3)

    def _array(self):
        total = 0
        for i in range(3000):
            total += i * i
        for _ in range(4):
            self._gammaln(self._x)
            self._np.power(1.0 + 0.5j * self._x, -0.3)

    def _calibrate(self) -> float:
        self._kernel()  # right after a subprocess or a large request the caches are cold
        best = math.inf
        for _ in range(2):
            start = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - start)
        return best

    def time(self, fn, *args):
        """(result, wall seconds, reference seconds) of one call."""
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        cal = self._calibrate()
        slowness = 0.5 * (self.last + cal) / self.reference_s
        self.last = cal
        self.samples.append(cal)
        return result, wall, wall / slowness

    def slowness(self) -> float:
        return statistics.median(self.samples) / self.reference_s


def _median_time(clock, fn, repeats=SETUP_REPEATS):
    """Median reference time of repeated calls, and the last result."""
    times = []
    result = None
    for _ in range(repeats):
        result, _, ref = clock.time(fn)
        times.append(ref)
    return statistics.median(times), result


def _probe_import():
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True, timeout=60)


class Series:
    """smile_slices and random_book: a fixed pool, each request with a fresh spot multiplier."""

    def __init__(self, name, seed, workloads, series, error_type):
        self.name, self.seed, self.w = name, seed, workloads
        self.series, self.error_type = series, error_type
        self.pool = workloads.smile_pool(seed) if name == "smile_slices" else workloads.book_pool(seed)

    def warm_up(self):
        self.execute((self.pool[0], 1.0))

    def pass_requests(self, index):
        factors = self.w.spot_factors(self.name, self.seed, index, len(self.pool))
        return list(zip(self.pool, factors))

    def execute(self, request):
        ops, factor = request
        return self.w.run_series_request(self.series, self.error_type, ops, factor)

    def check(self, request, output, cache):
        ops, factor = request
        return self.w.check_series_request(ops, factor, output, cache)


class Crosscheck:
    """engine_crosscheck: fresh contracts every pass, each through three CLI calls."""

    def __init__(self, seed, workloads, cli):
        self.seed, self.w, self.cli = seed, workloads, cli
        self.warm_contract = workloads.cross_pass(seed, "warm-up")[1]

    def warm_up(self):
        self.execute(self.warm_contract)

    def pass_requests(self, index):
        return self.w.cross_pass(self.seed, index)

    def execute(self, contract):
        return self.w.run_cross_request(self.cli, contract)

    def check(self, contract, output, cache):
        return self.w.check_cross_request(contract, output, cache)


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vgpricer" / "__init__.py").is_file():
        print(f"vgbench: no vgpricer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))

    # -- set-up: imports, inputs, warm-up; each part repeated, medians summed
    clock = HostClock("array" if args.workload == "engine_crosscheck" else "interpreter")
    import_s, _ = _median_time(clock, _probe_import)
    import vgpricer.cli
    from vgpricer import series
    from vgpricer.errors import VgError

    from vgbench import workloads

    def build():
        if args.workload == "engine_crosscheck":
            return Crosscheck(args.seed, workloads, vgpricer.cli)
        return Series(args.workload, args.seed, workloads, series, VgError)

    inputs_s, runner = _median_time(clock, build)
    tracer = None
    if args.trace:
        from vgbench.trace import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.counting = tracer.keep_spans = False
    warmup_s, _ = _median_time(clock, runner.warm_up)
    setup_s = import_s + inputs_s + warmup_s

    # -- timed closed loop, whole passes
    def serve(request):
        if tracer is None:
            return runner.execute(request)
        with tracer.span("request"):
            return runner.execute(request)

    latencies, walls, done = [], [], []
    bytes_out = 0
    first_pass = 0
    if tracer is not None:
        tracer.self_s.clear()
        tracer.counting = tracer.keep_spans = True
    clock.samples.clear()
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        for request in runner.pass_requests(index):
            output, wall, ref = clock.time(serve, request)
            walls.append(wall)
            latencies.append(ref)
            done.append((request, output))
        if index == 0:
            first_pass = len(done)
            if tracer is not None:
                if args.workload == "engine_crosscheck":
                    bytes_out = sum(len(text.encode()) for _, out in done for _, text in out)
                tracer.counting = tracer.keep_spans = False
        index += 1
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks against the oracle, outside the timed region
    attempted = failed = 0
    correct = True
    cache = {}
    for request, output in done:
        for ok, named_fault in runner.check(request, output, cache):
            attempted += 1
            if not ok:
                failed += 1
                correct = correct and named_fault

    n = len(latencies)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "requests_per_s": (n / sum(latencies), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_p90_ms": (_quantile(latencies, 90) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        tracer.counts["cli.bytes_out"] = bytes_out
        metrics = tracer.metrics(first_pass, n, 1.0 / clock.slowness())
        metrics["setup.import_s"] = (import_s, "s")
        metrics["setup.warmup_s"] = (warmup_s, "s")
        metrics["trace.requests_per_s"] = (n / sum(latencies), "1/s")
        metrics["host.slowness"] = (clock.slowness(), "ratio")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")

    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} = {value:.6g} {unit}")
    print(f"{args.workload} wall time, not normalised: {n / sum(walls):.4g} requests/s, "
          f"p50 {statistics.median(walls) * 1e3:.4g} ms, p90 {_quantile(walls, 90) * 1e3:.4g} ms, "
          f"host slowness {clock.slowness():.3f}")
    print(f"{args.workload} requests = {n} (first pass {first_pass}), "
          f"attempted = {attempted}, failed = {failed}, correct = {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
