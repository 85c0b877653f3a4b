"""The efgc benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload general_random --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (``src/efgc`` must exist); the
solver is imported from that tree and nowhere else.  The run

1. builds the workload's corpus from the seed in a child process
   (instances plus reference verdicts, see ``workloads.py``);
2. times ``import efgc`` plus loading the corpus in fresh interpreters
   several times and keeps the median (``setup_s``);
3. sends the corpus, one request at a time, through ``efgc.cli.run`` as
   ``efgc solve --in - --mode MODE`` would, round and round, for
   ``--seconds`` and at least one whole pass, and times the machine-speed
   kernel (``speed.py``) after every request, so that the timings can be
   scaled to a fixed machine speed; every instance then counts once, with
   the mean of its scaled latencies;
4. checks every answer outside the timed region: the verdict against
   the reference, and every witness through ``parse_assignment`` and
   ``verify_assignment``;
5. with ``--trace 1``, makes one more pass with the tracer installed and
   reports per-layer metrics instead of the end-to-end ones.

Human-readable lines go first; the last line of standard output is one
JSON object with keys ``correct``, ``attempted``, ``failed``, ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_runs")
SETUP_PROBES = 11  # fresh interpreters timed for setup_s, after one warm-up

if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import speed, tracer, workloads  # noqa: E402

# Prints the set-up time, then the median time of the speed kernel run
# right after it in the same interpreter.
SETUP_PROBE = """
import json, statistics, sys, time
start = time.perf_counter()
import efgc, efgc.cli
with open(sys.argv[1], encoding="utf-8") as handle:
    corpus = json.load(handle)
seconds = time.perf_counter() - start
from perfbench import speed
print(seconds, statistics.median(speed.kernel() for _ in range(21)))
"""


class BenchmarkError(Exception):
    """The benchmark cannot run here (no source tree, child failed)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, ROOT, env.get("PYTHONPATH")]))
    return env


def _child(args: list[str], timeout: float) -> str:
    done = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if done.returncode != 0:
        raise BenchmarkError(f"child {args[:2]} failed:\n{done.stderr.strip()}")
    return done.stdout


def import_efgc() -> None:
    """Import the solver from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "efgc", "__init__.py")):
        raise BenchmarkError(f"no solver sources under {SRC}")
    sys.path.insert(0, SRC)
    import efgc
    import efgc.cli

    origin = os.path.dirname(os.path.abspath(efgc.__file__))
    if origin != os.path.join(SRC, "efgc"):
        raise BenchmarkError(f"efgc was imported from {origin}, not from {SRC}")


def make_corpus(workload: str, seed: int) -> str:
    """Build the corpus in a child process; returns the file path."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"corpus-{workload}-{seed}.json")
    _child(["-m", "perfbench.workloads", workload, str(seed), path], timeout=170)
    return path


def measure_setup(corpus_path: str) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, raw and scaled by the speed
    kernel timed in the same interpreter."""
    raw, scaled = [], []
    for i in range(SETUP_PROBES + 1):
        seconds, kernel = map(float, _child(["-c", SETUP_PROBE, corpus_path], timeout=60).split())
        if i:  # the first probe also writes the bytecode caches
            raw.append(seconds)
            scaled.append(seconds * speed.REFERENCE_S / kernel)
    return raw, scaled


def numeric_backend() -> str:
    from efgc import linprog

    num = getattr(linprog, "_num", None)
    if num is None:
        return "unknown"
    return f"{num.__module__}.{num.__qualname__}"


class Checker:
    """Checks one answer against its reference, outside any timed region.

    Holds the original parse and verify functions, so that tracing,
    which replaces module attributes, never sees the checks.
    """

    def __init__(self):
        from efgc.cli import parse_assignment, parse_instance
        from efgc.model import verify_assignment

        self._parse_instance = parse_instance
        self._parse_assignment = parse_assignment
        self._verify = verify_assignment
        self._instances: dict[int, object] = {}

    def failure(self, index: int, request: dict, code, output: str) -> str | None:
        """None when the answer is right, else what is wrong with it."""
        if code not in (0, 1):
            return f"exit code {code}"
        head, _, witness = output.partition("\n")
        if head != ("Yes" if code == 0 else "No"):
            return f"exit code {code} but printed {head!r}"
        if (code == 0) != request["expect"]:
            return f"verdict {head}, reference ({request['ref']}) says the opposite"
        if code == 1:
            return None
        if index not in self._instances:
            self._instances[index] = self._parse_instance(request["text"])
        try:
            report = self._verify(self._instances[index], self._parse_assignment(witness))
        except Exception as exc:  # a witness that cannot be read is wrong
            return f"unreadable witness: {exc}"
        if not report.valid:
            return f"witness rejected: {report.failures[0].message}"
        return None


def solve_once(cli, request: dict) -> tuple[float, object, str]:
    """One request as ``efgc solve --in - --mode MODE``; returns the
    latency, the exit code (or a description of an exception that
    escaped) and standard output."""
    argv = ["solve", "--in", "-", "--mode", request["mode"]]
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(request["text"])
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.run(argv)
            except Exception as exc:  # counted as a failed request
                code = f"exception {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = saved
    return elapsed, code, out.getvalue()


class Loop:
    """Closed loop over the corpus: one client, one request in flight."""

    def __init__(self, corpus: list[dict]):
        import efgc.cli

        self.cli = efgc.cli
        self.corpus = corpus
        self.checker = Checker()
        self.latencies: list[float] = []
        self.indices: list[int] = []  # the corpus instance of each latency
        self.kernels: list[float] = []  # speed kernel after each request
        self.traced_latencies: list[float] = []
        self.traced_kernels: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def solve(self, index: int, tracer_=None) -> None:
        """One timed request, the speed kernel, then the request's check."""
        request = self.corpus[index]
        if tracer_ is None:
            elapsed, code, output = solve_once(self.cli, request)
            self.latencies.append(elapsed)
            self.indices.append(index)
            self.kernels.append(speed.kernel())
        else:
            with tracer_.request():
                elapsed, code, output = solve_once(self.cli, request)
            self.traced_latencies.append(elapsed)
            self.traced_kernels.append(speed.kernel())
        self.attempted += 1
        problem = self.checker.failure(index, request, code, output)
        if problem:
            self.failures.append(f"#{index} {request['stratum']}: {problem}")

    def one_pass(self, tracer_=None) -> None:
        """Decide every corpus instance once."""
        for index in range(len(self.corpus)):
            self.solve(index, tracer_)

    def warm_up(self) -> None:
        """Solve the first request of every stratum once, untimed and
        uncounted, so that lazy imports and allocator growth are paid
        before the timed passes."""
        firsts = {}
        for request in self.corpus:
            firsts.setdefault(request["stratum"], request)
        for request in firsts.values():
            solve_once(self.cli, request)

    def run_for(self, seconds: float) -> None:
        """Requests in corpus order, round and round, until ``seconds``
        have passed and every instance has been solved at least once."""
        started = time.perf_counter()
        made = 0
        while made < len(self.corpus) or time.perf_counter() - started < seconds:
            self.solve(made % len(self.corpus))
            made += 1

    def per_instance(self) -> list[float]:
        """Each instance's mean scaled latency, in corpus order."""
        samples: list[list[float]] = [[] for _ in self.corpus]
        for index, latency in zip(self.indices, speed.scaled(self.latencies, self.kernels)):
            samples[index].append(latency)
        return [statistics.fmean(s) for s in samples]


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _line(name: str, value: float, unit: str) -> str:
    return f"{name:32s} {value:.6g} {unit}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_efgc()
        corpus_path = make_corpus(args.workload, args.seed)
        setup_raw, setup_scaled = measure_setup(corpus_path)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    with open(corpus_path, encoding="utf-8") as handle:
        corpus = json.load(handle)

    loop = Loop(corpus)
    loop.warm_up()
    loop.run_for(args.seconds)
    raw = loop.latencies
    lat = loop.per_instance()
    e2e = {
        "instances_per_s": (len(lat) / sum(lat), "1/s"),
        "solve_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "solve_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "success_ratio": (1 - len(loop.failures) / loop.attempted, "ratio"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    unscaled = {
        "instances_per_s": (len(raw) / sum(raw), "1/s"),
        "solve_p50_ms": (percentile(raw, 50) * 1e3, "ms"),
        "solve_p90_ms": (percentile(raw, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_raw), "s"),
        "kernel_ms": (statistics.median(loop.kernels) * 1e3, "ms"),
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"backend {numeric_backend()}  python {platform.python_version()}  "
        f"nproc {len(os.sched_getaffinity(0))}"
    )
    print(
        f"corpus {len(corpus)} instances  sha256 {workloads.corpus_hash(corpus)}  "
        f"requests {len(raw)} ({len(raw) / len(corpus):.2f} passes)"
    )
    print(f"scaled to a speed kernel of {speed.REFERENCE_S * 1e3:g} ms:")
    for name, (value, unit) in e2e.items():
        print(_line(name, value, unit))
    print("as measured, unscaled:")
    for name, (value, unit) in unscaled.items():
        print(_line("raw." + name, value, unit))
    print(_line("fail_ratio", len(loop.failures) / loop.attempted, "ratio"))
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}

    if args.trace:
        with tracer.Tracer() as tr:
            loop.one_pass(tr)
        layer = tracer.layer_metrics(tr.spans)
        del layer["request.count"]
        traced = speed.scaled(loop.traced_latencies, loop.traced_kernels)
        layer["trace_overhead_ratio"] = len(traced) / sum(traced) / e2e["instances_per_s"][0]
        tracer.write_spans(tr.spans, os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.tsv"))
        metrics = {name: {"value": value, "unit": tracer.unit_of(name)} for name, value in layer.items()}
        for name, entry in metrics.items():
            print(_line(name, entry["value"], entry["unit"]))

    for problem in loop.failures[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not loop.failures,
                "attempted": loop.attempted,
                "failed": len(loop.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
