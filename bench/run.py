#!/usr/bin/env python3
"""spinbeam benchmark: seeded workloads driven through the CLI in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --compare RESULTS_A RESULTS_B
    python3 bench/run.py --write-snapshot --workload NAME

One client sends one request at a time (a closed loop): CLI requests call
``spinbeam.cli.main(argv)`` in-process with ``--out`` to a file, and
``spin_expectation``, which has no CLI, is called through the library.
A run sends whole passes over the workload's seeded deck until
``--seconds`` of wall time have gone, checks every output with the
correctness gate, writes a result file under ``bench/results/`` and
prints, as its last line, one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
Timings are calibrated to a reference machine speed by the probe in
``speed.py``.  Numpy/BLAS threads are capped at the number of usable cores.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SNAPSHOTS = BENCH / "snapshots"
WORK = BENCH / "work"

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
_SETUP_REPEATS = 9
# a fresh interpreter times its own import, then probes its own speed
_SETUP_CODE = """
import statistics, sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import spinbeam, spinbeam.cli
took = time.perf_counter() - t
sys.path.insert(0, sys.argv[2])
import speed
for _ in range(3):
    speed._probe_work()
probe = speed.Probe()
print(repr(took), repr(statistics.median(probe.sample() for _ in range(7))))
"""
# the tail latency is the highest percentile with at least this many correct
# requests beyond it
_TAIL_BEYOND = 10

KNOWN_DEFECTS = [
    "A finite quadrature evaluation at z = 100 z0, k w0 = 100, r = 0.5 w0 never returns "
    "(its error estimate stalls above the tolerance); no workload contains it, because a "
    "run containing it would not end.",
    "charge_boundary and charge_integral raise IllConvergedLimitError from about 3 z0 on; "
    "texture-integrals keeps its charge planes within 2 z0 so that no request fails.",
]


def _cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in _THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _import_program():
    """Import spinbeam from this checkout's src/, or exit without a result."""
    if not (SRC / "spinbeam" / "__init__.py").is_file():
        sys.exit(f"bench: no spinbeam sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spinbeam
    import spinbeam.cli

    if Path(spinbeam.__file__).resolve().parent != (SRC / "spinbeam").resolve():
        sys.exit(f"bench: imported spinbeam from {spinbeam.__file__}, not from {SRC}")
    return spinbeam


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return (proc.stdout.strip() or None) if proc.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict[str, int | None]:
    out = {}
    for label, name in (("l1d", "SC_LEVEL1_DCACHE_SIZE"), ("l2", "SC_LEVEL2_CACHE_SIZE"),
                        ("l3", "SC_LEVEL3_CACHE_SIZE")):
        try:
            out[label] = os.sysconf(name) or None
        except (ValueError, OSError):
            out[label] = None
    return out


def provenance(seed: int, nproc: int) -> dict:
    import numpy

    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "cache_bytes": _cache_sizes(),
        "thread_caps": {var: os.environ.get(var) for var in _THREAD_VARS},
        "platform": platform.platform(),
        "known_defects": KNOWN_DEFECTS,
    }


def measure_setup() -> float:
    """Median time for a fresh interpreter to import spinbeam and spinbeam.cli,
    each calibrated by the probes that interpreter takes right after it."""
    import speed

    times = []
    for _ in range(_SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        took, probe = (float(v) for v in proc.stdout.split())
        times.append(took * speed.REFERENCE_S / probe)
    return statistics.median(times)


class Runner:
    """Sends one workload's requests and checks their outputs.

    Every output is checked against the invariants as it arrives, and
    against the first pass's output of the same request, which it must
    repeat.  The snapshot, when there is one, is loaded and compared with
    the first pass's outputs only after the timed run, so that it stays out
    of the run's peak memory.
    """

    def __init__(self, deck, work_dir: Path, tracer=None, probe=None):
        import gate
        import spinbeam.cli
        import spinbeam.polarization
        import workloads

        self.gate = gate
        self.workloads = workloads
        self.cli = spinbeam.cli
        self.polarization = spinbeam.polarization
        self.deck = deck
        self.work_dir = work_dir
        self.tracer = tracer
        self.probe = probe
        self.main = tracer.wrap("cli.main", self.cli.main) if tracer else self.cli.main
        self.sent: list[int] = []  # deck index of each request sent
        self.spans: list[tuple[float, float]] = []  # wall-clock start and end
        self.errors: list[str | None] = []
        self.first: dict[int, tuple[str, object]] = {}  # digest and kept output, by deck index

    def _call(self, index: int, req):
        """Send one request; return (start, end, output text or value, error).

        Any exception fails the request, not the run: spinbeam.cli.main turns
        a SpinBeamError into exit code 1, and spin_expectation raises it.
        """
        if req.kind == "spin_expectation":
            p = req.params
            start = time.perf_counter()
            try:
                spec = self.cli.parse_beam(p["beam"])
                value = self.polarization.spin_expectation(spec, z=p["z"], abs_tol=p["abs_tol"])
            except Exception as exc:
                return start, time.perf_counter(), None, f"{type(exc).__name__}: {exc}"
            return start, time.perf_counter(), [float(v) for v in value], None
        out = self._out_path(index)
        argv = [req.kind, *req.args, "--out", str(out)]
        if req.config is not None:
            argv += ["--config", str(self.workloads.config_path(self.work_dir, index))]
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            code = self.main(argv)
        except Exception as exc:
            return start, time.perf_counter(), None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if code != 0:
            return start, end, None, f"exit code {code}"
        return start, end, out.read_text(encoding="utf-8"), None

    def _out_path(self, index: int) -> Path:
        return self.work_dir / f"out{index:03d}.txt"

    def _parsed(self, req, output):
        return output if req.kind == "spin_expectation" else \
            self.gate.parse_output(req.kind, output)

    def run_request(self, index: int, req) -> None:
        tracer = self.tracer
        if self.probe is not None:
            self.probe.sample()
        if tracer is None:
            start, end, output, error = self._call(index, req)
        else:
            tracer.begin_request(len(self.sent))
            tracer.open(tracer.name_id("request"))
            try:
                start, end, output, error = self._call(index, req)
            finally:
                tracer.close()
        if error is None:
            try:
                error = self._check(index, req, output)
            except (self.gate.GateError, ValueError, KeyError, TypeError) as exc:
                error = f"gate: {exc}"
        if tracer is not None and isinstance(output, str):
            tracer.counts["cli.bytes_out"] += len(output.encode())
            if req.points:
                tracer.counts["cli.rows"] += output.count("\n") - 1
        self.spans.append((start, end))
        self.errors.append(error)
        self.sent.append(index)

    def _check(self, index: int, req, output) -> str | None:
        """Check one output against the invariants and the first pass."""
        parsed = self._parsed(req, output)
        self.gate.check(req, parsed, None)
        digest = hashlib.sha256(json.dumps(parsed).encode()).hexdigest()
        if index not in self.first:
            if req.kind == "spin_expectation":
                kept = parsed
            else:
                kept = self.work_dir / f"first{index:03d}.txt"
                self._out_path(index).replace(kept)
            self.first[index] = (digest, kept)
        elif digest != self.first[index][0]:
            return "output differs from the first pass's"
        return None

    def run(self, seconds: float) -> int:
        """Whole passes over the deck until ``seconds`` of wall time have gone."""
        passes = 0
        t0 = time.perf_counter()
        while passes == 0 or time.perf_counter() - t0 < seconds:
            for index, req in enumerate(self.deck):
                self.run_request(index, req)
            passes += 1
        if self.probe is not None:
            self.probe.sample()
        return passes

    def check_snapshot(self, snapshot: list) -> None:
        """Compare the first pass's outputs with the parent commit's snapshot;
        a mismatch fails every request sent with that deck entry."""
        for index, (_, kept) in self.first.items():
            req = self.deck[index]
            output = kept if req.kind == "spin_expectation" else kept.read_text(encoding="utf-8")
            try:
                self.gate.check(req, self._parsed(req, output), snapshot[index])
            except (self.gate.GateError, ValueError, KeyError, TypeError) as exc:
                for k, sent in enumerate(self.sent):
                    if sent == index and self.errors[k] is None:
                        self.errors[k] = f"snapshot: {exc}"

    @property
    def correct(self) -> list[bool]:
        return [error is None for error in self.errors]

    def failures(self) -> list[str]:
        return [f"request {k} (deck {self.sent[k]}, {self.deck[self.sent[k]].kind}): {error}"
                for k, error in enumerate(self.errors) if error is not None]

    def outputs(self) -> list:
        """One pass's parsed outputs, for a snapshot."""
        result = []
        for index, req in enumerate(self.deck):
            _, _, output, error = self._call(index, req)
            if error is not None:
                raise SystemExit(f"bench: request {index} failed: {error}")
            parsed = self._parsed(req, output)
            self.gate.check(req, parsed, None)
            result.append(parsed)
        return result


def _tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with _TAIL_BEYOND requests beyond it, and that
    percentile; a run with too few requests reports its slowest request."""
    timed = sorted(latencies)
    n = len(timed)
    if n >= 2 * _TAIL_BEYOND:
        index = n - _TAIL_BEYOND - 1
        return timed[index], 100.0 * (index + 1) / n
    return timed[-1], 100.0


def end_to_end_metrics(runner: Runner, probe, setup_s: float, peak_rss_mb: float
                       ) -> tuple[dict, dict]:
    """The end-to-end metrics, and the figures recorded beside them.

    Latencies are calibrated to the reference machine speed (see speed.py);
    the raw wall-clock figures are recorded beside them.
    """
    correct = runner.correct
    raw = [t1 - t0 for t0, t1 in runner.spans]
    cal = [probe.calibrated(t0, t1) for t0, t1 in runner.spans]
    good = [t for t, ok in zip(cal, correct) if ok] or cal
    good_raw = [t for t, ok in zip(raw, correct) if ok] or raw
    tail, percentile = _tail(good)
    points = sum(runner.deck[i].points for i, ok in zip(runner.sent, correct) if ok)
    metrics = {
        "setup_s": setup_s,
        "requests_per_s": correct.count(True) / sum(cal),
        "latency_p50_s": statistics.median(good),
        "latency_tail_s": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    beside = {
        "points_per_s": points / sum(cal),
        "failed_fraction": correct.count(False) / len(correct),
        "latency_tail_percentile": percentile,
        "latency_tail_samples": len(good),
        "raw_requests_per_s": correct.count(True) / sum(raw),
        "raw_latency_p50_s": statistics.median(good_raw),
        "raw_latency_tail_s": _tail(good_raw)[0],
        "probe_median_s": statistics.median(probe.took),
    }
    return metrics, beside


def _snapshot_path(workload: str, seed: int) -> Path:
    return SNAPSHOTS / f"{workload}-seed{seed}.json.gz"


def _load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args) -> int:
    import workloads

    nproc = _cap_threads()
    _import_program()
    deck = workloads.make_deck(args.workload, args.seed)
    work_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    workloads.write_configs(deck, work_dir)
    try:
        if args.write_snapshot:
            return write_snapshot(args, deck, work_dir, nproc)
        return measure(args, deck, work_dir, nproc)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def write_snapshot(args, deck, work_dir: Path, nproc: int) -> int:
    """Record one pass of outputs, checked by the invariants, for this seed."""
    path = _snapshot_path(args.workload, args.seed)
    payload = {"workload": args.workload, "seed": args.seed,
               "provenance": provenance(args.seed, nproc),
               "outputs": Runner(deck, work_dir).outputs()}
    SNAPSHOTS.mkdir(exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(payload, fh)
    print(f"wrote {path}")
    return 0


def measure(args, deck, work_dir: Path, nproc: int) -> int:
    import spinbeam.cli
    import speed

    setup_s = measure_setup() if not args.trace else None
    # first calls pay one-off costs (numpy dispatch, file system) outside the timing
    spinbeam.cli.main(["figure", "fig2", "a", "--out", str(work_dir / "warmup.txt")])

    # a traced run takes probes only between requests, outside every span
    probe = speed.Probe()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    else:
        probe.start()
    runner = Runner(deck, work_dir, tracer, probe)
    t0 = time.perf_counter()
    try:
        passes = runner.run(args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
        probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    snapshot_file = _snapshot_path(args.workload, args.seed)
    snapshot_checked = snapshot_file.is_file()
    if snapshot_checked:
        with gzip.open(snapshot_file, "rt", encoding="utf-8") as fh:
            runner.check_snapshot(json.load(fh)["outputs"])

    spec = _load_benchmark()
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    out_dir = Path(args.results) / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    correct = runner.correct
    if tracer is not None:
        metrics = tracer.layer_metrics(passes)
        metrics["trace.requests_per_s"] = correct.count(True) / sum(
            probe.calibrated(t0, t1) for t0, t1 in runner.spans)
        tracer.save(f"{stem}.spans.npz", t0)
        declared = spec["per_layer"]
        beside = {"spans": len(tracer.start)}
    else:
        metrics, beside = end_to_end_metrics(runner, probe, setup_s, peak_rss_mb)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    missing = set(units) ^ set(metrics)
    if missing:
        raise SystemExit(f"bench: metrics and BENCHMARK.json disagree on {sorted(missing)}")
    metrics = {name: metrics[name] for name in units}

    attempted = len(correct)
    failed = correct.count(False)
    failures = runner.failures()
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": passes, "deck_size": len(deck),
        "attempted": attempted, "failed": failed, "correct": failed == 0,
        "snapshot_checked": snapshot_checked,
        "metrics": metrics, "beside": beside, "failures": failures,
        # deck index, wall-clock and calibrated latency, correct
        "requests": [[i, t1 - t0, probe.calibrated(t0, t1), ok]
                     for i, (t0, t1), ok in zip(runner.sent, runner.spans, correct)],
        "provenance": provenance(args.seed, nproc),
    }
    Path(f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {passes}"
          f"  requests {attempted}  failed {failed}  snapshot {'yes' if snapshot_checked else 'no'}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    units_beside = {"points_per_s": "1/s", "failed_fraction": "ratio",
                    "latency_tail_percentile": "%", "latency_tail_samples": "count",
                    "raw_requests_per_s": "1/s", "raw_latency_p50_s": "s",
                    "raw_latency_tail_s": "s", "probe_median_s": "s", "spans": "count"}
    for name, value in {**metrics, **beside}.items():
        print(f"  {name:40s} {value:>16.6g} {units.get(name) or units_beside[name]}")
    print(f"  result file {stem}.json")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main() -> int:
    sys.path.insert(0, str(BENCH))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(RESULTS), help="directory for result files")
    parser.add_argument("--write-snapshot", action="store_true",
                        help="record one pass of outputs as the snapshot for this seed")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two directories of result files")
    args = parser.parse_args()
    if args.compare:
        import compare

        compare.main(*args.compare, _load_benchmark())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
