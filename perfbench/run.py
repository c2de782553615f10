"""fermap benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload symbolic-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --table          # the ROADMAP item-1 baseline table

One process and one thread run one job at a time, back to back, repeating
the workload's job list ("a cycle") while another whole cycle still fits
in --seconds; at least one cycle always runs.  Every job's output is
checked.  The last line of stdout is one JSON object; the lines before it
repeat each metric by name with its unit.

Times are reported in reference seconds.  A SIGALRM handler times a fixed
pure-Python loop every 25 ms while jobs run, and each job's wall time is
rescaled by how fast that loop ran during the job (see PROBE_REFERENCE_S).
On a shared host a core can slow down by up to 2x for seconds at a time;
rescaled, the figures follow the program instead.  The raw wall
times are printed on the lines before the JSON.

--trace 0 reports the end-to-end metrics of an untraced run.  --trace 1
runs half the time untraced and half traced, then the ROADMAP rows the
job list lacks, and reports per-layer metrics from the traced half; the
difference between the halves is the tracing overhead.  Per-layer times
are wall seconds, and they and the counts are per cycle, so they do not
grow when a faster program fits more cycles into the run.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
# workloads.py imports fermap, whose import set-up times, so the names are repeated here
WORKLOADS = ("symbolic-large", "symbolic-sweep", "oracle-dense", "equiv-search")

SETUP_TRIALS = 4      # fresh-interpreter set-ups besides the measuring process's own
PROBE_EVERY_S = 0.025  # wall time between two reference-loop samples
PROBE_ITERATIONS = 3_000
NEAREST = 3           # samples averaged for a job that spans fewer
SETUP_PROBES = 20     # reference loops timed before and after each set-up
# One reference second is the time in which the reference loop runs
# 1 / PROBE_REFERENCE_S times: about one second of an undisturbed 2-vCPU
# Intel Xeon VM.  Times below are wall times rescaled by the loop's speed
# while they were measured, so that they follow the program rather than
# the neighbours sharing the host.
PROBE_REFERENCE_S = 225e-6
TAIL_BEYOND = 10      # jobs per cycle that the tail percentile leaves beyond it
FAILED = "FAILED"     # output digest entry of a failed job

LAYERS = {
    "pauli": ("multiply", "anticommutes", "apply_to_product_state", "format_pauli", "parse_pauli"),
    "gf2": ("invert", "ufpr_sets", "mat_vec", "mat_mul"),
    "mapping": ("validate", "vacuum_state", "fock_state", "transform_ladder_term", "format_mapping", "parse_mapping"),
    "encoding": ("majoranas_of_affine", "detect_classical", "tableau_of_affine", "affine_to_linear"),
    "ttree": ("canonical_mapping", "tree_matrix", "pair_for_vacuum", "braided_real_pairing", "revacuum",
              "format_tree", "parse_tree"),
    "equiv": ("equivalent", "fingerprint", "apply_symmetries", "two_mode_census"),
    "oracle": ("check_car", "verify_fock_basis", "verify_linear", "verify_affine", "dense_vacuum"),
    "cli": ("run.known", "run.verify", "run.tree-mapping", "run.tree-matrix", "run.transform", "run.equivalent"),
}

# ROADMAP item 1 baseline rows: (metric name, layer / run, size)
ROWS = (
    ("item1.encoding.detect_classical.n64", "encoding.detect_classical", "n = 64"),
    ("item1.encoding.detect_classical.n128", "encoding.detect_classical", "n = 128"),
    ("item1.encoding.majoranas_of_affine.n128", "encoding.majoranas_of_affine", "n = 128"),
    ("item1.encoding.majoranas_of_affine.n256", "encoding.majoranas_of_affine", "n = 256"),
    ("item1.ttree.tree_matrix.n1000", "ttree.tree_matrix (random tree)", "n = 1000"),
    ("item1.oracle.check_car.jw8", "oracle.check_car (JW)", "n = 8"),
    ("item1.oracle.check_car.jw10", "oracle.check_car (JW)", "n = 10"),
    ("item1.oracle.verify_fock_basis.jw10", "oracle.verify_fock_basis (JW)", "n = 10"),
    ("item1.equiv.equivalent.jw_rev5", "equiv.equivalent (JW vs qubit-reversed JW)", "n = 5"),
    ("item1.cli.verify_oracle.jw10", "CLI verify --oracle", "jw n=10"),
    ("item1.cli.verify_oracle.sierpinski13", "CLI verify --oracle", "sierpinski n=13"),
)

E2E_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "norm_time": "1",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "passed_frac": "1",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, fns in LAYERS.items():
        for fn in fns:
            units[f"{module}.{fn}.busy_s"] = "s"
            units[f"{module}.{fn}.calls"] = "count"
        units[f"{module}.busy_s"] = "s"
        units[f"{module}.failed"] = "count"
    units.update({
        "equiv.decided_ratio": "1",
        "equiv.witness_ops": "count",
        "oracle.bytes_computed": "B",
        "oracle.bytes_per_s": "B/s",
    })
    units.update({name: "s" for name, _, _ in ROWS})
    units.update({"ref_loop_ms": "ms", "trace.overhead_frac": "1"})
    return units


# -- set-up -------------------------------------------------------------------------

def setup(workload: str, seed: int, workdir: Path):
    """Import fermap (numpy included) and generate the workload's inputs.

    Returns the time taken, in reference seconds, and the workload."""
    refs = [reference_loop() for _ in range(SETUP_PROBES)]
    start = perf_counter()
    import fermap.cli  # noqa: F401  the CLI pulls in every module, numpy via the oracle
    import workloads

    wl = workloads.build(workload, seed, workdir)
    seconds = perf_counter() - start
    refs += [reference_loop() for _ in range(SETUP_PROBES)]
    return seconds * PROBE_REFERENCE_S / statistics.fmean(refs), wl


def setup_trial_seconds(workload: str, seed: int, workdir: Path) -> float:
    """One set-up in a fresh interpreter, so the import is paid again."""
    trial_dir = workdir / "trial"
    trial_dir.mkdir()
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
             "--setup-trial", str(trial_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
    finally:
        shutil.rmtree(trial_dir, ignore_errors=True)
    return float(proc.stdout.strip().splitlines()[-1])


# -- measurement ----------------------------------------------------------------------

def reference_loop() -> float:
    """Time of a fixed pure-Python loop: the machine's speed right now."""
    start = perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


class SpeedProbe:
    """Times a fixed pure-Python loop every PROBE_EVERY_S of wall time, from a
    SIGALRM handler, while a job runs.

    On a shared host the speed of a core can swing by 2x within a second,
    and a reference loop run between jobs cannot see what happens during a
    job of several seconds.  The handler runs between bytecodes, so it also
    samples inside long library calls; its cost (about 1% of job time) is
    the same on every commit.
    """

    def __init__(self):
        self.times: list[float] = []     # when each sample started
        self.samples: list[float] = []   # how long the loop took
        self.active = False

    def _tick(self, signum, frame):
        if self.active:
            self.times.append(perf_counter())
            self.samples.append(reference_loop())

    def around(self, start: float, end: float) -> float:
        """Mean loop time during [start, end], or over the NEAREST samples
        closest to it when fewer fell inside.

        A job shorter than a few sampling intervals sees few samples, and
        the machine's speed changes little within so short a stretch."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < NEAREST:
            mid = (start + end) / 2
            window = range(max(0, lo - NEAREST), min(len(self.times), hi + NEAREST))
            near = sorted(window, key=lambda k: abs(self.times[k] - mid))[:NEAREST]
            return statistics.fmean(self.samples[k] for k in near)
        return statistics.fmean(self.samples[lo:hi])

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Cycle:
    """One pass over the job list."""

    def __init__(self):
        self.latencies = array("d")        # seconds; inf for a failed job
        self.refs = array("d")             # reference-loop time during each job
        self.samples = array("d")          # every reference-loop sample of the cycle
        self.busy = 0.0                    # summed job latencies, failed jobs included
        self.passed = 0
        self.wrong: list[str] = []
        self.outputs = hashlib.sha256()    # every job's id and output text, in order
        self.job_outputs: list[tuple[str, str]] | None = None  # kept for the first cycle only

    @property
    def norm(self) -> float:
        """Summed job latency in units of the mean reference-loop time.

        Samples fall evenly in time while jobs run, so their mean weighs
        each stretch of the cycle by its length.  (Dividing job by job
        would weigh noisy samples through 1/x and bias the sum upward.)"""
        return self.busy / statistics.fmean(self.samples)

    @property
    def digest(self) -> str:
        return self.outputs.hexdigest()

    def output(self, jid: str, text: str | None) -> None:
        """Record a job's output text, or None for a failed job."""
        text = FAILED if text is None else hashlib.sha256(text.encode()).hexdigest()
        self.outputs.update(f"{jid}\0{text}\0".encode())
        if self.job_outputs is not None:
            self.job_outputs.append((jid, text))


def run_jobs(jobs, tracer, probe: SpeedProbe, log=None, keep_outputs=False) -> Cycle:
    gc.collect()
    cyc = Cycle()
    if keep_outputs:
        cyc.job_outputs = []
    ctx: dict = {}
    spans = []
    first_sample = len(probe.samples)
    for job in jobs:
        tracer.job = job.id
        probe.active = True
        start = perf_counter()
        try:
            out = job.run(tracer, ctx)
            error = None
        except Exception as exc:  # a job that raises fails; the run goes on
            error = f"raised {type(exc).__name__}: {exc}"
        end = perf_counter()
        probe.active = False
        spans.append((start, end))
        cyc.busy += end - start
        if error is None:
            ctx[job.id] = out
            try:
                error = job.check(out, ctx)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            if error is None:
                cyc.passed += 1
                cyc.latencies.append(end - start)
                cyc.output(job.id, job.digest(out))
                continue
            cyc.wrong.append(f"{job.id} [{job.layer}]: {error}")
            tracer.count(f"wrong.{job.layer.split('.')[0]}")
        elif log is not None:
            log.append(f"{job.id}: {error}")
        cyc.latencies.append(math.inf)
        cyc.output(job.id, None)
    cyc.refs.extend(probe.around(start, end) for start, end in spans)
    cyc.samples.extend(probe.samples[first_sample:])
    del probe.samples[first_sample:], probe.times[first_sample:]
    return cyc


def measure(jobs, tracer, probe, seconds: float, log) -> list[Cycle]:
    """Whole cycles while one more is expected to fit in ``seconds``; at least one."""
    cycles = []
    start = perf_counter()
    while True:
        cycles.append(run_jobs(jobs, tracer, probe, log, keep_outputs=not cycles))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(cycles) > seconds:
            return cycles


def nearest_rank(sorted_values, pct: float) -> float:
    k = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(jobs_per_cycle: int) -> float:
    """Highest percentile (to 0.1) leaving TAIL_BEYOND jobs of one cycle beyond it."""
    return math.floor(1000 * (jobs_per_cycle - TAIL_BEYOND) / jobs_per_cycle) / 10


def cap_ms(seconds: float) -> float:
    return 1e12 if math.isinf(seconds) else seconds * 1e3


def end_to_end(cycles, jobs_per_cycle, setup_s, peak_rss_mb) -> tuple[dict, list[str]]:
    """End-to-end metrics; times are in reference seconds (PROBE_REFERENCE_S).

    Each job's latency is scaled by PROBE_REFERENCE_S / (reference-loop time
    during the job), each cycle's summed latency by PROBE_REFERENCE_S / (mean
    reference-loop time of the cycle).  The median is taken as the mean of
    the latencies from the 45th to the 55th percentile, which a single
    unlucky sample moves less.  The unscaled figures are printed beside them.
    """
    lat = sorted(x * PROBE_REFERENCE_S / r for c in cycles for x, r in zip(c.latencies, c.refs))
    raw = sorted(x for c in cycles for x in c.latencies)
    passed = sum(c.passed for c in cycles)
    busy = sum(c.busy for c in cycles)
    pct = tail_percentile(jobs_per_cycle)
    values = {
        "setup_s": setup_s,
        "jobs_per_s": passed / (sum(c.norm for c in cycles) * PROBE_REFERENCE_S),
        "norm_time": statistics.median(c.norm for c in cycles),
        "job_p50_ms": cap_ms(statistics.fmean(lat[len(lat) * 45 // 100: len(lat) * 55 // 100 + 1])),
        "job_tail_ms": cap_ms(nearest_rank(lat, pct)),
        "peak_rss_mb": peak_rss_mb,
        "passed_frac": passed / len(lat),
    }
    refs = [r for c in cycles for r in c.samples]
    notes = [
        f"job_tail_ms is p{pct:g} of {len(lat)} job latencies ({len(cycles)} cycles of {jobs_per_cycle} jobs)",
        f"ref_loop_ms {statistics.median(refs) * 1e3:.5f} ms (median of {len(refs)} samples; "
        f"reference {PROBE_REFERENCE_S * 1e3:g} ms)",
        f"unscaled wall time: jobs_per_s {passed / busy:.6g} job_p50_ms {cap_ms(nearest_rank(raw, 50)):.6g} "
        f"job_tail_ms {cap_ms(nearest_rank(raw, pct)):.6g}",
        f"failed_frac {1 - values['passed_frac']:.6g} ({len(lat) - passed} of {len(lat)} jobs)",
    ]
    return values, notes


def per_layer(tracer, traced, untraced, appendix_from: int) -> dict:
    n_cycles = len(traced)
    cycle_spans = tracer.spans[:appendix_from]
    values = {name: 0.0 for name in per_layer_units()}
    for span in cycle_spans:
        module = span.layer.split(".")[0]
        values[f"{span.layer}.busy_s"] += span.seconds / n_cycles
        values[f"{span.layer}.calls"] += span.calls / n_cycles
        values[f"{module}.busy_s"] += span.seconds / n_cycles
        values[f"{module}.failed"] += span.failed / n_cycles
    for module in LAYERS:
        values[f"{module}.failed"] += tracer.counts.get(f"wrong.{module}", 0) / n_cycles
    attempts = values["equiv.equivalent.calls"] * n_cycles
    values["equiv.decided_ratio"] = tracer.counts.get("equiv.decided", 0) / attempts if attempts else 0.0
    values["equiv.witness_ops"] = tracer.counts.get("equiv.witness_ops", 0) / n_cycles
    dense = [s for s in cycle_spans if s.nbytes]
    values["oracle.bytes_computed"] = sum(s.nbytes for s in dense) / n_cycles
    dense_s = sum(s.seconds for s in dense)
    values["oracle.bytes_per_s"] = sum(s.nbytes for s in dense) / dense_s if dense_s else 0.0
    for name, _, _ in ROWS:
        hits = [s.seconds for s in tracer.spans if s.row == name]
        values[name] = statistics.fmean(hits) if hits else 0.0
    refs = [r for c in traced + untraced for r in c.samples]
    values["ref_loop_ms"] = statistics.median(refs) * 1e3
    norm_traced = statistics.median(c.norm for c in traced)
    norm_untraced = statistics.median(c.norm for c in untraced)
    values["trace.overhead_frac"] = norm_traced / norm_untraced - 1
    return values


# -- output digests ---------------------------------------------------------------------

def digest_of(cycle: Cycle, excluded=()) -> str:
    h = hashlib.sha256()
    for jid, text in cycle.job_outputs:
        if jid not in excluded:
            h.update(f"{jid}\0{text}\0".encode())
    return h.hexdigest()


def digest_problems(workload: str, seed: int, cycles) -> list[str]:
    """Outputs must repeat across cycles and match the recorded digest, if any."""
    problems = [f"cycle {k} outputs differ from cycle 1"
                for k, c in enumerate(cycles[1:], start=2) if c.digest != cycles[0].digest]
    recorded = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed)) if DIGESTS.exists() else None
    if recorded is not None and digest_of(cycles[0], set(recorded["excluded"])) != recorded["sha256"]:
        problems.append("outputs differ from the digest recorded for this workload and seed")
    return problems


def record_digest(workload: str, seed: int, cycle: Cycle) -> None:
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    failed = sorted(jid for jid, text in cycle.job_outputs if text == FAILED)
    data.setdefault(workload, {})[str(seed)] = {"sha256": digest_of(cycle, set(failed)), "excluded": failed}
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# -- entry points --------------------------------------------------------------------------

def print_metrics(values: dict, units: dict) -> dict:
    metrics = {}
    for name, unit in units.items():
        print(f"{name} {values[name]!r} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def run_benchmark(args, workdir: Path) -> int:
    from spans import Tracer

    setup_main, wl = setup(args.workload, args.seed, workdir)
    jobs_per_cycle = len(wl.jobs)
    log: list[str] = []
    if args.trace:
        tracer = Tracer(True)
        with SpeedProbe() as probe:
            untraced = measure(wl.jobs, Tracer(False), probe, args.seconds / 2, log)
            traced = measure(wl.jobs, tracer, probe, args.seconds / 2, log)
            appendix_from = len(tracer.spans)
            appendix = run_jobs(wl.appendix, tracer, probe, log)
        all_cycles = untraced + traced + [appendix]
        values = per_layer(tracer, traced, untraced, appendix_from)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        # later traced cycles repeat the first one; keep the file small
        per_cycle = appendix_from // len(traced)
        tracer.spans = tracer.spans[:per_cycle] + tracer.spans[appendix_from:]
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
        units = per_layer_units()
        measured = untraced
    else:
        with SpeedProbe() as probe:
            measured = all_cycles = measure(wl.jobs, Tracer(False), probe, args.seconds, log)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s = statistics.median(
            [setup_main] + [setup_trial_seconds(args.workload, args.seed, workdir) for _ in range(SETUP_TRIALS)]
        )
        values, notes = end_to_end(measured, jobs_per_cycle, setup_s, peak_rss_mb)
        for line in notes:
            print(line)
        units = E2E_UNITS

    wrong = [w for c in all_cycles for w in c.wrong]
    problems = wrong + digest_problems(args.workload, args.seed, measured)
    for line in log + problems:
        print(f"FAILED {line}")
    attempted = sum(len(c.latencies) for c in all_cycles)
    failed = sum(len(c.latencies) - c.passed for c in all_cycles)
    metrics = print_metrics(values, units)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def print_table(seed: int, workdir: Path) -> int:
    """Regenerate ROADMAP item 1's baseline table: one traced cycle per workload."""
    from spans import Tracer

    tracer = Tracer(True)
    for workload in ("symbolic-large", "oracle-dense", "equiv-search"):
        _, wl = setup(workload, seed, workdir)
        with SpeedProbe() as probe:
            run_jobs(wl.jobs, tracer, probe)
            run_jobs(wl.appendix, tracer, probe)
    print("| layer / run | size | now |")
    print("|---|---|---|")
    for name, label, size in ROWS:
        hits = [s.seconds for s in tracer.spans if s.row == name]
        print(f"| `{label}` | {size} | {statistics.fmean(hits):.3g} s |")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", action="store_true", help="print the ROADMAP item-1 baseline table")
    parser.add_argument("--record-digests", action="store_true",
                        help="record the output digest of one cycle for --workload and --seed")
    parser.add_argument("--setup-trial", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.table and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "fermap" / "__init__.py").is_file():
        print(f"perfbench: no fermap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["FERMAP_SEED"] = "0"  # the CLI's sampling seed; outputs must not depend on the caller's

    if args.setup_trial:
        print(setup(args.workload, args.seed, Path(args.setup_trial))[0])
        return 0

    workdir = BENCH / "_work" / f"{os.getpid()}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        if args.table:
            return print_table(args.seed, workdir)
        if args.record_digests:
            from spans import Tracer

            _, wl = setup(args.workload, args.seed, workdir)
            with SpeedProbe() as probe:
                cycle = run_jobs(wl.jobs, Tracer(False), probe, keep_outputs=True)
            record_digest(args.workload, args.seed, cycle)
            return 0
        return run_benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (BENCH / "_work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
