"""flagspectra benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload corpus-sweep --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; flagspectra is imported from its
`src/` directory.  Each request is one in-process call to
`flagspectra.cli.main(argv)` with `--output` pointing into a scratch
directory under `.perfbench/`.  The client sends its next request when the
previous one returns.  It serves whole rounds (the workload's unit batch,
see workloads.py), cycling through the seed's pool, and stops at the round
boundary nearest to `--seconds`.

`--trace 0` measures end to end and prints every end-to-end metric.  A
shared 2-core cloud host was seen to change speed by up to 2x within a
minute, with Python and numpy code slowing down together.  So
a fixed calibration kernel that does not touch flagspectra runs from a
timer every CAL_PERIOD_S while requests are served (see Sampler), and each
round's times are scaled by CAL_NOMINAL_S over the mean kernel time during
it: every time metric is in seconds on a host where the kernel takes
CAL_NOMINAL_S.  The raw times are on the report line.

`--trace 1` serves a fixed set of rounds, the first TRACE_ROUNDS of the
pool, whatever `--seconds` says, so every count and sum is a function of
the seed alone.  It runs every request twice, untraced and with every
public layer function wrapped (see layers.py), alternating which goes
first.  It prints the per-layer metrics and the traced/untraced time ratio.
It fails if tracing changed any decided output, or if a function the
workload design says a request kind reaches never fired.

Outputs are checked after the timed loop: exit code 0, no failed or error
record, and, for the pinned seeds in reference/, every record against the
stored reference (check.py).  The last stdout line is the result object;
the line before it reports the environment, failed_ratio and, where at
least ten samples lie beyond it, latency_p90_s.
"""

from __future__ import annotations

import time

CAL_REPS = 5
CAL_NOMINAL_S = 0.005


def calibration_kernel() -> None:
    """Fixed pure-Python work.

    On a shared 2-core host, request times of both the Jacobi eigensolver
    and the LP searches moved about in proportion to this kernel's time
    (log-log slope 1.1-1.2), while a kernel of small numpy calls swung
    further than either (slope 0.7) and over-corrected.
    """
    total, table = 0, {}
    for i in range(40_000):
        total += i * i
        table[i & 255] = total


def calibrate() -> list[float]:
    """CAL_REPS timings of the calibration kernel."""
    samples = []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        calibration_kernel()
        samples.append(time.perf_counter() - t0)
    return samples


# Set-up is timed from START; the calibration bursts just before it and just
# after it give the host's speed around it.
SETUP_BURST = calibrate()
START = time.perf_counter()

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402


import check  # noqa: E402
import layers  # noqa: E402
from dataclasses import dataclass  # noqa: E402

from workloads import WORKLOADS, Request  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 7
TRACE_ROUNDS = {"corpus-sweep": 2, "lp-search": 4}
CAL_PERIOD_S = 0.1
REFERENCE_DIR = os.path.join(HERE, "reference")

# Span names each request kind must reach; a name missing from a traced run
# means a rename or re-import slipped past the wrapper.
REACH = {
    "corpus": (
        "linalg.symmetric_eigenvalues",
        "linalg.integer_rank",
        "complexes.build_flag_complex",
        "complexes.coboundary_matrix",
        "spectral.hodge_laplacian",
        "spectral.betti_profile",
        "spectral.verify_eigenvalue_recursion",
        "spectral.verify_vanishing_threshold",
        "spectral.verify_facet_degree_bound",
        "graphs.laplacian_spectrum",
        "graphs.random_gnp",
        "graphs.complement",
        "graphs.cycle_graph",
        "graphs.turan_graph",
        "lp.solve_covering_lp",
        "domination.edge_incidence_representation",
        "domination.representation_value",
        "domination.best_representation_value",
        "domination.verify_gram_row_bound",
        "domination.verify_spectral_connectivity_bound",
        "domination.verify_representation_connectivity_bound",
        "hypergraphs.width",
        "hypergraphs.fractional_width",
        "hypergraphs.verify_fractional_width_condition",
        "hypergraphs.verify_integral_width_condition",
        "reports.records_to_json_lines",
        "cli.main",
        "corpus.gnp_corpus",
        "corpus.turan_corpus",
        "corpus.cycle_corpus",
        "corpus.family_corpus",
    ),
    "sdr": (
        "lp.solve_covering_lp",
        "hypergraphs.width",
        "hypergraphs.fractional_width",
        "hypergraphs.sdr_search",
        "hypergraphs.verify_fractional_width_condition",
        "hypergraphs.verify_integral_width_condition",
        "hypergraphs.compare_width_conditions",
        "reports.records_to_json_lines",
        "cli.main",
    ),
    "width": (
        "lp.solve_covering_lp",
        "hypergraphs.width",
        "hypergraphs.fractional_width",
        "domination.representation_value",
        "reports.records_to_json_lines",
        "cli.main",
    ),
    "domination": (
        "domination.domination_number",
        "domination.total_domination_number",
        "domination.independent_domination_number",
        "domination.fractional_strong_domination",
        "domination.edge_incidence_representation",
        "domination.representation_value",
        "domination.best_representation_value",
        "domination.verify_gram_row_bound",
        "domination.verify_spectral_connectivity_bound",
        "domination.verify_representation_connectivity_bound",
        "lp.solve_covering_lp",
        "graphs.laplacian_spectrum",
        "graphs.complement",
        "linalg.symmetric_eigenvalues",
        "complexes.build_flag_complex",
        "spectral.betti_profile",
        "reports.records_to_json_lines",
        "cli.main",
    ),
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("instances_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def tail_percentile(values: list[float], pct: int, beyond: int = 10) -> float | None:
    """The pct-th percentile (nearest rank), or None when fewer than `beyond` samples lie above it."""
    n = len(values)
    rank = max(1, -(-pct * n // 100))
    if n - rank < beyond:
        return None
    return sorted(values)[rank - 1]


def failed_ratio(problems_per_request: list[list[str]]) -> float:
    """Share of attempted requests with at least one problem."""
    if not problems_per_request:
        return 0.0
    return sum(1 for p in problems_per_request if p) / len(problems_per_request)


def slowdowns(round_samples: list[list[float]]) -> list[float]:
    """Per round: mean calibration time of the samples taken during it, over CAL_NOMINAL_S.

    The mean, because a round's time is the integral of the host's speed
    over it, and the samples are spread evenly in time.
    """
    return [statistics.fmean(samples) / CAL_NOMINAL_S for samples in round_samples]


class Sampler:
    """Times one run of the calibration kernel every CAL_PERIOD_S of wall time, from a SIGALRM timer.

    The kernel runs in the main thread between two bytecodes of whatever is
    being served, so the host's speed is sampled evenly through every
    request, however long.  `spent` adds up the kernel's time so that it
    can be taken out of the request it interrupted.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibration_kernel()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_text,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import flagspectra.cli

    if not os.path.abspath(flagspectra.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"flagspectra imported from {flagspectra.cli.__file__}, not from {src}")
    return flagspectra.cli


@dataclass
class Outcome:
    """One served request: its place in the run and in the pool, and what it left behind."""

    index: int
    slot: int
    request: Request
    path: str
    latency: float
    exit_code: int | None
    error: str | None


def call(cli, request, path):
    """One request: latency, exit code, and the traceback if main raised."""
    t0 = time.perf_counter()
    try:
        code, error = cli.main(list(request.argv) + ["--output", path]), None
    except Exception:  # the loop must go on; the failure is reported
        code, error = None, traceback.format_exc()
    return time.perf_counter() - t0, code, error


def serve(cli, rounds, workdir, seconds):
    """Closed loop with one client: whole rounds, cycling through the pool, for about `seconds`.

    Returns the outcomes, each round's outcomes, and the calibration
    samples taken during each round; latencies exclude the sampler's time.
    The loop stops where the median round so far says the run ends closest
    to `seconds`: it starts another round only if less than half of one
    would run past them.
    """
    offsets = [sum(len(r) for r in rounds[:k]) for k in range(len(rounds))]
    outcomes, round_outcomes, round_samples = [], [], []
    begin = time.perf_counter()
    with Sampler() as sampler:
        while True:
            k = len(round_outcomes) % len(rounds)
            first = len(sampler.samples)
            batch = []
            for slot, request in enumerate(rounds[k], start=offsets[k]):
                i = len(outcomes) + len(batch)
                path = os.path.join(workdir, f"out-{i}.jsonl")
                spent = sampler.spent
                latency, code, error = call(cli, request, path)
                batch.append(Outcome(i, slot, request, path, latency - (sampler.spent - spent), code, error))
            outcomes += batch
            round_outcomes.append(batch)
            round_samples.append(sampler.samples[first:])
            typical = statistics.median(sum(o.latency for o in b) for b in round_outcomes)
            if time.perf_counter() - begin + typical / 2 > seconds:
                return outcomes, round_outcomes, round_samples


def serve_traced(cli, rounds, workdir, tracer):
    """Every request of `rounds` untraced and traced, alternating which runs first.

    Returns the untraced outcomes and their traced twins.
    """
    plain, traced = [], []
    for slot, request in enumerate(r for batch in rounds for r in batch):
        pair = {}
        for mode in ("plain", "traced") if slot % 2 == 0 else ("traced", "plain"):
            path = os.path.join(workdir, f"{mode}-{slot}.jsonl")
            if mode == "traced":
                tracer.request = slot
                tracer.enable()
            try:
                pair[mode] = Outcome(slot, slot, request, path, *call(cli, request, path))
            finally:
                tracer.disable()
        plain.append(pair["plain"])
        traced.append(pair["traced"])
    return plain, traced


def load_reference(workload: str, seed: int):
    path = os.path.join(REFERENCE_DIR, f"{workload}.json.gz")
    if not os.path.exists(path):
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh).get(str(seed))


def examine(outcomes, workdir, reference):
    """Per-request problem lists and normalized records."""
    problems, records = [], []
    for out in outcomes:
        if out.error is not None:
            problems.append([f"raised: {out.error.strip().splitlines()[-1]}"])
            records.append([])
            continue
        try:
            with open(out.path, encoding="utf-8") as fh:
                recs = check.normalize(check.parse_records(fh.read()), workdir)
        except (OSError, ValueError) as exc:
            problems.append([f"unreadable output: {exc}"])
            records.append([])
            continue
        found = check.output_problems(out.exit_code, recs)
        if reference is not None and out.slot < len(reference):
            found += check.compare(reference[out.slot], recs)
        problems.append(found)
        records.append(recs)
    return problems, records


def report_problems(outcomes, problems) -> None:
    for out, found in zip(outcomes, problems):
        for line in found[:5]:
            sys.stderr.write(f"request {out.index} ({' '.join(out.request.argv)}): {line}\n")


def setup_seconds(args) -> list[tuple[float, list[float]]]:
    """Set-up seconds of fresh processes, each with its calibration bursts from just before and just after set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        seconds, bursts = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((seconds, bursts))
    return samples


def measure(args, cli, rounds, workdir, setup_s):
    setup_burst = calibrate()
    outcomes, round_outcomes, round_samples = serve(cli, rounds, workdir, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = load_reference(args.workload, args.seed)
    problems, _ = examine(outcomes, workdir, reference)
    report_problems(outcomes, problems)
    failed = {out.index for out, found in zip(outcomes, problems) if found}
    slow = slowdowns(round_samples)
    round_walls = [sum(o.latency for o in batch) for batch in round_outcomes]
    walls = [wall / f for wall, f in zip(round_walls, slow)]
    latencies = [o.latency / f for batch, f in zip(round_outcomes, slow) for o in batch]
    verified = [sum(o.request.instances for o in batch if o.index not in failed) for batch in round_outcomes]
    setups = [(setup_s, SETUP_BURST + setup_burst)] + setup_seconds(args)
    setup_slowdowns = [statistics.median(bursts) / CAL_NOMINAL_S for _, bursts in setups]
    values = {
        "setup_s": statistics.median(raw / f for (raw, _), f in zip(setups, setup_slowdowns)),
        "wall_s": statistics.median(walls),
        "instances_per_s": statistics.median(n / wall for n, wall in zip(verified, walls)),
        "latency_p50_s": statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "failed_ratio": failed_ratio(problems),
        "requests": len(outcomes),
        "raw": {
            "setup_s": statistics.median(raw for raw, _ in setups),
            "wall_s": statistics.median(round_walls),
            "latency_p50_s": statistics.median(o.latency for o in outcomes),
        },
        "round_walls_s": round_walls,
        "slowdowns": slow,
        "setup_samples_s": [raw for raw, _ in setups],
        "setup_slowdowns": setup_slowdowns,
        "samples": [[o.slot, o.latency] for o in outcomes],
        "latency_p50_by_kind_s": {
            kind: statistics.median(o.latency for o in outcomes if o.request.kind == kind)
            for kind in sorted({o.request.kind for o in outcomes})
        },
        "reference_checked": reference is not None,
    }
    p90 = tail_percentile(latencies, 90)
    if p90 is not None:
        extra["latency_p90_s"] = p90
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return outcomes, problems, metrics, extra, []


def measure_traced(args, cli, rounds, workdir):
    tracer = layers.Tracer()
    tracer.bind()
    plain, traced = serve_traced(cli, rounds[: TRACE_ROUNDS[args.workload]], workdir, tracer)
    reference = load_reference(args.workload, args.seed)
    plain_problems, plain_records = examine(plain, workdir, reference)
    problems, records = examine(traced, workdir, reference)
    report_problems(traced, problems)
    failures = []
    for out, before, after in zip(traced, plain_records, records):
        if check.decided_digest(before) != check.decided_digest(after):
            failures.append(f"request {out.index}: tracing changed the decided output")
    if any(plain_problems):
        failures.append("untraced twins of the traced requests had problems")
    failures += unreached(tracer, traced, args.workload)

    values = tracer.metrics()
    values["trace.overhead_ratio"] = sum(o.latency for o in traced) / sum(o.latency for o in plain)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit, _ in layers.PER_LAYER}
    write_spans(tracer, args)
    layer_self = {k[: -len(".self_s")]: v for k, v in values.items() if k.count(".") == 1 and k.endswith(".self_s")}
    total = sum(layer_self.values()) or 1.0
    extra = {
        "requests": len(traced),
        "layer_self_share": {k: v / total for k, v in sorted(layer_self.items(), key=lambda kv: -kv[1])},
        "reference_checked": reference is not None,
    }
    return traced, problems, metrics, extra, failures


def unreached(tracer, outcomes, workload) -> list[str]:
    """Names each traced request kind should reach but never did."""
    kind_of = {i: out.request.kind for i, out in enumerate(outcomes)}
    reached: dict[str, set] = {}
    for span in tracer.spans:
        reached.setdefault(kind_of[span.request], set()).add(span.name)
    missing = []
    for kind in sorted(set(kind_of.values())):
        for name in REACH[kind]:
            if name not in reached.get(kind, set()):
                missing.append(f"{workload}: {name} never called on '{kind}' requests")
    return missing


def write_spans(tracer, args) -> None:
    path = os.path.join(SCRATCH, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for i, span in enumerate(tracer.spans):
            fh.write(json.dumps([i, span.name, span.start, span.end, span.parent, span.request]) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="flagspectra benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_threads() -> None:
    """One BLAS/OpenMP thread; call before numpy is first imported.  Child processes inherit it."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    try:
        cli = import_program()
    except ImportError as exc:
        sys.stderr.write(f"cannot import flagspectra from {ROOT}/src: {exc}\n")
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        rounds = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps([setup_s, SETUP_BURST + calibrate()]))
            return 0
        if args.trace:
            outcomes, problems, metrics, extra, failures = measure_traced(args, cli, rounds, workdir)
        else:
            outcomes, problems, metrics, extra, failures = measure(args, cli, rounds, workdir, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in failures:
        sys.stderr.write(line + "\n")
    failed = sum(1 for found in problems if found)
    correct = failed == 0 and not failures
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": environment(), **extra}))
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
