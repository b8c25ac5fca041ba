"""The benchmark harness's own calculations and its consistency with BENCHMARK.json."""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import Span  # noqa: E402


def load_json(*parts):
    with open(os.path.join(*parts), encoding="utf-8") as fh:
        return json.load(fh)


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        Span("cli.main", 0.0, 10.0, None),
        Span("spectral.betti_profile", 1.0, 6.0, 0),
        Span("linalg.symmetric_eigenvalues", 2.0, 5.0, 1),
        Span("linalg.integer_rank", 7.0, 8.0, 0),
    ]
    assert layers.self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        Span("a", 0.0, 4.0, None),
        Span("b", 1.0, 3.0, 0),
        Span("c", 2.0, 5.0, 0),  # overlaps b and runs past the parent
    ]
    assert layers.self_times(spans)[0] == 1.0


def test_self_time_removes_tracer_bookkeeping():
    spans = [Span("a", 0.0, 4.0, None, tare=0.5), Span("b", 1.0, 2.0, 0)]
    assert layers.self_times(spans) == [2.5, 1.0]


# -- percentile rule, distinct ratio, failed ratio ----------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert run.tail_percentile([float(i) for i in range(99)], 90) is None
    values = [float(i) for i in range(100, 0, -1)]
    assert run.tail_percentile(values, 90) == 90.0
    assert run.tail_percentile(values[:15], 50) is None
    assert run.tail_percentile(values[:15], 50, beyond=5) == 93.0
    assert run.tail_percentile([1.0, 2.0], 50, beyond=1) == 1.0


def test_distinct_ratio():
    assert layers.distinct_ratio(["a", "b", "a", "a"]) == 0.5
    assert layers.distinct_ratio(["x"]) == 1.0
    assert layers.distinct_ratio([]) == 0.0


def test_failed_ratio_counts_requests_with_any_problem():
    assert run.failed_ratio([[], ["exit code 1"], [], ["a", "b"]]) == 0.5
    assert run.failed_ratio([[], []]) == 0.0
    assert run.failed_ratio([]) == 0.0


def test_slowdowns_average_the_samples_taken_during_each_round():
    nominal = run.CAL_NOMINAL_S
    assert run.slowdowns([[nominal] * 3, [nominal, 2 * nominal, 6 * nominal]]) == [1.0, 3.0]


def test_sampler_times_the_kernel_from_a_timer_and_stops():
    with run.Sampler() as sampler:
        deadline = time.perf_counter() + 5 * run.CAL_PERIOD_S
        while time.perf_counter() < deadline:
            pass
    taken = len(sampler.samples)
    assert taken >= 2
    assert abs(sampler.spent - sum(sampler.samples)) < 1e-12
    time.sleep(2 * run.CAL_PERIOD_S)
    assert len(sampler.samples) == taken


# -- traced loop ---------------------------------------------------------------------


class FakeCli:
    def __init__(self, tracer):
        self.tracer, self.calls = tracer, []

    def main(self, argv):
        self.calls.append((argv[0], self.tracer.on))
        return 0


class FakeTracer:
    on, request = False, None

    def enable(self):
        self.on = True

    def disable(self):
        self.on = False


def test_traced_loop_alternates_which_twin_runs_first(tmp_path):
    tracer = FakeTracer()
    cli = FakeCli(tracer)
    rounds = [[workloads.Request(("a",), "sdr"), workloads.Request(("b",), "sdr")], [workloads.Request(("c",), "sdr")]]
    plain, traced = run.serve_traced(cli, rounds, str(tmp_path), tracer)
    assert cli.calls == [("a", False), ("a", True), ("b", True), ("b", False), ("c", False), ("c", True)]
    assert [o.slot for o in plain] == [o.slot for o in traced] == [0, 1, 2]
    assert all(o.path.startswith(str(tmp_path) + os.sep + "traced-") for o in traced)


# -- correctness check ------------------------------------------------------------

RECORDS = [
    {"check": "hodge_consistency", "claim": "c", "instance": "g", "k": None, "lhs": None, "rhs": None,
     "slack": None, "pass": True, "detail": "betti=[0, 1, 0]"},
    {"check": "gap_consistency", "claim": "c", "instance": "g", "k": None, "lhs": 2.0, "rhs": 2.0,
     "slack": 3.9e-17, "pass": True, "detail": ""},
    {"check": "reduced_betti", "claim": "c", "instance": "g", "k": 1, "lhs": 1.0, "rhs": None,
     "slack": None, "pass": True, "detail": ""},
    {"check": "min_hodge_eigenvalue", "claim": "c", "instance": "g", "k": 2, "lhs": "inf", "rhs": None,
     "slack": None, "pass": True, "detail": ""},
]


def altered(index, field, value):
    records = [dict(r) for r in RECORDS]
    records[index][field] = value
    return records


def test_float_noise_passes_the_reference_check():
    reference = check.reference_rows(RECORDS)
    assert check.compare(reference, altered(1, "lhs", 2.0 + 1e-14)) == []
    assert check.compare(reference, altered(1, "slack", -9.7e-17)) == []


def test_flipped_pass_or_betti_number_fails_the_reference_check():
    reference = check.reference_rows(RECORDS)
    assert check.compare(reference, altered(0, "pass", False))
    assert check.compare(reference, altered(0, "detail", "betti=[0, 2, 0]"))
    assert check.compare(reference, altered(2, "lhs", 2.0))
    assert check.compare(reference, altered(3, "lhs", 5.0))
    assert check.compare(reference, RECORDS[:-1])


def test_decided_digest_ignores_floats_only():
    base = check.decided_digest(RECORDS)
    assert check.decided_digest(altered(1, "lhs", 2.5)) == base
    assert check.decided_digest(altered(2, "k", 2)) != base


def test_output_problems_catch_exit_code_failed_and_error_records():
    assert check.output_problems(0, RECORDS) == []
    assert check.output_problems(3, RECORDS)
    assert check.output_problems(0, altered(1, "pass", False))
    assert check.output_problems(0, altered(1, "check", "error"))
    assert check.output_problems(0, [])


def test_normalize_strips_the_input_directory():
    recs = check.normalize([{"instance": "/tmp/w1/lp-3.json I=(1,)", "detail": ""}], "/tmp/w1")
    assert recs[0]["instance"] == "lp-3.json I=(1,)"


# -- inputs -----------------------------------------------------------------------


def test_workload_inputs_are_a_function_of_the_seed(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        a.mkdir()
        b.mkdir()
        first = [r for batch in build(7, str(a)) for r in batch]
        second = [r for batch in build(7, str(b)) for r in batch]
        assert [r.argv for r in first] == [tuple(x.replace(str(b), str(a)) for x in r.argv) for r in second]
        for path in a.iterdir():
            assert path.read_text() == (b / path.name).read_text()
        assert {r.kind for r in first} <= set(run.REACH)


def test_lp_search_median_request_is_sdr7_wherever_domination_sorts():
    cost = {"width": 1, "sdr6": 2, "sdr7": 3, "sdr8": 5}
    for domination in (0.5, 3, 4, 10):
        ranked = sorted(workloads.LP_ROUND, key=lambda kind: cost.get(kind, domination))
        middle = len(ranked) // 2
        assert ranked[middle - 1] == ranked[middle] == "sdr7"


# -- tracer -------------------------------------------------------------------------


def test_tracer_rebinds_every_namespace_and_restores_it():
    from flagspectra import graphs, linalg, spectral
    from flagspectra.graphs import cycle_graph

    original = linalg.symmetric_eigenvalues
    tracer = layers.Tracer()
    tracer.bind()
    tracer.request = 0
    tracer.enable()
    try:
        assert graphs.symmetric_eigenvalues is not original
        assert spectral.symmetric_eigenvalues is graphs.symmetric_eigenvalues
        graphs.laplacian_spectrum(cycle_graph(4))
    finally:
        tracer.disable()
    assert graphs.symmetric_eigenvalues is original
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("graphs.laplacian_spectrum", None),
        ("linalg.symmetric_eigenvalues", 0),
    ]
    metrics = tracer.metrics()
    assert metrics["linalg.symmetric_eigenvalues.calls"] == 1
    assert metrics["linalg.symmetric_eigenvalues.work"] == 64
    assert metrics["linalg.symmetric_eigenvalues.distinct_ratio"] == 1.0


# -- BENCHMARK.json and the design record ---------------------------------------------


def test_benchmark_json_lists_exactly_the_metrics_the_harness_prints():
    bench = load_json(ROOT, "BENCHMARK.json")
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_design_predictions_name_known_metrics_and_workloads():
    bench = load_json(ROOT, "BENCHMARK.json")
    design = load_json(BENCH_DIR, "design.json")
    end_to_end = {m["name"] for m in bench["end_to_end"]} | {"latency_p90_s"}
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert set(design["workloads"]) == set(workloads.WORKLOADS)
    named = set()
    for layer in design["layers"].values():
        named |= set(layer["metrics"])
        for metric, workload in layer["should_move"]:
            assert metric in end_to_end and workload in workloads.WORKLOADS
        assert set(layer["mostly_on"]) | set(layer["little_on"]) <= set(workloads.WORKLOADS)
    assert named == per_layer
    for layer, metric, workload in design["predicted_unchanged"]:
        assert layer in design["layers"] and metric in end_to_end and workload in workloads.WORKLOADS
