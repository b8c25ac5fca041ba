"""Command-line interface: subcommands, formats, exit codes, determinism."""

import argparse
import errno
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import flagspectra.cli as cli
import flagspectra.domination as domination
import flagspectra.hypergraphs as hypergraphs
from flagspectra import cycle_graph, turan_graph
from flagspectra.cli import main
from flagspectra.corpus import family_corpus
from flagspectra.graphs import format_graph_text, graph_to_json_dict


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def subprocess_run(args):
    """`python -m flagspectra` in a fresh process on this checkout's source, with COLUMNS=80."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "COLUMNS": "80"}
    return subprocess.run([sys.executable, "-m", "flagspectra", *args], capture_output=True, env=env, timeout=300)


def parse_records(out):
    return [json.loads(line) for line in out.strip().splitlines()]


@pytest.fixture
def c6_json(tmp_path):
    path = tmp_path / "c6.json"
    path.write_text(json.dumps(graph_to_json_dict(cycle_graph(6))))
    return str(path)


@pytest.fixture
def family_json(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"ground": 3, "hypergraphs": [[[0]], [[1]], [[2]]]}))
    return str(path)


class TestSpectra:
    def test_turan_values(self, capsys):
        code, out = run_cli(["spectra", "--turan", "3", "2"], capsys)
        assert code == 0
        records = parse_records(out)
        mus = {r["k"]: r["lhs"] for r in records if r["check"] == "min_hodge_eigenvalue"}
        assert mus[0] == pytest.approx(4.0, abs=1e-8)
        assert mus[1] == pytest.approx(2.0, abs=1e-8)
        assert mus[2] == pytest.approx(0.0, abs=1e-8)
        betti = {r["k"]: r["lhs"] for r in records if r["check"] == "reduced_betti"}
        assert betti[2] == 1
        eta = [r for r in records if r["check"] == "connectivity"][0]
        assert eta["detail"] == "3"
        slacks = [r["slack"] for r in records if r["check"] == "eigenvalue_recursion"]
        assert all(abs(s) <= 1e-7 for s in slacks)

    def test_complete_graph_contractible(self, capsys):
        code, out = run_cli(["spectra", "--complete", "4"], capsys)
        assert code == 0
        records = parse_records(out)
        betti = [r["lhs"] for r in records if r["check"] == "reduced_betti"]
        assert all(b == 0 for b in betti)
        eta = [r for r in records if r["check"] == "connectivity"][0]
        assert eta["detail"] == "inf"

    def test_independence_flag(self, capsys, c6_json):
        code, out = run_cli(["spectra", "--graph", c6_json, "--independence"], capsys)
        assert code == 0
        eta = [r for r in parse_records(out) if r["check"] == "connectivity"][0]
        assert eta["detail"] == "2"

    def test_text_graph_form(self, capsys, tmp_path):
        path = tmp_path / "c6.txt"
        path.write_text(format_graph_text(cycle_graph(6)))
        code, out = run_cli(["spectra", "--graph", str(path)], capsys)
        assert code == 0

    def test_csv_format(self, capsys):
        code, out = run_cli(["spectra", "--cycle", "4", "--format", "csv"], capsys)
        assert code == 0
        header = out.splitlines()[0]
        assert header == "check,claim,instance,k,lhs,rhs,slack,pass,detail"

    def test_seed_recorded(self, capsys):
        # spectra draws nothing at random, so it records the default seed
        code, out = run_cli(["spectra", "--cycle", "4"], capsys)
        meta = parse_records(out)[0]
        assert meta["check"] == "run_config"
        assert meta["detail"].startswith("seed=42 ")

    def test_max_dim_skips_capped_dimension(self, capsys):
        # K_8 has 56 triangles; --max-dim 1 never enumerates them
        code, out = run_cli(["spectra", "--complete", "8", "--max-dim", "1", "--simplex-cap", "50"], capsys)
        assert code == 0

    def test_max_dim_verifiers_cover_genuine_degrees(self, capsys):
        # truncated at dimension 1, the degree-1 operator lacks its up term,
        # so the recursion and vanishing checks stop below it
        code, out = run_cli(["spectra", "--turan", "3", "2", "--max-dim", "1"], capsys)
        assert code == 0
        records = parse_records(out)
        checked = [r for r in records if r["check"] in ("eigenvalue_recursion", "vanishing_threshold")]
        assert checked
        assert all(r["k"] < 1 for r in checked)


class TestDomination:
    def test_six_cycle_with_both_reps(self, capsys, c6_json):
        code, out = run_cli(
            ["domination", "--graph", c6_json, "--reps", "edge-incidence,cycle"], capsys
        )
        assert code == 0
        records = parse_records(out)
        bound = [r for r in records if r["check"] == "representation_value_lower_bound"][0]
        assert bound["lhs"] == pytest.approx(2.0, abs=1e-6)
        gamma = [r for r in records if r["check"] == "domination_number"][0]
        assert gamma["lhs"] == 2
        frac = [r for r in records if r["check"] == "fractional_strong_domination"][0]
        assert frac["lhs"] == pytest.approx(1.5, abs=1e-6)

    def test_representation_from_file(self, capsys, tmp_path):
        gpath = tmp_path / "k2.json"
        gpath.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
        rpath = tmp_path / "rep.json"
        rpath.write_text(json.dumps({"dim": 1, "vectors": [[1.0], [1.0]]}))
        code, out = run_cli(["domination", "--graph", str(gpath), "--reps", f"file:{rpath}"], capsys)
        assert code == 0
        values = [r for r in parse_records(out) if r["check"] == "representation_value"]
        assert values[0]["lhs"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "coordinate, message",
        [
            # a string is refused as a string, whatever number it spells
            ('"nan"', "bad representation JSON: expected a number, got 'nan'"),
            ('"inf"', "bad representation JSON: expected a number, got 'inf'"),
            ("NaN", "representation coordinates must be finite"),
            ("Infinity", "representation coordinates must be finite"),
            ("-Infinity", "representation coordinates must be finite"),
        ],
        ids=['"nan"', '"inf"', "NaN", "Infinity", "-Infinity"],
    )
    def test_rejects_non_finite_representation_coordinates(self, coordinate, message, capsys, tmp_path):
        gpath = tmp_path / "p3.json"
        gpath.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
        rpath = tmp_path / "rep.json"
        rpath.write_text('{"dim": 2, "vectors": [[1.0, 0.0], [1.0, 1.0], [%s, 1.0]]}' % coordinate)
        code = main(["domination", "--graph", str(gpath), "--reps", f"file:{rpath}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "payload, message",
        [
            ('{"dim": 1e400, "vectors": [[1.0], [1.0], [1.0]]}', "bad representation JSON: expected an integer, got inf"),
            ('{"dim": 1, "vectors": [[1%s], [1.0], [1.0]]}' % ("0" * 400), "bad representation JSON: int too large to convert to float"),
            ('{"dim": 2, "vectors": [[1.0, 0.0], [1.0], [0.0, 1.0]]}', "bad representation JSON: setting an array element with a sequence"),
            ('{"dim": 1, "vectors": [[1e200], [1e200], [1e200]]}', "representation Gram matrix must be finite"),
            ('{"dim": 1, "vectors": [["1.5"], [1.0], [1.0]]}', "bad representation JSON: expected a number, got '1.5'"),
            ('{"dim": 1, "vectors": [[1.0], [true], [1.0]]}', "bad representation JSON: expected a number, got True"),
            ('{"dim": 1.7, "vectors": [[1.0], [1.0], [1.0]]}', "bad representation JSON: expected an integer, got 1.7"),
        ],
        ids=["dim-overflow", "coordinate-overflow", "ragged", "gram-overflow", "string-coordinate", "bool-coordinate", "float-dim"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_rejects_unusable_representation_file(self, payload, message, capsys, tmp_path):
        gpath = tmp_path / "p3.json"
        gpath.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
        rpath = tmp_path / "rep.json"
        rpath.write_text(payload)
        code = main(["domination", "--graph", str(gpath), "--reps", f"file:{rpath}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {message}")

    def test_tiny_negative_gram_entries_still_solve(self, capsys, tmp_path, monkeypatch):
        # v0 . v2 = -1e-12 sits within the Gram tolerance of a non-edge, so
        # the representation is valid, and its Gram LP has a negative entry
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p3.json").write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
        (tmp_path / "neg.json").write_text(json.dumps({"dim": 2, "vectors": [[1.0, 0.0], [1.0, 1.0], [-1e-12, 1.0]]}))
        code, out = run_cli(["domination", "--graph", "p3.json", "--reps", "file:neg.json"], capsys)
        assert code == 0
        assert out == (
            '{"check": "run_config", "claim": "configuration recorded for reproducibility", "instance": "p3.json", "k": null, "lhs": null, "rhs": null, "slack": null, "pass": true, "detail": "seed=42 max_dim=None simplex_cap=20000 exact_cap=16 indep_cap=14 width_cap=20 family_cap=8 recursion_tol=1e-07 strict_tol=1e-07"}\n'
            '{"check": "domination_number", "claim": "exact parameter with witness", "instance": "p3.json", "k": null, "lhs": 1, "rhs": null, "slack": null, "pass": true, "detail": "witness=(1,)"}\n'
            '{"check": "total_domination_number", "claim": "exact parameter with witness", "instance": "p3.json", "k": null, "lhs": 2, "rhs": null, "slack": null, "pass": true, "detail": "witness=(0, 1)"}\n'
            '{"check": "independent_domination_number", "claim": "exact parameter with witness", "instance": "p3.json", "k": null, "lhs": 1, "rhs": null, "slack": null, "pass": true, "detail": "witness=((1,), (0,))"}\n'
            '{"check": "fractional_strong_domination", "claim": "strong fractional domination optimum", "instance": "p3.json", "k": null, "lhs": 1, "rhs": null, "slack": null, "pass": true, "detail": ""}\n'
            '{"check": "representation_value", "claim": "covering optimum over the representation Gram matrix", "instance": "p3.json rep=file:neg.json", "k": null, "lhs": 1, "rhs": null, "slack": null, "pass": true, "detail": ""}\n'
            '{"check": "gram_row_bound", "claim": "lambda_max <= max_u P(u) . sum_v P(v)", "instance": "p3.json rep=file:neg.json", "k": null, "lhs": 3, "rhs": 4, "slack": 0.999999999999, "pass": true, "detail": ""}\n'
            '{"check": "representation_value_lower_bound", "claim": "certified lower bound from the supplied representations", "instance": "p3.json", "k": null, "lhs": 1, "rhs": null, "slack": null, "pass": true, "detail": ""}\n'
            '{"check": "connectivity_spectral_bound", "claim": "eta(independence complex) >= n / lambda_max", "instance": "p3.json", "k": null, "lhs": 1, "rhs": 1, "slack": 0, "pass": true, "detail": ""}\n'
            '{"check": "connectivity_representation_bound", "claim": "eta(independence complex) >= value of every representation", "instance": "p3.json", "k": null, "lhs": 1, "rhs": 1, "slack": -1.00008890058e-12, "pass": true, "detail": ""}\n'
        )

    def test_representation_breaking_gram_conditions_rejected(self, capsys, tmp_path):
        # v0 . v1 = 0.5 on the edge 01, below the required 1
        gpath = tmp_path / "p3.json"
        gpath.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
        rpath = tmp_path / "bad.json"
        rpath.write_text(json.dumps({"dim": 2, "vectors": [[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]]}))
        code = main(["domination", "--graph", str(gpath), "--reps", f"file:{rpath}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "input error: representation violates the Gram conditions\n"

    @pytest.mark.parametrize(
        "argv, solves, validations",
        [
            (["domination", "--cycle", "6", "--reps", "edge-incidence,cycle"], 3, 2),
            # five Turan and ten cycle graphs, each with edges; no random graph or family
            (["corpus", "--graphs", "0", "--families", "0"], 15, 15),
        ],
        ids=["domination", "corpus"],
    )
    def test_each_representation_validated_and_solved_once(self, argv, solves, validations, capsys, monkeypatch):
        counts = {"solve_covering_lp": 0, "validate_representation": 0}
        for name in counts:

            def counted(*args, _name=name, _original=getattr(domination, name), **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(domination, name, counted)
        code, _ = run_cli(argv, capsys)
        assert code == 0
        assert counts == {"solve_covering_lp": solves, "validate_representation": validations}

    def test_isolated_vertex_names_its_zero_row(self, capsys, tmp_path):
        path = tmp_path / "isolated.json"
        path.write_text(json.dumps({"n": 3, "edges": [[0, 1]]}))
        main(["domination", "--graph", str(path)])
        records = {r["check"]: r for r in parse_records(capsys.readouterr().out)}
        frac = records["fractional_strong_domination"]
        assert frac["lhs"] == "inf"
        assert frac["detail"] == "infeasible: zero row 2 requires 1 > 0"

    @pytest.mark.parametrize("n", range(2, 8))
    def test_edgeless_graph(self, n, capsys, tmp_path):
        # I(G) of an edgeless graph is a full simplex, so eta = inf; the edge
        # incidence representation has no vectors and is reported inapplicable
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps({"n": n, "edges": []}))
        code, out = run_cli(["domination", "--graph", str(path)], capsys)
        assert code == 0
        records = {r["check"]: r for r in parse_records(out)}
        rep = records["representation_value"]
        assert rep["pass"] is None and rep["detail"].startswith("inapplicable: ")
        spectral = records["connectivity_spectral_bound"]
        assert spectral["pass"] is True and spectral["lhs"] == "inf"
        assert records["domination_number"]["lhs"] == n
        assert "gram_row_bound" not in records and "representation_value_lower_bound" not in records

    def test_rejects_cycle_rep_on_wrong_graph(self, capsys, tmp_path):
        # K_4 is not a cycle on 3k vertices
        path = tmp_path / "k4.json"
        path.write_text(json.dumps(graph_to_json_dict(turan_graph(4, 1))))
        code = main(["domination", "--graph", str(path), "--reps", "cycle"])
        assert code == 2


class TestSdrAndWidth:
    def test_sdr_listing(self, capsys, family_json):
        code, out = run_cli(["sdr", "--family", family_json], capsys)
        assert code == 0
        records = parse_records(out)
        search = [r for r in records if r["check"] == "sdr_search"][0]
        assert "representatives" in search["detail"]
        comparison = [r for r in records if r["check"] == "width_condition_comparison"][0]
        assert "fractional condition: met" in comparison["detail"]

    def test_sdr_exits_1_when_batched_and_single_lp_disagree(self, capsys, family_json, monkeypatch):
        solve = hypergraphs.solve_covering_stacks

        def perturbed(stacks):
            values = solve(stacks)
            # stacks go in union-size order: the last value is the full union's
            values[-1] = np.nextafter(values[-1], np.inf)
            return values

        monkeypatch.setattr(hypergraphs, "solve_covering_stacks", perturbed)
        code = main(["sdr", "--family", family_json])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "batched LP" in captured.err

    def test_sdr_runs_one_representative_search(self, capsys, tmp_path, monkeypatch):
        # one member, one edge: both width hypotheses hold, so each condition
        # closes on the search result as well as the listing record
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"ground": 2, "hypergraphs": [[[0, 1]]]}))
        calls = []
        search = hypergraphs.sdr_search

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(hypergraphs, "sdr_search", counted)
        code, out = run_cli(["sdr", "--family", str(path)], capsys)
        assert code == 0
        finals = [r for r in parse_records(out) if r["check"].endswith("_width_sdr")]
        assert [r["detail"] for r in finals] == ["representatives ((0, 1),)"] * 2
        assert len(calls) == 1

    def test_sdr_exits_1_when_width_table_and_search_disagree(self, capsys, family_json, monkeypatch):
        cover = hypergraphs.smallest_cover

        def lengthened(masks, target, candidates):
            combo = cover(masks, target, candidates)
            # the table searches each component once; the singleton {edge 0}
            # is a component of every union holding member 1
            if target == 1:
                return combo + combo[:1]
            return combo

        monkeypatch.setattr(hypergraphs, "smallest_cover", lengthened)
        code = main(["sdr", "--family", family_json])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "width table gives w 4 on the full union, direct search 3" in captured.err

    def test_sdr_width_cap_names_the_full_union(self, capsys, family_json):
        assert main(["sdr", "--family", family_json, "--width-cap", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cap exceeded: width search capped at 2 edges (got 3)\n"

    def test_sdr_family_cap_message(self, capsys, family_json):
        assert main(["sdr", "--family", family_json, "--family-cap", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cap exceeded: subset sweep capped at 2 members (got 3)\n"

    @pytest.mark.parametrize(
        "command, payload, small",
        [
            ("width", {"ground": 10**20, "edges": [[0], [1]]}, {"ground": 2, "edges": [[0], [1]]}),
            ("sdr", {"ground": 10**20, "hypergraphs": [[[0]], [[1]]]}, {"ground": 2, "hypergraphs": [[[0]], [[1]]]}),
            ("width", {"ground": 10**20, "edges": [[0], [10**20 - 1]]}, {"ground": 2, "edges": [[0], [1]]}),
        ],
        ids=["width-huge-ground", "sdr-huge-ground", "width-huge-label"],
    )
    def test_allocations_follow_the_vertices_edges_list(self, command, payload, small, capsys, tmp_path):
        # masks and incidence columns are sized by the vertices that occur,
        # so a huge declared ground or label changes no output
        path = tmp_path / "in.json"
        option = {"width": "--hypergraph", "sdr": "--family"}[command]
        results = []
        for data in (payload, small):
            path.write_text(json.dumps(data))
            code = main([command, option, str(path)])
            results.append((code, capsys.readouterr()))
        assert results[0] == results[1]
        assert results[0][0] == 0 and results[0][1].err == ""

    def test_width_command(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"ground": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
        code, out = run_cli(["width", "--hypergraph", str(path)], capsys)
        assert code == 0
        records = parse_records(out)
        w = [r for r in records if r["check"] == "width"][0]
        assert w["lhs"] == 1
        ws = [r for r in records if r["check"] == "fractional_width"][0]
        assert ws["lhs"] == pytest.approx(0.75, abs=1e-7)
        ident = [r for r in records if r["check"] == "incidence_width_identity"][0]
        assert ident["pass"] is True


class TestDumpComplex:
    def test_dump_triangle(self, capsys):
        code, out = run_cli(["dump-complex", "--complete", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["dims"] == [3, 3, 1]
        assert payload["skeleta"]["2"] == [[0, 1, 2]]

    @pytest.mark.parametrize(
        "option",
        [
            ["--seed", "5"],
            ["--exact-cap", "1"],
            ["--indep-cap", "1"],
            ["--width-cap", "1"],
            ["--family-cap", "1"],
            ["--recursion-tol", "3"],
            ["--strict-tol", "3"],
            ["--format", "csv"],
        ],
        ids=lambda option: option[0],
    )
    def test_rejects_options_it_does_not_read(self, option, capsys):
        assert main(["dump-complex", "--complete", "3", *option]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: unrecognized arguments: {' '.join(option)}" in captured.err



class TestCorpus:
    def test_small_corpus_passes(self, capsys):
        code, out = run_cli(
            ["corpus", "--graphs", "6", "--nmax", "7", "--families", "4", "--seed", "5"], capsys
        )
        assert code == 0
        records = parse_records(out)
        summaries = [r for r in records if r["check"] == "summary"]
        assert summaries
        assert all(r["pass"] for r in summaries)
        assert not any(r["check"] == "error" for r in records)

    @pytest.mark.parametrize(
        "cap, message",
        [
            (["--width-cap", "6"], r"CapExceeded: width search capped at 6 edges \(got (\d+)\)"),
            (["--family-cap", "2"], r"CapExceeded: subset sweep capped at 2 members \(got (\d+)\)"),
        ],
        ids=["width-cap", "family-cap"],
    )
    def test_capped_family_gets_only_its_error_record(self, cap, message, capsys):
        code, out = run_cli(["corpus", "--graphs", "0", "--families", "30", *cap], capsys)
        assert code == 1
        records = parse_records(out)
        errors = {r["instance"]: r["detail"] for r in records if r["check"] == "error"}
        assert errors
        capped = 0
        for label, fam in family_corpus(count=30, seed=42):
            rows = [r for r in records if r["instance"] == label or r["instance"].startswith(label + " ")]
            size = fam.union(range(fam.size)).num_edges if "width" in message else fam.size
            if label in errors:
                capped += 1
                assert [r["check"] for r in rows] == ["error"]
                assert int(re.fullmatch(message, errors[label]).group(1)) == size
            else:
                assert size <= int(cap[1]) and rows
        assert capped == len(errors)

    def test_nmax_below_every_random_size(self, capsys):
        assert main(["corpus", "--nmax", "3", "--graphs", "2", "--families", "1"]) == 2
        assert "input error: --nmax 3" in capsys.readouterr().err


class TestRunConfig:
    @pytest.mark.parametrize(
        "argv, instance, detail",
        [
            (
                ["spectra", "--cycle", "4", "--max-dim", "2", "--simplex-cap", "900"],
                "cycle(4)",
                "seed=42 max_dim=2 simplex_cap=900 exact_cap=16 indep_cap=14 width_cap=20 family_cap=8",
            ),
            (
                ["domination", "--cycle", "4", "--simplex-cap", "900", "--exact-cap", "9", "--indep-cap", "10"],
                "cycle(4)",
                "seed=42 max_dim=None simplex_cap=900 exact_cap=9 indep_cap=10 width_cap=20 family_cap=8",
            ),
            (
                ["sdr", "--family", "fam.json", "--width-cap", "5", "--family-cap", "3"],
                "fam.json",
                "seed=42 max_dim=None simplex_cap=20000 exact_cap=16 indep_cap=14 width_cap=5 family_cap=3",
            ),
            (
                ["width", "--hypergraph", "h.json", "--width-cap", "5"],
                "h.json",
                "seed=42 max_dim=None simplex_cap=20000 exact_cap=16 indep_cap=14 width_cap=5 family_cap=8",
            ),
            (
                ["corpus", "--graphs", "0", "--families", "0", "--seed", "7", "--simplex-cap", "900", "--width-cap", "5", "--family-cap", "3"],
                "corpus(seed=7)",
                "seed=7 max_dim=None simplex_cap=900 exact_cap=16 indep_cap=14 width_cap=5 family_cap=3",
            ),
        ],
        ids=["spectra", "domination", "sdr", "width", "corpus"],
    )
    def test_detail_reads_both_sources(self, argv, instance, detail, tmp_path, monkeypatch, capsys):
        """Each setting comes from the command line when the command takes
        it, and from the default table when it does not."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fam.json").write_text(json.dumps({"ground": 3, "hypergraphs": [[[0]], [[1]]]}))
        (tmp_path / "h.json").write_text(json.dumps({"ground": 3, "edges": [[0, 1], [1, 2]]}))
        code, out = run_cli(argv, capsys)
        assert code == 0
        meta = parse_records(out)[0]
        assert meta["check"] == "run_config"
        assert meta["instance"] == instance
        assert meta["detail"] == f"{detail} recursion_tol=1e-07 strict_tol=1e-07"


# The options each record command does not read, and so refuses
NOT_TAKEN = {
    "spectra": ("--seed", "--exact-cap", "--indep-cap", "--width-cap", "--family-cap"),
    "domination": ("--seed", "--max-dim", "--width-cap", "--family-cap"),
    "sdr": ("--seed", "--max-dim", "--simplex-cap", "--exact-cap", "--indep-cap"),
    "width": ("--seed", "--max-dim", "--simplex-cap", "--exact-cap", "--indep-cap", "--family-cap"),
    "corpus": ("--max-dim", "--exact-cap", "--indep-cap"),
}
ALL_VARIABLES = [
    f"FLAGSPECTRA_{name}" for name in ("MAX_DIM", "SIMPLEX_CAP", "EXACT_CAP", "INDEP_CAP", "WIDTH_CAP", "FAMILY_CAP")
]
SOURCES = {
    "spectra": ["--cycle", "5"],
    "domination": ["--cycle", "5"],
    "sdr": ["--family", "fam.json"],
    "width": ["--hypergraph", "h.json"],
    "corpus": ["--graphs", "0", "--families", "0"],
    "dump-complex": ["--cycle", "5"],
}


class TestOptions:
    @pytest.mark.parametrize(
        "command, option",
        [
            pytest.param(command, option, id=f"{command} {option}")
            for command, options in NOT_TAKEN.items()
            for option in (*options, "--recursion-tol", "--strict-tol")
        ],
    )
    def test_record_command_rejects_options_it_does_not_read(self, command, option, capsys):
        # the parser refuses them before any file is read
        assert main([command, *SOURCES[command], option, "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: unrecognized arguments: {option} 3" in captured.err


class TestExitCodes:
    def test_usage_error(self):
        assert main(["spectra"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectra", "--graph", "broken.json"],
            ["domination", "--cycle", "3", "--reps", "file:broken.json"],
            ["sdr", "--family", "broken.json"],
            ["width", "--hypergraph", "broken.json"],
        ],
        ids=["graph", "representation", "family", "hypergraph"],
    )
    def test_malformed_json_names_its_file(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "broken.json").write_text('{"n": ')
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: broken.json: Expecting value: line 1 column 7 (char 6)\n"

    def test_missing_file(self, capsys):
        assert main(["spectra", "--graph", "/nonexistent/file.json"]) == 2
        assert capsys.readouterr().err == "input error: [Errno 2] No such file or directory: '/nonexistent/file.json'\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectra", "--graph", "{}"],
            ["sdr", "--family", "{}"],
            ["width", "--hypergraph", "{}"],
            ["domination", "--cycle", "3", "--reps", "file:{}"],
        ],
        ids=["graph", "family", "hypergraph", "representation"],
    )
    def test_unreadable_path_is_an_input_error(self, argv, tmp_path, capsys):
        assert main([arg.format(tmp_path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(tmp_path))}\n"

    def test_malformed_graph(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("what even is this\n")
        assert main(["spectra", "--graph", str(path)]) == 2

    def test_cap_exceeded(self):
        assert main(["spectra", "--complete", "12", "--simplex-cap", "50"]) == 3

    def test_dense_array_cap_exceeded(self, monkeypatch, capsys):
        monkeypatch.setattr("flagspectra.complexes.DENSE_BYTES_CAP", 100)
        assert main(["spectra", "--cycle", "6"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("cap exceeded: dense array of shape (")
        assert "bytes (cap 100)" in err

    @pytest.mark.parametrize(
        "source", [["--gnp", "100000000", "0.5", "1"], ["--complete", "100000000"], ["--turan", "10000", "10000"]]
    )
    def test_vertex_count_capped_before_generation(self, source, capsys):
        start = time.monotonic()
        assert main(["spectra", *source]) == 3
        assert time.monotonic() - start < 1.0
        assert "dimension 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, count", [(["--complete", "700"], 244650), (["--turan", "35", "20"], 238000)], ids=["complete", "turan"]
    )
    def test_generation_holds_no_pair_list(self, source, count, capsys):
        tracemalloc.start()
        try:
            assert main(["spectra", *source]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = f"cap exceeded: complex too large: {count} simplices in dimension 1 (cap 20000)\n"
        assert capsys.readouterr().err == expected
        assert peak < 16 * 2**20

    @pytest.mark.parametrize(
        "text", [json.dumps({"n": 5000000, "edges": []}), "5000000 0\n"], ids=["json", "text"]
    )
    def test_graph_file_vertex_count_capped_before_build(self, text, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("Graph built before the vertex cap was checked")

        monkeypatch.setattr("flagspectra.graphs.Graph", refuse)
        path = tmp_path / "big"
        path.write_text(text)
        assert main(["spectra", "--graph", str(path)]) == 3
        assert "5000000 simplices in dimension 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": 3, "edges": [[0, 1.7]]},
            {"n": 3, "edges": [[True, 2]]},
            {"n": "3", "edges": [["0", "2"]]},
            {"n": 3.0, "edges": []},
        ],
    )
    def test_graph_json_not_coerced(self, payload, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        assert main(["dump-complex", "--graph", str(path)]) == 2
        assert "expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, payload, message",
        [
            (["sdr", "--family"], {"ground": 3, "hypergraphs": [[[0.7, 1]], [[1, 2]]]}, "bad family member: expected an integer, got 0.7"),
            (["sdr", "--family"], {"ground": 3, "hypergraphs": [[[0, "1"]], [[1, 2]]]}, "bad family member: expected an integer, got '1'"),
            (["sdr", "--family"], {"ground": 3, "hypergraphs": [[[0, 1]], [[True, 2]]]}, "bad family member: expected an integer, got True"),
            (["sdr", "--family"], {"ground": 3.9, "hypergraphs": [[[0, 1]], [[1, 2]]]}, "bad family JSON: expected an integer, got 3.9"),
            (["sdr", "--family"], {"ground": "3", "hypergraphs": [[[0, 1]], [[1, 2]]]}, "bad family JSON: expected an integer, got '3'"),
            (["width", "--hypergraph"], {"ground": 4, "edges": [[0.5, 1], [2, 3]]}, "bad hypergraph JSON: expected an integer, got 0.5"),
            (["width", "--hypergraph"], {"ground": 4, "edges": [[0, 1], [2, "3"]]}, "bad hypergraph JSON: expected an integer, got '3'"),
            (["width", "--hypergraph"], {"ground": 4, "edges": [[0, 1], [False, 3]]}, "bad hypergraph JSON: expected an integer, got False"),
            (["width", "--hypergraph"], {"ground": 4.0, "edges": [[0, 1], [2, 3]]}, "bad hypergraph JSON: expected an integer, got 4.0"),
            (["width", "--hypergraph"], {"ground": "4", "edges": [[0, 1], [2, 3]]}, "bad hypergraph JSON: expected an integer, got '4'"),
        ],
        ids=[
            "family-float-vertex",
            "family-string-vertex",
            "family-bool-vertex",
            "family-float-ground",
            "family-string-ground",
            "hypergraph-float-vertex",
            "hypergraph-string-vertex",
            "hypergraph-bool-vertex",
            "hypergraph-float-ground",
            "hypergraph-string-ground",
        ],
    )
    def test_hypergraph_json_not_coerced(self, argv, payload, message, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(payload))
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "names, raw, argv",
        [
            (["FLAGSPECTRA_SIMPLEX_CAP"], "abc", ["spectra", "--cycle", "5"]),
            (["FLAGSPECTRA_MAX_DIM"], "abc", ["spectra", "--cycle", "5"]),
            (["FLAGSPECTRA_WIDTH_CAP"], "abc", ["sdr", "--family", "fam.json", "--width-cap", "5"]),
            (["FLAGSPECTRA_WIDTH_CAP"], "abc", ["--help"]),
            *((["FLAGSPECTRA_WIDTH_CAP"], raw, ["sdr", "--family", "fam.json"]) for raw in (" 7 ", "+7", "1_0", "-1")),
            *((ALL_VARIABLES, "abc", [command, *SOURCES[command]]) for command in SOURCES),
        ],
        ids=[
            "FLAGSPECTRA_SIMPLEX_CAP",
            "FLAGSPECTRA_MAX_DIM",
            "flag-given",
            "help",
            "spaces",
            "plus",
            "underscore",
            "negative",
            *(f"all-{command}" for command in SOURCES),
        ],
    )
    def test_bad_env_cap(self, names, raw, argv, tmp_path, monkeypatch, capsys):
        # no command reads the environment, so no value of a variable is an error
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fam.json").write_text(json.dumps({"ground": 3, "hypergraphs": [[[0]], [[1]]]}))
        (tmp_path / "h.json").write_text(json.dumps({"ground": 3, "edges": [[0, 1], [1, 2]]}))
        code = main(argv)
        unset = (code, capsys.readouterr())
        for name in names:
            monkeypatch.setenv(name, raw)
        code = main(argv)
        assert (code, capsys.readouterr()) == unset
        assert unset[0] == 0 and unset[1].out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["spectra", "--cycle", "5", "--max-dim", "-1"], "--max-dim must be nonnegative, got -1"),
            (["spectra", "--cycle", "5", "--simplex-cap", "-1"], "--simplex-cap must be nonnegative, got -1"),
            (["domination", "--cycle", "5", "--exact-cap", "-1"], "--exact-cap must be nonnegative, got -1"),
            (["domination", "--cycle", "5", "--indep-cap", "-1"], "--indep-cap must be nonnegative, got -1"),
            (["sdr", "--family", "FAMILY", "--width-cap", "-1"], "--width-cap must be nonnegative, got -1"),
            (["sdr", "--family", "FAMILY", "--family-cap", "-1"], "--family-cap must be nonnegative, got -1"),
            (["corpus", "--graphs", "-1", "--families", "1"], "--graphs must be nonnegative, got -1"),
            (["corpus", "--graphs", "0", "--families", "-1"], "--families must be nonnegative, got -1"),
        ],
        ids=[
            "max-dim",
            "simplex-cap",
            "exact-cap",
            "indep-cap",
            "width-cap",
            "family-cap",
            "graphs",
            "families",
        ],
    )
    def test_malformed_option_rejected(self, argv, message, family_json, capsys):
        assert main([family_json if a == "FAMILY" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize("independence", [[], ["--independence"]], ids=["clique", "independence"])
    @pytest.mark.parametrize("command", ["spectra", "dump-complex"])
    def test_max_dim_above_top_dimension_rejected(self, command, independence, capsys):
        # a 5-vertex complex has no simplex above dimension 4; the cap is
        # refused before any level is enumerated or printed
        assert main([command, "--cycle", "5", *independence, "--max-dim", "1000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: --max-dim 1000000 exceeds n - 1 = 4\n"

    @pytest.mark.parametrize(
        "source, message",
        [(["--cycle", "0"], "cycle graph needs at least 3 vertices"), (["--complete", "0"], "empty graph")],
        ids=["cycle", "complete"],
    )
    def test_zero_size_graph_source_is_a_source(self, source, message, capsys):
        # a zero-vertex source is given, so the error is about the graph it
        # makes, not "no graph source given"
        assert main(["spectra", *source]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "argv, payloads, message",
        [
            (["spectra", "--cycle", "2"], {}, "cycle graph needs at least 3 vertices"),
            (["spectra", "--gnp", "5", "x", "1"], {}, "could not convert string to float: 'x'"),
            (["sdr", "--family", "fam.json"], {"fam.json": {"ground": 3, "hypergraphs": [[[0, 1]], []]}}, "empty hypergraph"),
            (["width", "--hypergraph", "h.json"], {"h.json": {"ground": 3, "edges": []}}, "empty hypergraph"),
        ],
        ids=["cycle-2", "gnp-probability", "family-member-edgeless", "hypergraph-edgeless"],
    )
    def test_input_refused_where_it_is_read(self, argv, payloads, message, tmp_path, monkeypatch, capsys):
        # only InputFormatError (and a missing file) exits 2, so each of these
        # must be refused as it is read, not later by a verifier; a --reps
        # file breaking the Gram conditions is the same case, tested above
        monkeypatch.chdir(tmp_path)
        for name, payload in payloads.items():
            (tmp_path / name).write_text(json.dumps(payload))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    def test_internal_value_error_exits_1(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("degree 7 out of range")

        monkeypatch.setattr(cli, "betti_profile", broken)
        assert main(["spectra", "--cycle", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: degree 7 out of range\n"


class TestDeterminism:
    def invoke(self, args):
        proc = subprocess_run(args)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    def test_spectra_byte_identical(self):
        args = ["spectra", "--turan", "3", "2"]
        assert self.invoke(args) == self.invoke(args)

    def test_corpus_byte_identical(self):
        args = ["corpus", "--graphs", "5", "--nmax", "6", "--families", "3", "--seed", "11"]
        assert self.invoke(args) == self.invoke(args)


class TestSharedParser:
    """`main` builds its parser once per process."""

    def test_parser_built_on_first_request_only(self, family_json, monkeypatch, capsys):
        cli.build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["sdr", "--family", family_json]) == 0
        assert len(built) == 7  # the top level and six subcommands
        built.clear()
        assert main(["spectra", "--cycle", "4"]) == 0
        assert main(["sdr"]) == 2
        assert main(["sdr", "--family", family_json]) == 0
        assert built == []
        capsys.readouterr()

    def test_usage_error_leaves_next_request_as_in_fresh_process(self, family_json, capsys):
        assert main(["sdr"]) == 2
        capsys.readouterr()
        code, out = run_cli(["sdr", "--family", family_json], capsys)
        fresh = subprocess_run(["sdr", "--family", family_json])
        assert (code, out.encode()) == (fresh.returncode, fresh.stdout)

    def test_in_process_requests_match_subprocesses(self, family_json, tmp_path, monkeypatch, capsys):
        """Whatever a process keeps between requests, each request's output
        must be what a fresh process gives."""
        hyper = tmp_path / "h.json"
        hyper.write_text(json.dumps({"ground": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
        requests = [
            ["sdr", "--family", family_json],
            ["width", "--hypergraph", str(hyper)],
            ["domination", "--cycle", "9"],
            ["spectra", "--turan", "3", "2"],
            ["corpus", "--graphs", "3", "--nmax", "6", "--families", "2", "--seed", "3"],
            ["sdr", "--help"],
            ["width"],
        ]
        monkeypatch.setenv("COLUMNS", "80")
        in_process = []
        for argv in requests:
            code = main(argv)
            captured = capsys.readouterr()
            in_process.append((code, captured.out.encode(), captured.err.encode()))
        for argv, seen in zip(requests, in_process):
            fresh = subprocess_run(argv)
            assert seen == (fresh.returncode, fresh.stdout, fresh.stderr), argv
