"""Command-line front end.

Subcommands: spectra, domination, sdr, width, corpus, dump-complex.  Outputs
are streams of JSON records (or CSV rows) with floats fixed at 12 significant
digits and a deterministic record order, so identical invocations produce
byte-identical files.  Exit codes: 0 all checks passed, 1 some check failed
or an internal error, 2 usage or input error, 3 a size cap was exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import corpus as corpus_mod
from .complexes import DEFAULT_SIMPLEX_CAP, build_flag_complex
from .domination import (
    EXACT_SEARCH_CAP,
    INDEP_SEARCH_CAP,
    best_representation_value,
    cycle_representation,
    domination_number,
    edge_incidence_representation,
    fractional_strong_domination,
    independent_domination_number,
    representation_from_json_dict,
    representation_value,
    total_domination_number,
    verify_gram_row_bound,
    verify_representation_connectivity_bound,
    verify_spectral_connectivity_bound,
)
from .errors import CapExceeded, InputFormatError
from .graphs import (
    Graph,
    check_vertex_count,
    complement,
    complete_graph,
    cycle_graph,
    lambda_max,
    laplacian_spectrum,
    load_graph,
    random_gnp,
    spectral_gap,
    turan_graph,
)
from .hypergraphs import (
    SDR_FAMILY_CAP,
    WIDTH_SEARCH_CAP,
    compare_width_conditions,
    family_from_json_dict,
    fractional_width,
    hypergraph_from_json_dict,
    incidence_representation,
    sweep_family,
    verify_fractional_width_condition,
    verify_integral_width_condition,
    width,
)
from .reports import CheckRecord, records_to_csv, records_to_json_lines
from .spectral import (
    betti_profile,
    independence_connectivity,
    verify_eigenvalue_recursion,
    verify_facet_degree_bound,
    verify_vanishing_threshold,
)


# The options whose defaults come from the environment: (option, variable,
# default when both are unset).  They are read per request, not baked into
# the shared parser.
_ENV_OPTIONS = (
    ("max_dim", "FLAGSPECTRA_MAX_DIM", None),
    ("simplex_cap", "FLAGSPECTRA_SIMPLEX_CAP", DEFAULT_SIMPLEX_CAP),
    ("exact_cap", "FLAGSPECTRA_EXACT_CAP", EXACT_SEARCH_CAP),
    ("indep_cap", "FLAGSPECTRA_INDEP_CAP", INDEP_SEARCH_CAP),
    ("width_cap", "FLAGSPECTRA_WIDTH_CAP", WIDTH_SEARCH_CAP),
    ("family_cap", "FLAGSPECTRA_FAMILY_CAP", SDR_FAMILY_CAP),
)


def _env_int(name: str, default: int | None) -> int | None:
    """Integer in plain decimal digits from the environment; unset or empty means `default`."""
    raw = os.environ.get(name)
    if not raw:
        return default
    if not (raw.isascii() and raw.isdigit()):
        raise InputFormatError(
            f"environment variable {name} must be a nonnegative integer in decimal digits, got {raw!r}"
        )
    return int(raw)


def _option(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _resolve_options(args, env: dict) -> None:
    """Fill the env-backed options of the command that the command line left
    unset, then reject negative counts and caps and tolerances that are
    negative or not finite."""
    for dest, value in env.items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)
    for dest in (*env, "graphs", "families"):
        value = getattr(args, dest, None)
        if value is not None and value < 0:
            raise InputFormatError(f"{_option(dest)} must be nonnegative, got {value}")
    for dest in ("recursion_tol", "strict_tol"):
        value = getattr(args, dest, None)
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise InputFormatError(f"{_option(dest)} must be finite and nonnegative, got {value!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; it holds no environment value."""
    parser = argparse.ArgumentParser(
        prog="flagspectra",
        description="Spectra of clique complexes, domination parameters, and "
        "disjoint-representative certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # dump-complex reads only these three; the record commands read them all
    def add_complex_options(p):
        p.add_argument("--max-dim", type=int, help="dimension cap for complexes")
        p.add_argument("--simplex-cap", type=int, help="per-dimension simplex count cap")
        p.add_argument("--output", default=None, help="output path (default: stdout)")

    def add_common(p):
        add_complex_options(p)
        p.add_argument("--seed", type=int, default=42, help="master seed, recorded in the output")
        p.add_argument("--exact-cap", type=int, help="vertex cap for exact domination searches")
        p.add_argument("--indep-cap", type=int, help="vertex cap for the independent domination search")
        p.add_argument("--width-cap", type=int, help="edge cap for exact width searches")
        p.add_argument(
            "--family-cap", type=int, help="member cap for subset sweeps and representative searches"
        )
        p.add_argument(
            "--recursion-tol",
            type=float,
            default=1e-7,
            help="slack tolerance for the eigenvalue recursion check",
        )
        p.add_argument(
            "--strict-tol",
            type=float,
            default=1e-7,
            help="strictness tolerance for fractional-width margins",
        )
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    def add_graph_source(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--graph", help="graph file (JSON or 'n m' text form)")
        src.add_argument("--turan", nargs=2, type=int, metavar=("R", "L"))
        src.add_argument("--cycle", type=int, metavar="N")
        src.add_argument("--complete", type=int, metavar="N")
        src.add_argument("--gnp", nargs=3, metavar=("N", "P", "SEED"))

    p = sub.add_parser("spectra", help="eigenvalues, Betti numbers, connectivity, and the spectral checks")
    add_graph_source(p)
    p.add_argument("--independence", action="store_true", help="analyze the independent-set complex instead")
    add_common(p)

    p = sub.add_parser("domination", help="domination parameters and representation bounds")
    add_graph_source(p)
    p.add_argument(
        "--reps",
        default="edge-incidence",
        help="comma list of representations: edge-incidence, cycle, file:PATH",
    )
    add_common(p)

    p = sub.add_parser("sdr", help="disjoint representatives for a hypergraph family")
    p.add_argument("--family", required=True, help="family JSON file")
    add_common(p)

    p = sub.add_parser("width", help="width and fractional width of a hypergraph")
    p.add_argument("--hypergraph", required=True, help="hypergraph JSON file")
    add_common(p)

    p = sub.add_parser("corpus", help="run all verifiers over seeded corpora")
    p.add_argument("--graphs", type=int, default=200, help="number of random graphs")
    p.add_argument("--nmax", type=int, default=10, help="largest random graph size")
    p.add_argument("--families", type=int, default=100, help="number of random families")
    add_common(p)

    p = sub.add_parser("dump-complex", help="dump enumerated skeleta as JSON")
    add_graph_source(p)
    p.add_argument("--independence", action="store_true")
    add_complex_options(p)

    return parser


def _resolve_graph(args) -> tuple[str, Graph]:
    """The graph source's label and graph.  Whatever the source refuses, and a
    graph without vertices, is an input error."""
    try:
        if args.graph is not None:
            label, g = args.graph, load_graph(args.graph, args.simplex_cap)
        elif args.turan is not None:
            r, ell = args.turan
            check_vertex_count(r * ell, args.simplex_cap)
            label, g = f"turan({r},{ell})", turan_graph(r, ell)
        elif args.cycle is not None:
            check_vertex_count(args.cycle, args.simplex_cap)
            label, g = f"cycle({args.cycle})", cycle_graph(args.cycle)
        elif args.complete is not None:
            check_vertex_count(args.complete, args.simplex_cap)
            label, g = f"complete({args.complete})", complete_graph(args.complete)
        else:  # the parser requires one source
            n, p, seed = int(args.gnp[0]), float(args.gnp[1]), int(args.gnp[2])
            check_vertex_count(n, args.simplex_cap)
            label, g = f"gnp(n={n},p={p},seed={seed})", random_gnp(n, p, seed)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    if g.n < 1:
        raise InputFormatError("empty graph")
    return label, g


def _meta_record(args, instance: str) -> CheckRecord:
    return CheckRecord(
        check="run_config",
        claim="configuration recorded for reproducibility",
        instance=instance,
        passed=True,
        detail=(
            f"seed={args.seed} max_dim={args.max_dim} simplex_cap={args.simplex_cap} "
            f"exact_cap={args.exact_cap} indep_cap={args.indep_cap} "
            f"width_cap={args.width_cap} family_cap={args.family_cap} "
            f"recursion_tol={args.recursion_tol:g} strict_tol={args.strict_tol:g}"
        ),
    )


def _value_record(check: str, claim: str, instance: str, value: float, k: int | None = None, detail: str = "") -> CheckRecord:
    return CheckRecord(
        check=check, claim=claim, instance=instance, k=k, lhs=value, passed=True, detail=detail
    )


def cmd_spectra(args) -> list[CheckRecord]:
    label, g = _resolve_graph(args)
    base = complement(g) if args.independence else g
    if args.independence:
        label = f"independence({label})"
    records = [_meta_record(args, label)]
    max_dim = args.max_dim if args.max_dim is not None else base.n - 1
    x = build_flag_complex(base, max_dim=max_dim, simplex_cap=args.simplex_cap)
    profile = betti_profile(x)
    spectrum = laplacian_spectrum(base)
    if base.n >= 2:
        records.append(
            _value_record("spectral_gap", "second smallest Laplacian eigenvalue", label, float(spectrum[1]))
        )
    records.append(
        _value_record("lambda_max", "largest Laplacian eigenvalue", label, float(spectrum[-1]))
    )
    for k, mu in enumerate(profile.mins):
        if mu is None:
            break
        records.append(
            _value_record("min_hodge_eigenvalue", "smallest degree-k Laplacian eigenvalue", label, mu, k=k)
        )
    for k, b in enumerate(profile.betti):
        records.append(
            _value_record("reduced_betti", "reduced Betti number of the complex", label, float(b), k=k)
        )
    eta = profile.connectivity
    records.append(
        CheckRecord(
            check="connectivity",
            claim="one plus least dimension with nonvanishing reduced cohomology",
            instance=label,
            lhs=None if eta.infinite else float(eta.floor),
            passed=True,
            detail=eta.describe(),
        )
    )
    records.extend(verify_eigenvalue_recursion(profile, base.n, instance=label, tol=args.recursion_tol))
    if base.n >= 2:
        records.extend(verify_vanishing_threshold(profile, float(spectrum[1]), base.n, instance=label))
    records.extend(verify_facet_degree_bound(x, instance=label))
    return records


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise InputFormatError(f"{path}: {exc}") from exc


def _parse_reps(spec: str, g: Graph):
    reps = []
    names = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "edge-incidence":
            # None marks it inapplicable: an edgeless graph has no incidence vectors
            reps.append(edge_incidence_representation(g) if g.num_edges else None)
        elif part == "cycle":
            if g.n % 3 != 0 or g != cycle_graph(g.n):
                raise InputFormatError("cycle representation requires the cycle graph on 3k vertices")
            reps.append(cycle_representation(g.n // 3))
        elif part.startswith("file:"):
            reps.append(representation_from_json_dict(g, _load_json(part[5:])))
        else:
            raise InputFormatError(f"unknown representation {part!r}")
        names.append(part)
    if not reps:
        raise InputFormatError("no representations given")
    return names, reps


def cmd_domination(args) -> list[CheckRecord]:
    label, g = _resolve_graph(args)
    records = [_meta_record(args, label)]
    for fn, cap in (
        (domination_number, args.exact_cap),
        (total_domination_number, args.exact_cap),
        (independent_domination_number, args.indep_cap),
    ):
        try:
            rep = fn(g, cap=cap)
        except ValueError as exc:
            records.append(
                CheckRecord(
                    check=fn.__name__, claim="exact parameter", instance=label, passed=True, detail=str(exc)
                )
            )
            continue
        records.append(
            _value_record(rep.parameter, "exact parameter with witness", label, float(rep.value), detail=f"witness={rep.witness}")
        )
    frac = fractional_strong_domination(g)
    records.append(
        _value_record(frac.parameter, "strong fractional domination optimum", label, float(frac.value), detail=frac.notes)
    )
    names, reps = _parse_reps(args.reps, g)
    lam = lambda_max(g)
    values = []
    for name, rep in zip(names, reps):
        if rep is None:
            records.append(
                CheckRecord(
                    check="representation_value",
                    claim="covering optimum over the representation Gram matrix",
                    instance=f"{label} rep={name}",
                    passed=None,
                    detail="inapplicable: edge incidence representation needs at least one edge",
                )
            )
            continue
        values.append(representation_value(rep))
        records.append(
            _value_record(
                "representation_value",
                "covering optimum over the representation Gram matrix",
                f"{label} rep={name}",
                float(values[-1].value),
            )
        )
        records.append(verify_gram_row_bound(lam, rep, instance=f"{label} rep={name}"))
    if values:
        bound = best_representation_value(values)
        records.append(
            _value_record(
                bound.parameter,
                "certified lower bound from the supplied representations",
                label,
                float(bound.value),
            )
        )
    eta = independence_connectivity(g, simplex_cap=args.simplex_cap)
    records.append(verify_spectral_connectivity_bound(g.n, lam, eta, instance=label))
    if values:
        records.append(verify_representation_connectivity_bound(bound, eta, instance=label))
    return records


def cmd_sdr(args) -> list[CheckRecord]:
    label = args.family
    fam = family_from_json_dict(_load_json(label))
    records = [_meta_record(args, label)]
    sweep = sweep_family(fam, width_cap=args.width_cap, family_cap=args.family_cap)
    search = sweep.search
    records.append(
        CheckRecord(
            check="sdr_search",
            claim="exhaustive search for a system of disjoint representatives",
            instance=label,
            passed=True,
            detail=(
                f"representatives {search.representatives}"
                if search.representatives is not None
                else f"none exist (search hash {search.transcript_hash[:16]})"
            ),
        )
    )
    records.extend(compare_width_conditions(sweep, instance=label, tol=args.strict_tol))
    return records


def cmd_width(args) -> list[CheckRecord]:
    label = args.hypergraph
    h = hypergraph_from_json_dict(_load_json(label))
    records = [_meta_record(args, label)]
    w, witness = width(h, cap=args.width_cap)
    records.append(
        _value_record("width", "fewest edges meeting every edge", label, float(w), detail=f"witness edges {witness}")
    )
    wstar = fractional_width(h)
    records.append(_value_record("fractional_width", "covering LP optimum", label, wstar))
    records.append(
        CheckRecord(
            check="width_relaxation",
            claim="fractional width <= width",
            instance=label,
            lhs=wstar,
            rhs=float(w),
            slack=float(w) - wstar,
            passed=wstar <= w + 1e-7,
        )
    )
    rep_value = representation_value(incidence_representation(h))
    records.append(
        CheckRecord(
            check="incidence_width_identity",
            claim="line-graph incidence representation value == fractional width",
            instance=label,
            lhs=float(rep_value.value),
            rhs=wstar,
            slack=abs(float(rep_value.value) - wstar),
            passed=abs(float(rep_value.value) - wstar) <= 1e-6,
        )
    )
    return records


def cmd_corpus(args) -> list[CheckRecord]:
    records = [_meta_record(args, f"corpus(seed={args.seed})")]
    sizes = tuple(n for n in corpus_mod.GNP_SIZES if n <= args.nmax)
    if args.graphs > 0 and not sizes:
        raise InputFormatError(
            f"--nmax {args.nmax} leaves no random graph size (smallest is {corpus_mod.GNP_SIZES[0]})"
        )
    graphs = corpus_mod.gnp_corpus(count=args.graphs, seed=args.seed, sizes=sizes)
    graphs += corpus_mod.turan_corpus()
    graphs += corpus_mod.cycle_corpus()
    for label, g in graphs:
        try:
            x = build_flag_complex(g, max_dim=g.n - 1, simplex_cap=args.simplex_cap)
            profile = betti_profile(x)  # raises on kernel/rank disagreement
            spectrum = laplacian_spectrum(g)
            gap, lam = float(spectrum[1]), float(spectrum[-1])
            records.extend(verify_eigenvalue_recursion(profile, g.n, instance=label, tol=args.recursion_tol))
            records.extend(verify_vanishing_threshold(profile, gap, g.n, instance=label))
            records.append(
                CheckRecord(
                    check="hodge_consistency",
                    claim="kernel-count Betti equals rank-nullity Betti in every dimension",
                    instance=label,
                    passed=True,
                    detail=f"betti={list(profile.betti)}",
                )
            )
            mu0 = profile.mins[0]
            records.append(
                CheckRecord(
                    check="gap_consistency",
                    claim="smallest degree-0 Laplacian eigenvalue equals the spectral gap",
                    instance=label,
                    lhs=mu0,
                    rhs=gap,
                    slack=abs(mu0 - gap),
                    passed=abs(mu0 - gap) <= 1e-8,
                )
            )
            gap_comp = spectral_gap(complement(g))
            records.append(
                CheckRecord(
                    check="complement_spectrum",
                    claim="lambda_max(G) == n - lambda_2(complement)",
                    instance=label,
                    lhs=lam,
                    rhs=g.n - gap_comp,
                    slack=abs(lam - (g.n - gap_comp)),
                    passed=abs(lam - (g.n - gap_comp)) <= 1e-8,
                )
            )
            records.extend(verify_facet_degree_bound(x, instance=label))
            eta = independence_connectivity(g, simplex_cap=args.simplex_cap)
            records.append(verify_spectral_connectivity_bound(g.n, lam, eta, instance=label))
            if g.num_edges:
                rep = edge_incidence_representation(g)
                records.append(verify_gram_row_bound(lam, rep, instance=label))
                bound = best_representation_value([representation_value(rep)])
                records.append(verify_representation_connectivity_bound(bound, eta, instance=label))
        except (CapExceeded, RuntimeError, ValueError) as exc:
            records.append(_error_record(label, exc))
    for label, fam in corpus_mod.family_corpus(count=args.families, seed=args.seed):
        try:
            sweep = sweep_family(fam, width_cap=args.width_cap, family_cap=args.family_cap)
            records.extend(verify_fractional_width_condition(sweep, instance=label, tol=args.strict_tol))
            records.extend(verify_integral_width_condition(sweep, instance=label))
        except (CapExceeded, RuntimeError, ValueError) as exc:
            records.append(_error_record(label, exc))
    records.extend(_summaries(records))
    return records


def _error_record(label: str, exc: Exception) -> CheckRecord:
    return CheckRecord(
        check="error",
        claim="instance-level failure",
        instance=label,
        passed=False,
        detail=f"{type(exc).__name__}: {exc}",
    )


def _summaries(records) -> list[CheckRecord]:
    by_check: dict[str, list[CheckRecord]] = {}
    for rec in records:
        by_check.setdefault(rec.check, []).append(rec)
    out = []
    for name in sorted(by_check):
        recs = by_check[name]
        passed = sum(1 for r in recs if r.passed is True)
        failed = sum(1 for r in recs if r.failed)
        undecided = sum(1 for r in recs if r.inconclusive)
        slacks = [r.slack for r in recs if r.slack is not None]
        worst = min(slacks) if slacks else None
        out.append(
            CheckRecord(
                check="summary",
                claim=f"totals for {name}",
                instance=f"corpus:{name}",
                lhs=float(passed),
                rhs=float(failed),
                slack=worst,
                passed=failed == 0,
                detail=f"pass={passed} fail={failed} inconclusive={undecided}",
            )
        )
    return out


def cmd_dump_complex(args) -> str:
    label, g = _resolve_graph(args)
    base = complement(g) if args.independence else g
    max_dim = args.max_dim if args.max_dim is not None else base.n - 1
    x = build_flag_complex(base, max_dim=max_dim, simplex_cap=args.simplex_cap)
    payload = {
        "instance": label if not args.independence else f"independence({label})",
        "dims": list(x.counts()),
        "skeleta": {str(k): [list(s) for s in x.skeleta[k]] for k in range(x.max_dim + 1)},
    }
    return json.dumps(payload, separators=(", ", ": "), sort_keys=True) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        # the environment is read and checked before parsing, so a malformed
        # variable exits 2 even with --help or with its option given
        env = {dest: _env_int(name, default) for dest, name, default in _ENV_OPTIONS}
        args = build_parser().parse_args(argv)
        _resolve_options(args, env)
        if args.command == "dump-complex":
            _emit(cmd_dump_complex(args), args.output)
            return 0
        handler = {
            "spectra": cmd_spectra,
            "domination": cmd_domination,
            "sdr": cmd_sdr,
            "width": cmd_width,
            "corpus": cmd_corpus,
        }[args.command]
        records = handler(args)
    except SystemExit as exc:  # argparse: --help or a usage error
        return int(exc.code) if exc.code else 0
    except CapExceeded as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return 3
    except (InputFormatError, FileNotFoundError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except RuntimeError as exc:
        # numerical failure surfaced by a check (rank mismatch, stalled solve)
        sys.stderr.write(f"check failed: {exc}\n")
        return 1
    except ValueError as exc:  # input is checked where it is read, so this is a bug
        sys.stderr.write(f"internal error: {exc}\n")
        return 1
    text = records_to_csv(records) if args.fmt == "csv" else records_to_json_lines(records)
    _emit(text, args.output)
    return 1 if any(rec.failed for rec in records) else 0


if __name__ == "__main__":
    sys.exit(main())
