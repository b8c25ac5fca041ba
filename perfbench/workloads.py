"""Seeded inputs for the benchmark workloads.

Each workload turns a seed into a pool of rounds.  A round is the
workload's unit batch: one corpus request, or one cycle of the lp-search
mix.  A request is an argv list for
`flagspectra.cli.main` (without `--output`) plus the number of instances it
verifies.  Graph, family and hypergraph inputs are written as
JSON files into the work directory here, during set-up, so the program only
ever sees generated inputs.  Nothing in this module imports flagspectra:
set-up cost is the harness's own, and a change to the program cannot change
which inputs a seed produces.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    kind: str
    instances: int = 1


# -- corpus-sweep -------------------------------------------------------------

CORPUS_GRAPHS = 14
CORPUS_FAMILIES = 10
# flagspectra's corpus always adds its fixed Turán (5) and cycle (10) sets
CORPUS_FIXED_GRAPHS = 15
CORPUS_POOL = 8


def corpus_sweep(seed: int, workdir: str) -> list[list[Request]]:
    rng = random.Random(seed)
    instances = CORPUS_GRAPHS + CORPUS_FIXED_GRAPHS + CORPUS_FAMILIES
    rounds = []
    for _ in range(CORPUS_POOL):
        argv = ("corpus", "--seed", str(rng.getrandbits(32)), "--graphs", str(CORPUS_GRAPHS), "--families", str(CORPUS_FAMILIES))
        rounds.append([Request(argv, "corpus", instances)])
    return rounds


# -- lp-search ----------------------------------------------------------------

# One round of 12.  Seed costs, fastest first: width (~0.01 s), sdr6 (~0.05 s),
# sdr7 (~0.12 s), domination (~0.14 s), sdr8 (~0.29 s).  The median request
# (6th and 7th of 12) falls inside the block of four sdr7 requests whether the
# two domination requests sort below it (a faster eigensolver), inside it or
# above it.  So latency_p50_s tracks the LP and width searches, and a linalg
# change can move lp-search only through wall_s.
LP_ROUND = ("width", "sdr7", "sdr8", "sdr6", "domination", "sdr7", "sdr8", "width", "sdr7", "domination", "sdr8", "sdr7")
# Four rounds keep set-up to 48 small files: the time to write them swings
# with file-system latency, which no calibration tracks.
LP_ROUNDS = 4


def random_family(members: int, rng: random.Random) -> dict:
    """Each member gets two random pairs from 12 points: at most 16 edges, under the width-search cap.

    Fixed edge counts and sizes keep an 8-member request's cost within
    about 10% across seeds; free sizes spread it threefold.
    """
    return {"ground": 12, "hypergraphs": [[sorted(rng.sample(range(12), 2)) for _ in range(2)] for _ in range(members)]}


def random_hypergraph(rng: random.Random) -> dict:
    ground = rng.randint(10, 14)
    edges = [sorted(rng.sample(range(ground), rng.randint(2, 3))) for _ in range(rng.randint(10, 20))]
    return {"ground": ground, "edges": edges}


def lp_search(seed: int, workdir: str) -> list[list[Request]]:
    rng = random.Random(seed)
    rounds = []
    for r in range(LP_ROUNDS):
        requests = []
        for i, kind in enumerate(LP_ROUND):
            path = os.path.join(workdir, f"lp-{r}-{i}.json")
            if kind.startswith("sdr"):
                _write_json(path, random_family(int(kind[3:]), rng))
                argv = ("sdr", "--family", path)
            elif kind == "width":
                _write_json(path, random_hypergraph(rng))
                argv = ("width", "--hypergraph", path)
            else:
                edges = [[u, v] for u in range(14) for v in range(u + 1, 14) if rng.random() < 0.75]
                _write_json(path, {"n": 14, "edges": edges})
                argv = ("domination", "--graph", path)
            requests.append(Request(argv, kind.rstrip("678")))
        rounds.append(requests)
    return rounds


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


WORKLOADS = {
    "corpus-sweep": corpus_sweep,
    "lp-search": lp_search,
}
