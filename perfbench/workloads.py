"""Seeded inputs for the three benchmark workloads.

Everything here is plain Python with no graphsep import: the benchmark makes
its inputs from the seed, and the program under test only ever sees the
generated graph texts, edge lists and suite parameters.

Each workload is a fixed list of slots (family, grid, size).  The seed picks
the random content of every slot (which edges, which hub, which
permutation), never the slot list itself, so every seed produces the same
mix of families and sizes and the cost of one pass barely depends on the
seed.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("corpus-analyze", "sparse-large", "suites")

# Statuses that follow from the family alone.  Every graph op is also
# checked against the numerical oracle.
KNOWN_STATUS = {
    "complete": "separable",
    "pe-matching": "separable",
    "all-separable": "separable",
    "single-edge": "entangled",
    "fan": "entangled",
    "star": "entangled",
}


def status_error(op, status):
    """Why status is wrong for a graph op, or None when it is right."""
    expect = op["expect"]
    if expect is not None and status != expect:
        return f"{op['family']} {op['dims']}: got {status}, family answer {expect}"
    if (status == "entangled") != op["oracle_entangled"]:
        return f"{op['family']} {op['dims']}: got {status}, oracle disagrees"
    return None


# corpus-analyze: (family, p, q, a, b, cli).  a and b are family sizes:
# fan edges; pe-matching extra separable edges; all-separable edges;
# random-mixed separable and entangled edges; pt-paired pairs and extra
# separable edges.  cli marks the slots also run through the command line.
CORPUS_SLOTS = (
    ("complete", 3, 3, 0, 0, False),
    ("complete", 4, 4, 0, 0, True),
    ("complete", 5, 5, 0, 0, False),
    ("complete", 6, 6, 0, 0, False),
    ("complete", 2, 12, 0, 0, False),
    ("complete", 8, 8, 0, 0, False),
    ("star", 3, 3, 0, 0, False),
    ("star", 4, 4, 0, 0, False),
    ("star", 6, 6, 0, 0, True),
    ("star", 8, 8, 0, 0, False),
    ("star", 2, 16, 0, 0, False),
    ("single-edge", 3, 3, 0, 0, False),
    ("single-edge", 4, 4, 0, 0, False),
    ("single-edge", 5, 5, 0, 0, True),
    ("single-edge", 6, 6, 0, 0, False),
    ("single-edge", 8, 8, 0, 0, False),
    ("single-edge", 2, 16, 0, 0, False),
    ("pe-matching", 2, 4, 1, 0, False),
    ("pe-matching", 2, 6, 2, 0, False),
    ("pe-matching", 2, 8, 3, 0, True),
    ("pe-matching", 2, 12, 4, 0, False),
    ("pe-matching", 2, 16, 6, 0, False),
    ("random-mixed", 3, 3, 4, 1, False),
    ("random-mixed", 4, 4, 6, 2, True),
    ("random-mixed", 5, 5, 6, 3, False),
    ("random-mixed", 6, 6, 8, 3, False),
    ("random-mixed", 8, 8, 10, 4, False),
    ("all-separable", 3, 3, 4, 0, False),
    ("all-separable", 4, 4, 6, 0, True),
    ("all-separable", 5, 5, 6, 0, False),
    ("all-separable", 6, 6, 6, 0, False),
    ("all-separable", 8, 8, 4, 0, False),
    ("pt-paired", 3, 3, 1, 1, False),
    ("pt-paired", 4, 4, 2, 2, True),
    ("pt-paired", 6, 6, 2, 3, False),
    ("pt-paired", 8, 8, 3, 2, False),
    ("pt-paired", 2, 12, 3, 2, False),
)

# Independent draws of every corpus slot in one pass.  Several draws per
# slot keep the per-op latency percentiles from hinging on one random graph.
CORPUS_COPIES = 3

# sparse-large: same fields; every graph has at most 8 edges except the
# pe-matching rows (Q edges) and the dense 16x16 star kept as a contrast.
# The command-line slots are small, so interpreter start-up dominates them.
SPARSE_SLOTS = (
    ("single-edge", 12, 12, 0, 0, False),
    ("single-edge", 16, 16, 0, 0, False),
    ("single-edge", 20, 20, 0, 0, False),
    ("single-edge", 30, 30, 0, 0, False),
    ("single-edge", 2, 32, 0, 0, True),
    ("single-edge", 2, 48, 0, 0, True),
    ("single-edge", 2, 64, 0, 0, False),
    ("fan", 12, 12, 3, 0, False),
    ("fan", 16, 16, 4, 0, False),
    ("fan", 20, 20, 2, 0, False),
    ("fan", 30, 30, 3, 0, False),
    ("fan", 2, 64, 4, 0, False),
    ("pt-paired", 12, 12, 2, 0, False),
    ("pt-paired", 12, 12, 4, 0, False),
    ("pt-paired", 2, 32, 4, 0, True),
    ("pt-paired", 2, 48, 4, 0, False),
    ("pt-paired", 2, 64, 4, 0, False),
    ("all-separable", 12, 12, 1, 0, False),
    ("all-separable", 12, 12, 2, 0, False),
    ("all-separable", 2, 32, 8, 0, False),
    ("pe-matching", 2, 32, 0, 0, True),
    ("pe-matching", 2, 48, 0, 0, False),
    ("pe-matching", 2, 64, 0, 0, False),
    ("star", 16, 16, 0, 0, False),
)

# suites: (suite id, p, q) with SUITE_TRIALS single-trial runs each per pass.
SUITE_SLOTS = (
    (0, 3, 3),
    (0, 4, 4),
    (1, 3, 3),
    (1, 4, 4),
    (2, 3, 3),
    (2, 4, 4),
    (4, 3, 3),
    (4, 4, 4),
    (5, 3, 3),
    (5, 4, 4),
    (7, 2, 4),
    (7, 2, 6),
)
SUITE_TRIALS = 80
# Trials in each `graphsep verify` child of the CLI metric.
SUITE_CLI_TRIALS = 10


def _entangled_edge(rng, p, q):
    i, s = sorted(rng.sample(range(1, p + 1), 2))
    j, t = rng.sample(range(1, q + 1), 2)
    return (i, j, s, t)


def _separable_edge(rng, p, q):
    if q >= 2 and (p < 2 or rng.random() < 0.5):
        i = rng.randint(1, p)
        j, t = sorted(rng.sample(range(1, q + 1), 2))
        return (i, j, i, t)
    j = rng.randint(1, q)
    i, s = sorted(rng.sample(range(1, p + 1), 2))
    return (i, j, s, j)


def _key(e):
    """Orientation-free identity of an edge (i, j, s, t)."""
    a, b = (e[0], e[1]), (e[2], e[3])
    return (a, b) if a <= b else (b, a)


def _add_distinct(edges, seen, make, count):
    while count:
        e = make()
        if _key(e) not in seen:
            seen.add(_key(e))
            edges.append(e)
            count -= 1


def family_edges(rng, family, p, q, a, b):
    """Edge list (i, j, s, t) for one slot, drawn from rng."""
    edges, seen = [], set()
    if family == "complete":
        verts = [(i, j) for i in range(1, p + 1) for j in range(1, q + 1)]
        return [u + v for x, u in enumerate(verts) for v in verts[x + 1:]]
    if family == "star":
        return [(1, 1, i, j) for i in range(1, p + 1) for j in range(1, q + 1)
                if (i, j) != (1, 1)]
    if family == "single-edge":
        return [_entangled_edge(rng, p, q)]
    if family == "fan":
        hub = (rng.randint(1, p), rng.randint(1, q))
        partners = [(i, j) for i in range(1, p + 1) for j in range(1, q + 1)
                    if i != hub[0] and j != hub[1]]
        return [hub + w for w in rng.sample(partners, a)]
    if family == "pe-matching":
        perm = list(range(1, q + 1))
        while any(perm[j] == j + 1 for j in range(q)):
            rng.shuffle(perm)
        edges = [(1, j, 2, perm[j - 1]) for j in range(1, q + 1)]
        seen.update(_key(e) for e in edges)
        _add_distinct(edges, seen, lambda: _separable_edge(rng, p, q), a)
        return edges
    if family == "all-separable":
        _add_distinct(edges, seen, lambda: _separable_edge(rng, p, q), a)
        return edges
    if family == "random-mixed":
        _add_distinct(edges, seen, lambda: _separable_edge(rng, p, q), a)
        _add_distinct(edges, seen, lambda: _entangled_edge(rng, p, q), b)
        return edges
    if family == "pt-paired":
        # Each entangled edge {(i,j),(s,t)} comes with its partial-transpose
        # image {(i,t),(s,j)}, so every vertex degree survives the transpose.
        while len(edges) < 2 * a:
            i, j, s, t = _entangled_edge(rng, p, q)
            pair = [(i, j, s, t), (i, t, s, j)]
            if all(_key(e) not in seen for e in pair):
                seen.update(_key(e) for e in pair)
                edges.extend(pair)
        _add_distinct(edges, seen, lambda: _separable_edge(rng, p, q), b)
        return edges
    raise ValueError(f"unknown family {family!r}")


def graph_text(family, p, q, edges):
    lines = [f"# {family}", f"dims {p} {q}"]
    lines += [f"edge {i} {j} {s} {t}" for i, j, s, t in edges]
    return "\n".join(lines) + "\n"


def _graph_ops(rng, slots):
    ops = []
    for family, p, q, a, b, cli in slots:
        edges = family_edges(rng, family, p, q, a, b)
        ops.append({
            "family": family,
            "dims": [p, q],
            "edges": [list(e) for e in edges],
            "expect": KNOWN_STATUS.get(family),
            "cli": cli,
        })
    return ops


def generate(workload, seed, smoke=False):
    """The op list of one workload; the same seed gives the same list.

    smoke keeps only the slots marked for the command line, which are
    small, so the whole benchmark runs in seconds.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus-analyze":
        if smoke:
            slots = [s for s in CORPUS_SLOTS if s[5]]
        else:
            # Only the first draw of a slot goes to the command line.
            extra = [s[:5] + (False,) for s in CORPUS_SLOTS] * (CORPUS_COPIES - 1)
            slots = CORPUS_SLOTS + tuple(extra)
        ops = _graph_ops(rng, slots)
        for op in ops:
            op["text"] = graph_text(op["family"], *op["dims"], op["edges"])
    elif workload == "sparse-large":
        slots = [s for s in SPARSE_SLOTS if s[5]] if smoke else SPARSE_SLOTS
        ops = _graph_ops(rng, slots)
    elif workload == "suites":
        trials = 2 if smoke else SUITE_TRIALS
        ops = [
            {"family": f"suite{suite}", "suite": suite, "dims": [p, q],
             "seed": rng.getrandbits(62)}
            for suite, p, q in SUITE_SLOTS
            for _ in range(trials)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def suite_cli_commands(seed, smoke=False):
    """One `graphsep verify` argument list per (suite id, grid) of the mix."""
    rng = random.Random(f"suites-cli:{seed}")
    trials = 2 if smoke else SUITE_CLI_TRIALS
    # The smaller grid of each suite id, so interpreter start-up dominates.
    slots = SUITE_SLOTS[::4] if smoke else SUITE_SLOTS[::2]
    return [
        ["verify", "--theorem", str(suite), "--p", str(p), "--q", str(q),
         "--trials", str(trials), "--seed", str(rng.getrandbits(62))]
        for suite, p, q in slots
    ]


def corpus_hash(ops):
    """SHA-256 of the canonical JSON of the generated inputs."""
    # Imported here: the worker imports this module too, and hashlib's
    # OpenSSL backend would add about 3 MB to its measured peak memory.
    import hashlib

    blob = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
