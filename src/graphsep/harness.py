"""Randomized re-verification suites.

Each suite checks one guaranteed behavior of the classifier on freshly
generated random instances.  Trials are reproducible: trial i of a run with
master seed s derives its own 64-bit seed with a splitmix64 step, so reports
are identical run to run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import BadDimsError, BadParamsError, BadTrialCountError
from .graphfile import format_graph, write_graph_file
from .graphs import (
    Dims,
    EdgeClass,
    Graph,
    build_graph,
    classify_edge,
    complete_graph,
    density_matrix,
    entangled_edge_pool,
    laplacian,
    linear_index,
    separable_edge_pool,
    star_graph,
    tensor_product,
)
from .matrix import (
    SymMatrix,
    eigenvalues_sym,
    exact_str,
    float12,
    is_psd_exact,
    partial_transpose,
)
from .separability import (
    BlockLineSumSymmetric,
    Status,
    all_separable_certificate,
    block_lss_certificate,
    degree_criterion,
    pe_matching_certificate,
    ppt_test,
    quadratic_witness,
    revalidate,
    verdict,
    LOW_PPT_DIMS,
)

MASK64 = (1 << 64) - 1

SUITE_IDS = (0, 1, 2, 4, 5, 7)

SUITE_DESCRIPTIONS = {
    0: "structural invariants and criterion cross-consistency",
    1: "one entangled edge forces entanglement",
    2: "entangled edges sharing a vertex force entanglement",
    4: "tensor products of separable factors stay separable",
    5: "complete graphs are separable, stars are entangled",
    7: "perfect entangled matchings are separable",
}


def trial_seed(seed: int, index: int) -> int:
    """Seed for one trial: splitmix64 output stream at the given index."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


@dataclass(frozen=True)
class TrialFailure:
    trial: int
    seed: int
    reason: str
    artifact: Graph | None = None


@dataclass(frozen=True)
class SuiteReport:
    suite: int
    dims: Dims
    trials: int
    seed: int
    failures: tuple[TrialFailure, ...]
    min_witness_value: Fraction | None
    elapsed_ms: float
    unknown_count: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self, include_elapsed: bool = True) -> dict:
        out = {
            "theorem": self.suite,
            "dims": [self.dims.p, self.dims.q],
            "trials": self.trials,
            "seed": self.seed,
            "failures": [
                {
                    "trial": f.trial,
                    "seed": f.seed,
                    "reason": f.reason,
                    "artifact": format_graph(f.artifact) if f.artifact else None,
                }
                for f in self.failures
            ],
            "min_witness_value": (
                exact_str(self.min_witness_value)
                if self.min_witness_value is not None
                else None
            ),
        }
        if include_elapsed:
            out["elapsed_ms"] = float12(self.elapsed_ms)
        return out


def _random_separable(rng: random.Random, dims: Dims, at_least_one: bool = False):
    pool = separable_edge_pool(dims)
    low = 1 if at_least_one else 0
    count = rng.randint(low, len(pool))
    return [frozenset(e) for e in rng.sample(pool, count)]


def suite_instance(suite: int, dims: Dims, tseed: int) -> Graph:
    """Deterministic instance for one trial."""
    dims = Dims(*dims)
    rng = random.Random(tseed)
    if suite == 1:
        sep = _random_separable(rng, dims)
        ent = frozenset(rng.choice(entangled_edge_pool(dims)))
        return build_graph(dims, sep + [ent])
    if suite == 2:
        v = (rng.randint(1, dims.p), rng.randint(1, dims.q))
        partners = [
            (i, j)
            for i in range(1, dims.p + 1)
            for j in range(1, dims.q + 1)
            if i != v[0] and j != v[1]
        ]
        k = rng.randint(2, min(dims.q, len(partners)))
        fan = [frozenset({v, w}) for w in rng.sample(partners, k)]
        return build_graph(dims, fan + _random_separable(rng, dims))
    if suite == 4:
        a = rng.randint(2, dims.p)
        b = rng.randint(2, dims.q)
        factors = []
        for m in (a, b):
            fdims = Dims(m, 1)
            pool = separable_edge_pool(fdims)
            count = rng.randint(1, len(pool))
            factors.append(
                build_graph(fdims, [frozenset(e) for e in rng.sample(pool, count)])
            )
        return tensor_product(factors[0], factors[1])
    if suite == 5:
        return complete_graph(dims)
    if suite == 7:
        perm = list(range(1, dims.q + 1))
        while any(perm[j] == j + 1 for j in range(dims.q)):
            rng.shuffle(perm)
        matching = [
            frozenset({(1, j), (2, perm[j - 1])}) for j in range(1, dims.q + 1)
        ]
        return build_graph(dims, matching + _random_separable(rng, dims))
    if suite == 0:
        sep_pool = separable_edge_pool(dims)
        ent_pool = entangled_edge_pool(dims)
        while True:
            ns = rng.randint(0, len(sep_pool))
            ne = rng.randint(0, len(ent_pool))
            if ns + ne:
                break
        chosen = rng.sample(sep_pool, ns) + rng.sample(ent_pool, ne)
        return build_graph(dims, [frozenset(e) for e in chosen])
    raise BadParamsError(f"unknown suite id {suite}")


def _first_entangled_edge(g: Graph):
    for pr in g.sorted_edges:
        if classify_edge(frozenset(pr)) == EdgeClass.ENTANGLED:
            return frozenset(pr)
    return None


def _uniform_edge_mixture(g: Graph) -> SymMatrix:
    n = g.n
    m = len(g.sorted_edges)
    w = Fraction(1, 2 * m)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for u, v in g.sorted_edges:
        r, c = linear_index(u, g.dims) - 1, linear_index(v, g.dims) - 1
        rows[r][r] += w
        rows[c][c] += w
        rows[r][c] -= w
        rows[c][r] -= w
    return SymMatrix(tuple(tuple(row) for row in rows))


def _run_trial(suite: int, dims: Dims, tseed: int):
    """Returns (failure reason or None, witness value or None, artifact, unknown)."""
    g = suite_instance(suite, dims, tseed)
    if suite == 1:
        if ppt_test(g):
            return "partial-transpose-stayed-positive", None, g, False
        wit = quadratic_witness(g, _first_entangled_edge(g))
        if wit.value >= 0:
            return "witness-value-not-negative", wit.value, g, False
        if verdict(g).status != Status.ENTANGLED:
            return "verdict-not-entangled", wit.value, g, False
        return None, wit.value, g, False
    if suite == 2:
        if verdict(g).status != Status.ENTANGLED:
            return "verdict-not-entangled", None, g, False
        wit = quadratic_witness(g, _first_entangled_edge(g))
        if wit.value >= 0:
            return "witness-value-not-negative", wit.value, g, False
        return None, wit.value, g, False
    if suite == 4:
        if block_lss_certificate(g) is None:
            return "block-certificate-missing", None, g, False
        if not ppt_test(g):
            return "partial-transpose-not-positive", None, g, False
        v = verdict(g)
        if v.status != Status.SEPARABLE or not isinstance(
            v.certificate, BlockLineSumSymmetric
        ):
            return "verdict-not-separable-by-blocks", None, g, False
        return None, None, g, False
    if suite == 5:
        v = verdict(g)
        if v.status != Status.SEPARABLE or not isinstance(
            v.certificate, BlockLineSumSymmetric
        ):
            return "complete-not-separable-by-blocks", None, g, False
        lap = laplacian(g)
        if partial_transpose(lap, g.dims) != lap:
            return "complete-not-fixed-by-partial-transpose", None, g, False
        star = star_graph(dims)
        vs = verdict(star)
        if vs.status != Status.ENTANGLED or vs.witness is None:
            return "star-not-entangled", None, star, False
        expected_row = (dims.p - 1) * dims.q + 1
        if (
            getattr(vs.witness, "row", None) != expected_row
            or getattr(vs.witness, "row_sum", None) != -(dims.q - 1)
        ):
            return "star-degree-witness-wrong-row", None, star, False
        return None, None, g, False
    if suite == 7:
        cert = pe_matching_certificate(g)
        if cert is None:
            return "matching-certificate-missing", None, g, False
        v = verdict(g)
        if v.status != Status.SEPARABLE:
            return "verdict-not-separable", None, g, False
        if not ppt_test(g):
            return "partial-transpose-not-positive", None, g, False
        return None, None, g, False
    # suite 0: structural invariants and cross-consistency
    lap = laplacian(g)
    sigma = density_matrix(g)
    if sigma != _uniform_edge_mixture(g):
        return "density-not-uniform-edge-mixture", None, g, False
    pt = partial_transpose(lap, g.dims)
    if partial_transpose(pt, g.dims) != lap:
        return "partial-transpose-not-involutive", None, g, False
    if pt.trace() != lap.trace():
        return "partial-transpose-changed-trace", None, g, False
    if pt.diagonal() != lap.diagonal():
        return "partial-transpose-changed-diagonal", None, g, False
    if not is_psd_exact(lap):
        return "laplacian-not-psd", None, g, False
    ppt = ppt_test(g)
    min_eigenvalue = eigenvalues_sym(partial_transpose(sigma, g.dims))[0]
    if abs(min_eigenvalue) > 1e-11 and (min_eigenvalue < 0) == ppt:
        return "eigenvalue-sign-disagrees-with-exact-test", None, g, False
    if not ppt:
        certs = [all_separable_certificate(g), block_lss_certificate(g)]
        if g.dims.p == 2:
            certs.append(pe_matching_certificate(g))
        if any(c is not None for c in certs):
            return "certificate-granted-despite-negative-partial-transpose", None, g, False
    if ppt != degree_criterion(g).holds:
        return "degree-and-positivity-tests-disagree", None, g, False
    v = verdict(g)
    unknown = v.status == Status.UNKNOWN
    if unknown and tuple(g.dims) in LOW_PPT_DIMS:
        return "small-grid-verdict-unknown", None, g, unknown
    if not revalidate(g, v):
        return "revalidation-failed", None, g, unknown
    return None, None, g, unknown


def _check_suite_dims(suite: int, dims: Dims) -> None:
    p, q = dims
    if suite == 0:
        if p * q < 2:
            raise BadDimsError("cross-consistency needs at least two vertices")
        return
    if suite == 7:
        if p != 2 or q < 2:
            raise BadDimsError(f"suite 7 needs a 2xQ grid with Q >= 2, got {p}x{q}")
        return
    if p < 2 or q < 2:
        raise BadDimsError(f"suite {suite} needs p >= 2 and q >= 2, got {p}x{q}")
    if suite == 2 and (p - 1) * (q - 1) < 2:
        raise BadDimsError(
            f"suite 2 needs at least two entangled partners per vertex, got {p}x{q}"
        )


def run_suite(
    suite: int,
    dims,
    trials: int,
    seed: int,
    *,
    dump_dir=None,
) -> SuiteReport:
    """Run one suite and collect failures instead of raising on them."""
    if suite not in SUITE_IDS:
        raise BadParamsError(
            f"unknown suite id {suite}; valid ids are {', '.join(map(str, SUITE_IDS))}"
        )
    if not isinstance(trials, int) or trials < 1:
        raise BadTrialCountError(f"trial count must be a positive integer, got {trials}")
    if seed < 0:
        raise BadParamsError("seed must be nonnegative")
    dims = Dims(*dims)
    _check_suite_dims(suite, dims)
    start = time.perf_counter()
    tseeds = [trial_seed(seed, i) for i in range(trials)]
    results = [_run_trial(suite, dims, tseed) for tseed in tseeds]

    failures = []
    min_witness = None
    unknown_count = 0
    for i, (reason, value, artifact, unknown) in enumerate(results):
        if unknown:
            unknown_count += 1
        if value is not None and (min_witness is None or value < min_witness):
            min_witness = value
        if reason is not None:
            failures.append(TrialFailure(i, tseeds[i], reason, artifact))
    if dump_dir is not None and failures:
        for f in failures:
            if f.artifact is not None:
                _dump_failure(dump_dir, suite, dims, f.trial, f.artifact)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return SuiteReport(
        suite, dims, trials, seed, tuple(failures), min_witness, elapsed_ms, unknown_count
    )


def _dump_failure(dump_dir, suite: int, dims: Dims, trial: int, g: Graph) -> Path:
    out = Path(dump_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"suite{suite}-p{dims.p}q{dims.q}-trial{trial:04d}.graph"
    write_graph_file(path, g)
    return path
