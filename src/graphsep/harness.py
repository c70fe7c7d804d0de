"""Randomized re-verification suites.

Each suite checks one guaranteed behavior of the classifier on freshly
generated random instances.  Trials are reproducible: trial i of a run with
master seed s derives its own 64-bit seed with a splitmix64 step, so reports
are identical run to run.
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .errors import BadDimsError, BadParamsError, BadTrialCountError, GraphFileError
from .graphfile import format_graph, write_graph_file
from .graphs import (
    Dims,
    Graph,
    _draw_edges,
    _entangled_count,
    _graph_of_pairs,
    _separable_count,
    checked_dims,
    complete_graph,
    laplacian_entries,
    linear_index,
    pe_matching_graph,
    star_graph,
    tensor_product,
)
from .matrix import exact_str, float12, is_psd_integral, partial_transpose_entries
from .report import check_grid_size, density_eigenvalues
from .separability import (
    BlockLineSumSymmetric,
    DegreeCriterionWitness,
    Status,
    all_separable_certificate,
    block_lss_certificate,
    degree_criterion,
    entangled_edge_witness,
    pe_matching_certificate,
    ppt_test,
    revalidate,
    verdict,
    witness_value,
)

MASK64 = (1 << 64) - 1

SUITE_DESCRIPTIONS = {
    0: "structural invariants and criterion cross-consistency",
    1: "one entangled edge forces entanglement",
    2: "entangled edges sharing a vertex force entanglement",
    4: "tensor products of separable factors stay separable",
    5: "complete graphs are separable, stars are entangled",
    7: "perfect entangled matchings are separable",
}

SUITE_IDS = tuple(SUITE_DESCRIPTIONS)


def trial_seed(seed: int, index: int) -> int:
    """Seed for one trial: splitmix64 output stream at the given index."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


class TrialFailure(NamedTuple):
    trial: int
    seed: int
    reason: str
    artifact: Graph


class _Trial(NamedTuple):
    """One trial's outcome; a failure is filed on artifact, or on the instance."""

    reason: str | None = None
    value: Fraction | None = None
    artifact: Graph | None = None
    unknown: bool = False


class SuiteReport(NamedTuple):
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
                    "artifact": format_graph(f.artifact),
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


def _random_edges(rng: random.Random, dims: Dims, num_entangled: int = 0, least: int = 0):
    """A uniform number, at least least, of separable edges, then
    num_entangled entangled ones, all drawn by _draw_edges."""
    return _draw_edges(rng, dims, rng.randint(least, _separable_count(dims)), num_entangled)


def _check_suite_id(suite: int) -> None:
    """BadParamsError unless suite is exactly an int (a bool or a float equal
    to one is not an id) that names a suite."""
    if type(suite) is not int or suite not in SUITE_DESCRIPTIONS:
        raise BadParamsError(
            f"unknown suite id {suite!r}; valid ids are {', '.join(map(str, SUITE_IDS))}"
        )


def suite_instance(suite: int, dims, tseed: int) -> Graph:
    """Deterministic instance for one trial, or BadDimsError, before anything is
    built, for dims the suite cannot run on: every suite stops at the reports'
    vertex bound, as suite 0 takes the float spectrum of the partial transpose."""
    _check_suite_id(suite)
    p, q = dims = check_grid_size(dims, "suites stop")
    rng = random.Random(tseed)
    if suite == 0:
        if p * q < 2:
            raise BadDimsError("cross-consistency needs at least two vertices")
        while True:
            ns = rng.randint(0, _separable_count(dims))
            ne = rng.randint(0, _entangled_count(dims))
            if ns + ne:
                return _graph_of_pairs(dims, _draw_edges(rng, dims, ns, ne))
    if suite == 7:
        if p != 2 or q < 2:
            raise BadDimsError(f"suite 7 needs a 2xQ grid with Q >= 2, got {p}x{q}")
        perm = list(range(1, q + 1))
        while any(perm[j] == j + 1 for j in range(q)):
            rng.shuffle(perm)
        matching = pe_matching_graph(dims, perm).sorted_edges
        return _graph_of_pairs(dims, [*matching, *_random_edges(rng, dims)])
    if p < 2 or q < 2:
        raise BadDimsError(f"suite {suite} needs p >= 2 and q >= 2, got {p}x{q}")
    if suite == 1:
        return _graph_of_pairs(dims, _random_edges(rng, dims, num_entangled=1))
    if suite == 2:
        if (p - 1) * (q - 1) < 2:
            raise BadDimsError(
                f"suite 2 needs at least two entangled partners per vertex, got {p}x{q}"
            )
        v = (rng.randint(1, p), rng.randint(1, q))
        partners = [
            (i, j)
            for i in range(1, p + 1)
            for j in range(1, q + 1)
            if i != v[0] and j != v[1]
        ]
        k = rng.randint(2, min(q, len(partners)))
        fan = [(v, w) if v < w else (w, v) for w in rng.sample(partners, k)]
        return _graph_of_pairs(dims, fan + _random_edges(rng, dims))
    if suite == 4:
        row, col = (
            _graph_of_pairs(Dims(m, 1), _random_edges(rng, Dims(m, 1), least=1))
            for m in (rng.randint(2, p), rng.randint(2, q))
        )
        return tensor_product(row, col)
    return complete_graph(dims)  # suite 5


def _uniform_edge_mixture(g: Graph) -> Counter:
    """degree_sum times the uniform mixture of the edges' difference
    projectors, by 0-based (row, column)."""
    mixture = Counter()
    for u, v in g.sorted_edges:
        r, c = linear_index(u, g.dims) - 1, linear_index(v, g.dims) - 1
        mixture[r, r] += 1
        mixture[c, c] += 1
        mixture[r, c] -= 1
        mixture[c, r] -= 1
    return mixture


def _run_trial(suite: int, g: Graph) -> _Trial:
    """Run one suite's checks on its instance g."""
    if suite == 1:
        if ppt_test(g):
            return _Trial("partial-transpose-stayed-positive")
        value = witness_value(g, entangled_edge_witness(g.dims, g.entangled_edges[0]))
        if value >= 0:
            return _Trial("witness-value-not-negative", value)
        if verdict(g).status != Status.ENTANGLED:
            return _Trial("verdict-not-entangled", value)
        return _Trial(value=value)
    if suite == 2:
        if verdict(g).status != Status.ENTANGLED:
            return _Trial("verdict-not-entangled")
        value = witness_value(g, entangled_edge_witness(g.dims, g.entangled_edges[0]))
        if value >= 0:
            return _Trial("witness-value-not-negative", value)
        return _Trial(value=value)
    if suite == 4:
        if block_lss_certificate(g) is None:
            return _Trial("block-certificate-missing")
        if not ppt_test(g):
            return _Trial("partial-transpose-not-positive")
        v = verdict(g)
        if v.status != Status.SEPARABLE or type(v.certificate) is not BlockLineSumSymmetric:
            return _Trial("verdict-not-separable-by-blocks")
        return _Trial()
    if suite == 5:
        v = verdict(g)
        if v.status != Status.SEPARABLE or type(v.certificate) is not BlockLineSumSymmetric:
            return _Trial("complete-not-separable-by-blocks")
        lap = laplacian_entries(g)
        if partial_transpose_entries(lap, g.dims) != lap:
            return _Trial("complete-not-fixed-by-partial-transpose")
        p, q = g.dims
        star = star_graph(g.dims)
        vs = verdict(star)
        if vs.status != Status.ENTANGLED or vs.witness is None:
            return _Trial("star-not-entangled", artifact=star)
        if vs.witness != DegreeCriterionWitness((p - 1) * q + 1, -(q - 1)):
            return _Trial("star-degree-witness-wrong-row", artifact=star)
        return _Trial()
    if suite == 7:
        cert = pe_matching_certificate(g)
        if cert is None:
            return _Trial("matching-certificate-missing")
        v = verdict(g)
        if v.status != Status.SEPARABLE or v.certificate != cert:
            return _Trial("verdict-not-separable-by-blocks")
        if not revalidate(g, v):
            return _Trial("revalidation-failed")
        if not ppt_test(g):
            return _Trial("partial-transpose-not-positive")
        return _Trial()
    # suite 0: structural invariants and cross-consistency, on integer entry
    # maps: degree_sum times the density matrix is the Laplacian
    lap = laplacian_entries(g)
    diagonal = {r: x for (r, c), x in lap.items() if r == c}
    if _uniform_edge_mixture(g) != lap or sum(diagonal.values()) != g.degree_sum:
        return _Trial("density-not-uniform-edge-mixture")
    pt = partial_transpose_entries(lap, g.dims)
    if partial_transpose_entries(pt, g.dims) != lap:
        return _Trial("partial-transpose-not-involutive")
    pt_diagonal = {r: x for (r, c), x in pt.items() if r == c}
    if sum(pt_diagonal.values()) != g.degree_sum:
        return _Trial("partial-transpose-changed-trace")
    if pt_diagonal != diagonal:
        return _Trial("partial-transpose-changed-diagonal")
    if not is_psd_integral(lap):
        return _Trial("laplacian-not-psd")
    ppt = is_psd_integral(pt)
    min_eigenvalue = density_eigenvalues(pt, g)[0]
    if abs(min_eigenvalue) > 1e-11 and (min_eigenvalue < 0) == ppt:
        return _Trial("eigenvalue-sign-disagrees-with-exact-test")
    if not ppt and (all_separable_certificate(g) or block_lss_certificate(g)):
        return _Trial("certificate-granted-despite-negative-partial-transpose")
    if ppt != (degree_criterion(g) is None):
        return _Trial("degree-and-positivity-tests-disagree")
    v = verdict(g)
    unknown = v.status == Status.UNKNOWN
    if unknown and min(g.dims) <= 2:
        return _Trial("small-grid-verdict-unknown", unknown=unknown)
    if not revalidate(g, v):
        return _Trial("revalidation-failed", unknown=unknown)
    return _Trial(unknown=unknown)


def run_suite(suite: int, dims, trials: int, seed: int, *, dump_dir=None) -> SuiteReport:
    """Run one suite and collect failures instead of raising on them."""
    _check_suite_id(suite)
    # a bool or another int subclass is neither a trial count nor a seed
    if type(trials) is not int or trials < 1:
        raise BadTrialCountError(f"trial count must be a positive integer, got {trials}")
    if type(seed) is not int or seed < 0:
        raise BadParamsError(f"seed must be a nonnegative integer, got {seed}")
    dims = checked_dims(dims)
    if dump_dir is not None:  # refused before any trial; os.path's tests never raise
        out = Path(dump_dir)
        if not os.path.isdir(next((d for d in (out, *out.parents) if os.path.exists(d)), out)):
            raise GraphFileError(f"cannot write {out}: not a directory")
    start = time.perf_counter()
    failures = []
    min_witness = None
    unknown_count = 0
    for i in range(trials):
        tseed = trial_seed(seed, i)
        g = suite_instance(suite, dims, tseed)
        t = _run_trial(suite, g)
        unknown_count += t.unknown
        if t.value is not None and (min_witness is None or t.value < min_witness):
            min_witness = t.value
        if t.reason is not None:
            failures.append(TrialFailure(i, tseed, t.reason, t.artifact or g))
            if dump_dir is not None:
                _dump_failure(dump_dir, suite, dims, i, failures[-1].artifact)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return SuiteReport(
        suite, dims, trials, seed, tuple(failures), min_witness, elapsed_ms, unknown_count
    )


def _dump_failure(dump_dir, suite: int, dims: Dims, trial: int, g: Graph) -> Path:
    out = Path(dump_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise GraphFileError(f"cannot write {out}: {exc}") from None
    path = out / f"suite{suite}-p{dims.p}q{dims.q}-trial{trial:04d}.graph"
    write_graph_file(path, g)
    return path
