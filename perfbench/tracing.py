"""Per-layer tracing by wrapping graphsep's public functions.

The benchmark does not edit the package.  Tracer.install() replaces each
target function with a timing wrapper in every graphsep module that binds
it (``from .matrix import kron`` makes a second binding in separability),
and uninstall() puts every original object back.  Spans stay in memory
until the run ends; a target that no longer exists is recorded as absent
and its metrics are left out rather than reported as errors.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns

# (span name, defining module, attribute path)
TARGETS = (
    ("matrix.symmatrix.check", "graphsep.matrix", "SymMatrix.__post_init__"),
    ("matrix.kron", "graphsep.matrix", "kron"),
    ("matrix.partial_transpose", "graphsep.matrix", "partial_transpose"),
    ("matrix.is_psd_exact", "graphsep.matrix", "is_psd_exact"),
    ("matrix.eigenvalues_sym", "graphsep.matrix", "eigenvalues_sym"),
    ("graphs.laplacian", "graphsep.graphs", "laplacian"),
    ("graphs.density_matrix", "graphsep.graphs", "density_matrix"),
    ("graphs.separable_edge_pool", "graphsep.graphs", "separable_edge_pool"),
    ("graphs.entangled_edge_pool", "graphsep.graphs", "entangled_edge_pool"),
    ("separability.ppt_test", "graphsep.separability", "ppt_test"),
    ("separability.degree_criterion", "graphsep.separability", "degree_criterion"),
    ("separability.all_separable_certificate", "graphsep.separability",
     "all_separable_certificate"),
    ("separability.block_lss_certificate", "graphsep.separability",
     "block_lss_certificate"),
    ("separability.pe_matching_certificate", "graphsep.separability",
     "pe_matching_certificate"),
    ("separability.reconstruct", "graphsep.separability", "reconstruct"),
    ("separability.revalidate", "graphsep.separability", "revalidate"),
    ("separability.verdict", "graphsep.separability", "verdict"),
    ("report.analyze", "graphsep.report", "analyze"),
    ("report.render_text", "graphsep.report", "render_text"),
    ("report.report_json_dict", "graphsep.report", "report_json_dict"),
    ("graphfile.parse_graph_text", "graphsep.graphfile", "parse_graph_text"),
    ("harness.suite_instance", "graphsep.harness", "suite_instance"),
    ("harness.run_suite", "graphsep.harness", "run_suite"),
    ("cli.main", "graphsep.cli", "main"),
)

CERTIFICATES = (
    "separability.all_separable_certificate",
    "separability.block_lss_certificate",
    "separability.pe_matching_certificate",
)


def _count_dense(counts, args, result):
    counts["symmatrix.dense_entries"] += len(args[0].rows) ** 2


def _count_order(counts, args, result):
    counts["is_psd_exact.order_sum"] += args[0].order


def _count_hit(counts, args, result):
    counts["certificates.hits"] += result is not None


def _count_decided(counts, args, result):
    counts["verdict.decided"] += result.status.value != "unknown"


COUNTERS = {
    "matrix.symmatrix.check": _count_dense,
    "matrix.is_psd_exact": _count_order,
    "separability.verdict": _count_decided,
    **{name: _count_hit for name in CERTIFICATES},
}

# Per-layer metrics: (name, unit, better, spans, measure).  measure is
# "calls" or "self_ms" summed over the spans, ("count", key) for a counter,
# or ("ratio", key) for a counter divided by the spans' calls.  The first
# three kinds are per loop op; cli.main is per command-line call.
LAYER_METRICS = (
    ("matrix.symmatrix.constructions", "count/op", "lower",
     ("matrix.symmatrix.check",), "calls"),
    ("matrix.symmatrix.dense_entries", "count/op", "lower",
     ("matrix.symmatrix.check",), ("count", "symmatrix.dense_entries")),
    ("matrix.symmatrix.check_ms", "ms/op", "lower",
     ("matrix.symmatrix.check",), "self_ms"),
    ("graphs.laplacian.calls", "count/op", "lower", ("graphs.laplacian",), "calls"),
    ("graphs.laplacian.self_ms", "ms/op", "lower", ("graphs.laplacian",), "self_ms"),
    ("graphs.density_matrix.calls", "count/op", "lower",
     ("graphs.density_matrix",), "calls"),
    ("graphs.density_matrix.self_ms", "ms/op", "lower",
     ("graphs.density_matrix",), "self_ms"),
    ("matrix.partial_transpose.calls", "count/op", "lower",
     ("matrix.partial_transpose",), "calls"),
    ("matrix.partial_transpose.self_ms", "ms/op", "lower",
     ("matrix.partial_transpose",), "self_ms"),
    ("matrix.eigenvalues_sym.calls", "count/op", "lower",
     ("matrix.eigenvalues_sym",), "calls"),
    ("matrix.eigenvalues_sym.self_ms", "ms/op", "lower",
     ("matrix.eigenvalues_sym",), "self_ms"),
    ("separability.ppt_test.calls", "count/op", "lower",
     ("separability.ppt_test",), "calls"),
    ("separability.ppt_test.self_ms", "ms/op", "lower",
     ("separability.ppt_test",), "self_ms"),
    ("matrix.is_psd_exact.calls", "count/op", "lower", ("matrix.is_psd_exact",), "calls"),
    ("matrix.is_psd_exact.self_ms", "ms/op", "lower",
     ("matrix.is_psd_exact",), "self_ms"),
    ("matrix.is_psd_exact.order_sum", "count/op", "lower",
     ("matrix.is_psd_exact",), ("count", "is_psd_exact.order_sum")),
    ("matrix.kron.calls", "count/op", "lower", ("matrix.kron",), "calls"),
    ("matrix.kron.self_ms", "ms/op", "lower", ("matrix.kron",), "self_ms"),
    ("separability.reconstruct.self_ms", "ms/op", "lower",
     ("separability.reconstruct",), "self_ms"),
    ("separability.revalidate.calls", "count/op", "lower",
     ("separability.revalidate",), "calls"),
    ("separability.revalidate.self_ms", "ms/op", "lower",
     ("separability.revalidate",), "self_ms"),
    ("separability.degree_criterion.calls", "count/op", "lower",
     ("separability.degree_criterion",), "calls"),
    ("separability.degree_criterion.self_ms", "ms/op", "lower",
     ("separability.degree_criterion",), "self_ms"),
    ("separability.certificates.calls", "count/op", "lower", CERTIFICATES, "calls"),
    ("separability.certificates.self_ms", "ms/op", "lower", CERTIFICATES, "self_ms"),
    ("separability.certificates.hit_ratio", "ratio", "higher",
     CERTIFICATES, ("ratio", "certificates.hits")),
    ("separability.checks_per_op", "count/op", "lower",
     ("separability.degree_criterion", "separability.ppt_test") + CERTIFICATES, "calls"),
    ("separability.decided_ratio", "ratio", "higher",
     ("separability.verdict",), ("ratio", "verdict.decided")),
    ("separability.verdict.calls", "count/op", "lower", ("separability.verdict",), "calls"),
    ("separability.verdict.self_ms", "ms/op", "lower",
     ("separability.verdict",), "self_ms"),
    ("report.analyze.self_ms", "ms/op", "lower", ("report.analyze",), "self_ms"),
    ("report.render.self_ms", "ms/op", "lower",
     ("report.render_text", "report.report_json_dict"), "self_ms"),
    ("graphfile.parse.calls", "count/op", "lower",
     ("graphfile.parse_graph_text",), "calls"),
    ("graphfile.parse.self_ms", "ms/op", "lower",
     ("graphfile.parse_graph_text",), "self_ms"),
    ("harness.suite_instance.calls", "count/op", "lower",
     ("harness.suite_instance",), "calls"),
    ("harness.suite_instance.self_ms", "ms/op", "lower",
     ("harness.suite_instance",), "self_ms"),
    ("graphs.edge_pool.calls", "count/op", "lower",
     ("graphs.separable_edge_pool", "graphs.entangled_edge_pool"), "calls"),
    ("graphs.edge_pool.self_ms", "ms/op", "lower",
     ("graphs.separable_edge_pool", "graphs.entangled_edge_pool"), "self_ms"),
    ("harness.run_suite.self_ms", "ms/op", "lower", ("harness.run_suite",), "self_ms"),
    ("cli.main.self_ms", "ms/call", "lower", ("cli.main",), "self_ms"),
)

# Measured by the worker around the traced and untraced loops.
OVERHEAD_METRICS = (
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _resolve(module_name, path):
    """(owner, attribute, object) for a dotted attribute path, or None."""
    owner = sys.modules.get(module_name) or importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


def graphsep_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "graphsep" or name.startswith("graphsep."))]


class Tracer:
    """Spans and counters for the calls made while installed.

    A span is (id, parent id, name, op, start ns, end ns, self ns); self
    time is the span's duration minus the time its child spans cover.  The
    op field is set by the caller before each operation.
    """

    def __init__(self):
        self.spans = []
        keys = ("symmatrix.dense_entries", "is_psd_exact.order_sum",
                "certificates.hits", "verdict.decided")
        self.counts = dict.fromkeys(keys, 0)
        self.cli_counts = dict.fromkeys(keys, 0)
        self.op = 0
        self.absent = []
        self._stack = []
        self._next_id = 0
        self._patches = []

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((span_id, parent, name, self.op, start, end,
                              end - start - frame[1]))
            if count is not None:
                count(self.counts if self.op >= 0 else self.cli_counts, args, result)
            return result

        return traced

    def install(self):
        found = [(name, _resolve(module_name, path)) for name, module_name, path in TARGETS]
        modules = graphsep_modules()
        for name, target in found:
            if target is None:
                self.absent.append(name)
                continue
            owner, attr, original = target
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                bindings = [(owner, attr)]
            else:
                bindings = [(m, key) for m in modules
                            for key, value in vars(m).items() if value is original]
            for target, key in bindings:
                self._patches.append((target, key, original))
                setattr(target, key, wrapper)
        return self

    def uninstall(self):
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def self_ns_by_op(self):
        out = {}
        for span in self.spans:
            out[span[3]] = out.get(span[3], 0) + span[6]
        return out

    def layer_metrics(self, n_ops, n_cli):
        """Per-layer metrics over loop ops (op >= 0) and CLI calls (op < 0)."""
        loop, cli = {}, {}
        for _, _, name, op, start, end, self_ns in self.spans:
            stats = (loop if op >= 0 else cli).setdefault(name, [0, 0])
            stats[0] += 1
            stats[1] += self_ns
        out = {}
        for name, unit, _, spans, measure in LAYER_METRICS:
            if any(s in self.absent for s in spans):
                continue
            per_call = name.startswith("cli.")
            stats, base = (cli, n_cli) if per_call else (loop, n_ops)
            calls = sum(stats.get(s, (0, 0))[0] for s in spans)
            if measure == "calls":
                value = calls / max(base, 1)
            elif measure == "self_ms":
                value = sum(stats.get(s, (0, 0))[1] for s in spans) / 1e6 / max(base, 1)
            elif measure[0] == "count":
                value = self.counts[measure[1]] / max(base, 1)
            else:
                value = self.counts[measure[1]] / calls if calls else 0.0
            out[name] = {"value": value, "unit": unit}
        return out
