"""Spans around the public entry points of each `bihom` module.

The tracer rebinds, at runtime, every function that one `bihom` module
imports from another (plus the entry points the workloads call, and the
methods `Subspace.__init__`, `Subspace.contains[_space]`,
`TreeCochain.eval` and `HochschildCochain.eval`).  A name is rebound in
every loaded `bihom` module whose namespace holds the same object, so
calls inside the defining module and aliased imports are seen too.
Nothing under `src/` changes.

A span's self time is its duration minus the durations of its child
spans.  Counters are recorded at the same boundaries.  Work the tracer
does to count (rescanning a cochain's support, reading coefficient
sizes) runs outside the span's clock and is charged to no layer; its
total is reported as `trace.hook_s`.

Spans of hot leaf functions (tree lookups, cochain evaluation) would
number in the millions, so those layers keep only their totals; every
other span is kept in memory as (id, parent, query, name, start, end)
and written out when the run ends.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, layer, hot).  Vector helpers in `bihom.algebra`
# (vec_add, apply_table, ...) and `Mat` arithmetic are leaf arithmetic
# used by every layer; they are not wrapped, so their time is the self
# time of whichever layer calls them.
ENTRY_POINTS = [
    ("scalars", "nullspace_rows", "scalars.eliminate", False),
    ("scalars", "rank_rows", "scalars.eliminate", False),
    ("scalars", "solve_rows", "scalars.eliminate", False),
    ("scalars", "Subspace.__init__", "scalars.subspace", False),
    ("scalars", "Subspace.contains", "scalars.contains", False),
    ("scalars", "Subspace.contains_space", "scalars.contains", False),
    ("trees", "trees", "trees", True),
    ("trees", "tree_index", "trees", True),
    ("trees", "face", "trees", True),
    ("trees", "orientations", "trees", True),
    ("trees", "r0", "trees", True),
    ("trees", "ri", "trees", True),
    ("algebra", "check_dialgebra", "algebra.check", False),
    ("algebra", "check_bihom_associative", "algebra.check", False),
    ("algebra", "is_multiplicative", "algebra.check", False),
    ("algebra", "catalog", "algebra.build", False),
    ("algebra", "table_from_entries", "algebra.build", False),
    ("algebra", "map_from_entries", "algebra.build", False),
    ("algebra", "BiHomDialgebra.__init__", "algebra.build", False),
    ("algebra", "BiHomAssociativeAlgebra.__init__", "algebra.build", False),
    ("algebra", "BiHomAssociativeAlgebra.as_dialgebra", "algebra.build", False),
    ("cohomology", "dialg_coboundary_rows", "cohomology.delta_rows", False),
    ("cohomology", "hoch_coboundary_rows", "cohomology.delta_rows", False),
    ("cohomology", "dialg_compatible_space", "cohomology.compat", False),
    ("cohomology", "hoch_compatible_space", "cohomology.compat", False),
    ("cohomology", "dialg_cocycles", "cohomology.compat", False),
    ("cohomology", "hoch_cocycles", "cohomology.compat", False),
    ("cohomology", "dialg_coboundaries", "cohomology.image", False),
    ("cohomology", "hoch_coboundaries", "cohomology.image", False),
    ("cohomology", "cohomology", "cohomology.report", False),
    ("cohomology", "dialg_coboundary", "cohomology.coboundary_eval", False),
    ("cohomology", "hoch_coboundary", "cohomology.coboundary_eval", False),
    ("cohomology", "TreeCochain.eval", "cohomology.cochain_eval", True),
    ("cohomology", "HochschildCochain.eval", "cohomology.cochain_eval", True),
    ("derivations", "derivation_space", "derivations.assemble", False),
    ("derivations", "generalized_derivation_space", "derivations.assemble", False),
    ("derivations", "quasi_derivation_space", "derivations.assemble", False),
    ("derivations", "generalized_triple_space", "derivations.assemble", False),
    ("derivations", "classify", "derivations.classify", False),
    ("operad", "pi_element", "operad.compose", False),
    ("operad", "partial_composition", "operad.compose", False),
    ("operad", "gamma", "operad.compose", False),
    ("operad", "gamma_direct", "operad.compose", False),
    ("operad", "dot", "operad.compose", False),
    ("operad", "braces", "operad.braces", False),
    ("operad", "circle", "operad.braces", False),
    ("operad", "bracket", "operad.braces", False),
    ("deformation", "TruncatedDeformation.__init__", "deformation.build", False),
    ("deformation", "deformation_residual", "deformation.residual", False),
    ("deformation", "is_deformation_up_to", "deformation.residual", False),
    ("deformation", "operadic_residual", "deformation.operadic", False),
    ("deformation", "solve_triviality", "deformation.trivialize", False),
    ("dsl", "parse", "dsl.parse", False),
    ("dsl", "parse_path", "dsl.parse", False),
    ("dsl", "build_block", "dsl.build", False),
    ("dsl", "build_all", "dsl.build", False),
]

LAYERS = sorted({layer for _, _, layer, _ in ENTRY_POINTS})


def layer_metric(layer: str) -> str:
    return f"{layer}_s" if "." in layer else f"{layer}.s"


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


# -- counting hooks: pre(tracer, args) -> args, post(tracer, result, args) -----


def _pre_rows(tr, args):
    rows = args[0] if isinstance(args[0], list) else list(args[0])
    c = tr.counts
    c["scalars.rows_in"] += sum(1 for r in rows if r)
    bits = 0
    for r in rows:
        for v in r.values():
            b = _bits(v)
            if b > bits:
                bits = b
    tr.max_bits = max(tr.max_bits, bits)
    return (rows,) + tuple(args[1:])


def _post_nullspace(tr, res, args):
    tr.counts["scalars.rank_total"] += args[1] - res.dim
    tr.counts["scalars.rank_rows_in"] += sum(1 for r in args[0] if r)


def _post_rank(tr, res, args):
    tr.counts["scalars.rank_total"] += res
    tr.counts["scalars.rank_rows_in"] += sum(1 for r in args[0] if r)


def _post_subspace(tr, res, args):
    s = args[0]
    tr.counts["scalars.dense_entries"] += s.ambient_dim * s.dim
    bits = 0
    for row in s.basis_rows():
        for v in row:
            if v:
                b = _bits(v)
                if b > bits:
                    bits = b
    tr.max_bits = max(tr.max_bits, bits)


def _post_delta_rows(tr, res, args):
    tr.counts["cohomology.delta_row_count"] += len(res)
    tr.counts["cohomology.delta_nnz"] += sum(len(r) for r in res)


def _post_unknowns(tr, res, args):
    tr.counts["cohomology.unknowns"] += res.ambient_dim


def _post_tree_eval(tr, res, args):
    f, tree, vecs = args[0], args[1], args[2]
    t = tree if isinstance(tree, int) else tr.tree_index(tree)
    useful = 0
    for (ti, fargs), _ in f.data.items():
        if ti == t and all(vecs[pos][a] for pos, a in enumerate(fargs)):
            useful += 1
    c = tr.counts
    c["cohomology.cochain_evals"] += 1
    c["cohomology.eval_scanned"] += len(f.data)
    c["cohomology.eval_useful"] += useful


def _post_hoch_eval(tr, res, args):
    f, vecs = args[0], args[1]
    useful = sum(1 for fargs in f.data if all(vecs[pos][a] for pos, a in enumerate(fargs)))
    c = tr.counts
    c["cohomology.cochain_evals"] += 1
    c["cohomology.eval_scanned"] += len(f.data)
    c["cohomology.eval_useful"] += useful


def _post_solver(tr, res, args):
    tr.counts["derivations.solves"] += 1
    tr.counts["derivations.unknowns"] += res.system.shape[1]


def _post_output(tr, res, args):
    tr.counts["operad.output_entries"] += len(res.data)


def _count(name):
    def post(tr, res, args):
        tr.counts[name] += 1
    return post


HOOKS = {
    "nullspace_rows": (_pre_rows, _post_nullspace),
    "rank_rows": (_pre_rows, _post_rank),
    "solve_rows": (_pre_rows, None),
    "Subspace.__init__": (None, _post_subspace),
    "dialg_coboundary_rows": (None, _post_delta_rows),
    "hoch_coboundary_rows": (None, _post_delta_rows),
    "dialg_compatible_space": (None, _post_unknowns),
    "hoch_compatible_space": (None, _post_unknowns),
    "dialg_cocycles": (None, _post_unknowns),
    "hoch_cocycles": (None, _post_unknowns),
    "TreeCochain.eval": (None, _post_tree_eval),
    "HochschildCochain.eval": (None, _post_hoch_eval),
    "derivation_space": (None, _post_solver),
    "generalized_derivation_space": (None, _post_solver),
    "quasi_derivation_space": (None, _post_solver),
    "generalized_triple_space": (None, _post_solver),
    "partial_composition": (None, _post_output),
    "gamma_direct": (None, _post_output),
    "dot": (None, _post_output),
    "tree_index": (None, _count("trees.tree_index_calls")),
    "r0": (None, _count("trees.retraction_calls")),
    "ri": (None, _count("trees.retraction_calls")),
}


class GcMeter:
    """Process-wide collector time and count through `gc.callbacks`."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._t0 = 0.0

    def _callback(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._t0
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)


class Tracer:
    def __init__(self):
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.max_bits = 0
        self.hook_s = 0.0
        self.spans: list[tuple] = []
        # each frame: [child seconds, span id]
        self.stack: list[list] = [[0.0, -1]]
        self.query = -1
        self._next_id = 0
        self._undo: list[tuple] = []
        self.tree_index = None

    # -- spans ---------------------------------------------------------------

    def _charge_hook(self, seconds: float) -> None:
        self.stack[-1][0] += seconds
        self.hook_s += seconds

    def span(self, name: str, layer: str, hot: bool, fn, pre=None, post=None):
        stack, self_time = self.stack, self.self_time
        spans, perf, tracer = self.spans, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                h0 = perf()
                args = pre(tracer, args)
                tracer._charge_hook(perf() - h0)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                stack[-1][0] += dur
                self_time[layer] += dur - frame[0]
                if not hot:
                    spans.append((sid, parent, tracer.query, name, t0, t1))
            if post is not None:
                h0 = perf()
                post(tracer, res, args)
                tracer._charge_hook(perf() - h0)
            return res

        return wrapper

    def run_query(self, index: int, key: str, call):
        """Run one query as a root span; its self time is benchmark glue."""
        self.query = index
        return self.span(key, "bench.query", False, call)()

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        mods = {name: sys.modules[f"bihom.{name}"] for name in
                ("scalars", "trees", "algebra", "cohomology", "derivations",
                 "operad", "deformation", "dsl")}
        self.tree_index = mods["trees"].tree_index
        loaded = [m for n, m in sys.modules.items() if n.startswith("bihom.") and m is not None]
        for modname, attr, layer, hot in ENTRY_POINTS:
            mod = mods[modname]
            pre, post = HOOKS.get(attr, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self.span(attr, layer, hot, orig, pre, post))
                continue
            orig = getattr(mod, attr)
            wrapped = self.span(attr, layer, hot, orig, pre, post)
            for m in loaded:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        self._undo.append((m, k, orig))
                        setattr(m, k, wrapped)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        out = {layer_metric(layer): self.self_time.get(layer, 0.0) for layer in LAYERS}
        c = self.counts
        out.update({
            "cohomology.cochain_evals": c["cohomology.cochain_evals"],
            "cohomology.eval_useful_ratio": (
                c["cohomology.eval_useful"] / c["cohomology.eval_scanned"]
                if c["cohomology.eval_scanned"] else 0.0
            ),
            "cohomology.unknowns": c["cohomology.unknowns"],
            "cohomology.delta_row_count": c["cohomology.delta_row_count"],
            "cohomology.delta_nnz": c["cohomology.delta_nnz"],
            "scalars.rows_in": c["scalars.rows_in"],
            "scalars.rank_total": c["scalars.rank_total"],
            "scalars.useful_row_ratio": (
                c["scalars.rank_total"] / c["scalars.rank_rows_in"]
                if c["scalars.rank_rows_in"] else 0.0
            ),
            "scalars.max_coeff_bits": self.max_bits,
            "scalars.dense_entries": c["scalars.dense_entries"],
            "derivations.solves": c["derivations.solves"],
            "derivations.unknowns": c["derivations.unknowns"],
            "trees.tree_index_calls": c["trees.tree_index_calls"],
            "trees.retraction_calls": c["trees.retraction_calls"],
            "operad.output_entries": c["operad.output_entries"],
            "trace.hook_s": self.hook_s,
            "trace.glue_s": self.self_time.get("bench.query", 0.0),
        })
        return out

    def top_layer(self) -> tuple[str, float]:
        layer, secs = max(
            ((k, v) for k, v in self.self_time.items() if k != "bench.query"),
            key=lambda kv: kv[1], default=("none", 0.0),
        )
        return layer, secs

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, query, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "query": query,
                                     "name": name, "start": t0, "end": t1}) + "\n")
