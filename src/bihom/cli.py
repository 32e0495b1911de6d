"""Command line driver: parse definition files, run checks, print reports.

Exit codes: 0 all checks pass or computation done, 1 mathematical
failure (axiom violation, invalid deformation, obstruction), 2 usage or
parse error.  Each command fills one `_Report`: every call writes one
JSON field together with the text lines that show it, and the report is
rendered once, as text or with `--json` as JSON.  Both renderings are
byte-deterministic and keep a fixed field order.  Commands import the
library modules they run inside their bodies, so each process loads only
what its command needs; a new import goes there, not at the top.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

from bihom.algebra import (
    LAW_FOR_TREE,
    BiHomAssociativeAlgebra,
    BiHomDialgebra,
    basis_vec,
    catalog,
    check_bihom_associative,
    check_dialgebra,
)

# Reference cocycle patterns quoted with the shipped 3-dim one-product
# example (both readings).  1-based (args, target index); every target
# is the third basis vector.  The degree-3 source table lists the
# argument triple (3, 3, 1) three times with different coefficients;
# those lines are ambiguous and are excluded from the checklist.
_REFERENCE_COCYCLES: dict[int, tuple[tuple[tuple[int, ...], int], ...]] = {
    2: (((1, 3), 3), ((2, 3), 3), ((3, 3), 3)),
    3: (
        ((1, 1, 1), 3),
        ((1, 2, 3), 3),
        ((1, 3, 1), 3),
        ((1, 3, 2), 3),
        ((1, 3, 3), 3),
        ((2, 1, 3), 3),
        ((2, 3, 3), 3),
        ((3, 1, 3), 3),
        ((3, 2, 3), 3),
    ),
}
_REFERENCE_AMBIGUOUS: dict[int, tuple[tuple[tuple[int, ...], int], ...]] = {
    3: (((3, 3, 1), 3),),
}
_REFERENCE_COCYCLE_NAMES = ("Ex43_readingA", "Ex43_readingB")

def _fail_usage(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _load(path: str):
    from bihom.dsl import DslError, parse_path
    try:
        return parse_path(path)
    except DslError as e:
        click.echo(f"error: {path}: {e}", err=True)
        sys.exit(2)
    except OSError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)


def _pick(df, name: str):
    try:
        return df.block(name)
    except KeyError:
        _fail_usage(f"no block named {name!r} in the file")


def _load_algebra(path: str, name: str):
    """The algebra built from block NAME of PATH; a deformation block is
    a usage error."""
    from bihom.dsl import DeformationBlock, build_block
    df = _load(path)
    if isinstance(_pick(df, name), DeformationBlock):
        _fail_usage(f"block {name!r} is a deformation, not an algebra")
    return build_block(df, name)


def _rational(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        _fail_usage(f"{flag} expects a rational such as 3 or -1/2, got {text!r}")


def _mat_rows(M) -> list[list[str]]:
    r, c = M.shape
    return [[str(M[i, j]) for j in range(c)] for i in range(r)]


def _matrix_lines(title: str, rows: list[list[str]]) -> list[str]:
    return [f"{title}:", *("  [" + ", ".join(row) + "]" for row in rows)]


def _vec_str(vec, basis) -> str:
    parts = [
        (name if c == 1 else f"{c}*{name}")
        for c, name in zip(vec, basis)
        if c
    ]
    return " + ".join(parts) if parts else "0"


def _args_str(args, basis) -> str:
    return "(" + ", ".join(basis[a] for a in args) + ")"


class _Report:
    """One command's report: ordered JSON fields and the text lines
    that show them, written together and rendered once."""

    def __init__(self, command: str, **head):
        self.doc: dict = {"command": command}
        self.lines = [f"command: {command}"]
        for key, value in head.items():
            self.add(key, value, f"{key.replace('_', ' ')}: {value}")

    def add(self, key: str, value, *lines: str):
        self.doc[key] = value
        self.lines.extend(lines)

    def item(self, key: str, entry, *lines: str):
        """Append ENTRY to the list field KEY, creating it if absent."""
        self.doc.setdefault(key, []).append(entry)
        self.lines.extend(lines)

    def finish(self, as_json: bool, ok: bool = True, verdict: bool = False):
        """Print one rendering and exit 0 if OK, else 1; VERDICT ends the
        text with a result line."""
        if verdict:
            self.lines.append(f"result: {'PASS' if ok else 'FAIL'}")
        click.echo(json.dumps(self.doc, indent=2) if as_json else "\n".join(self.lines))
        sys.exit(0 if ok else 1)


def _json_flag(fn):
    return click.option("--json", "as_json", is_flag=True, help="emit the report as JSON")(fn)


@click.group()
def main():
    """Exact-arithmetic checks for two-product twisted algebras."""


# -- verify ----------------------------------------------------------------------


def _verify_block(df, block) -> tuple[bool, str, list[dict]]:
    """ok, one-line summary, serialized violations."""
    from bihom.dsl import DeformationBlock, build_block
    if isinstance(block, DeformationBlock):
        from bihom.deformation import is_deformation_up_to
        try:
            D = build_block(df, block.name)
        except ValueError as e:
            return False, f"deformation: FAIL ({e})", [{"error": str(e)}]
        chk = is_deformation_up_to(D, D.order)
        if chk.ok:
            return True, f"deformation: OK (through order {D.order})", []
        w = chk.witness
        base = D.base
        return (
            False,
            f"deformation: FAIL at order {chk.failed_order} "
            f"({w.law} at {_args_str(w.at, base.basis)})",
            [_violation_doc(w, base.basis)],
        )
    A = build_block(df, block.name)
    if isinstance(A, BiHomAssociativeAlgebra):
        rep = check_bihom_associative(A)
        total = 2
    else:
        rep = check_dialgebra(A)
        total = 6
    if rep.ok:
        return True, f"axioms: OK ({total}/{total})", []
    bad = len(set(rep.laws_violated()))
    first = rep.violations[0]
    return (
        False,
        f"axioms: FAIL ({total - bad}/{total}): first violation "
        f"{first.law} at {_args_str(first.at, A.basis)}",
        [_violation_doc(v, A.basis) for v in rep.violations[:10]],
    )


def _violation_doc(v, basis) -> dict:
    return {
        "law": v.law,
        "at": [basis[i] for i in v.at],
        "residual": [str(c) for c in v.residual],
    }


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--name", default=None, help="check a single named block")
@_json_flag
def verify(file, name, as_json):
    """Check the axioms of every block in FILE (or one named block)."""
    df = _load(file)
    blocks = [_pick(df, name)] if name is not None else list(df.blocks)
    if not blocks:
        _fail_usage("file contains no blocks")
    r = _Report("verify", file=file)
    ok_all = True
    for b in blocks:
        ok, summary, violations = _verify_block(df, b)
        ok_all = ok_all and ok
        r.item(
            "blocks",
            {"name": b.name, "kind": b.kind, "ok": ok, "summary": summary, "violations": violations},
            f"{b.name}: {summary}",
        )
    r.add("ok", ok_all)
    r.finish(as_json, ok_all, verdict=True)


# -- derive ----------------------------------------------------------------------


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--name", required=True)
@click.option("--k", required=True, type=int, help="power of phi in the twist")
@click.option("--l", required=True, type=int, help="power of psi in the twist")
@click.option("--alpha", default=None, help="scale on the left side (generalized)")
@click.option("--beta", default=None, help="scale on the right-slot term (generalized)")
@click.option("--gamma", default=None, help="scale on the left-slot term (generalized)")
@click.option("--quasi", is_flag=True, help="solve for pairs (D, D')")
@click.option("--triple", is_flag=True, help="solve for triples (D, D', D'')")
@_json_flag
def derive(file, name, k, l, alpha, beta, gamma, quasi, triple, as_json):
    """Solve the twisted Leibniz system for the named algebra."""
    from bihom.derivations import (BiDegree, GeneralizedSpec, derivation_space, generalized_derivation_space,
                                   generalized_triple_space, quasi_derivation_space)
    A = _load_algebra(file, name)
    if isinstance(A, BiHomAssociativeAlgebra):
        A = A.as_dialgebra()
    gen_given = [x for x in (alpha, beta, gamma) if x is not None]
    if gen_given and (quasi or triple):
        _fail_usage("--alpha/--beta/--gamma cannot be combined with --quasi or --triple")
    if quasi and triple:
        _fail_usage("--quasi and --triple are mutually exclusive")
    if gen_given and len(gen_given) != 3:
        _fail_usage("--alpha, --beta and --gamma must be given together")
    deg = BiDegree(k, l)
    try:
        if quasi:
            variant = "quasi"
            space = quasi_derivation_space(A, deg)
        elif triple:
            variant = "generalized_triple"
            space = generalized_triple_space(A, deg)
        elif gen_given:
            variant = "generalized"
            spec = GeneralizedSpec(
                _rational(alpha, "--alpha"),
                _rational(beta, "--beta"),
                _rational(gamma, "--gamma"),
            )
            space = generalized_derivation_space(A, deg, spec)
        else:
            variant = "plain"
            space = derivation_space(A, deg)
    except ValueError as e:
        _fail_usage(str(e))
    labels = ("D", "D'", "D''")[: space.components]
    r = _Report("derive", file=file, name=name, variant=variant)
    r.add("bidegree", [k, l], f"bidegree: ({k}, {l})")
    r.add("dim", space.dim, f"dim Der = {space.dim}")
    proj = {lab: space.projection(c).dim for c, lab in enumerate(labels)}
    r.add(
        "projection_dims",
        proj,
        *(f"dim {lab}-projection = {d}" for lab, d in proj.items() if len(labels) > 1),
    )
    r.add("basis", [])
    for i, mats in enumerate(space.basis_matrices(), start=1):
        entry = {lab: _mat_rows(M) for lab, M in zip(labels, mats)}
        r.item(
            "basis",
            entry,
            *(line for lab, rows in entry.items() for line in _matrix_lines(f"basis {i} ({lab})", rows)),
        )
    r.finish(as_json)


# -- classify --------------------------------------------------------------------


def _parse_binding(text: str, known) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    if not text:
        return out
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            _fail_usage(f"--bind expects name=value pairs, got {piece!r}")
        key, _, val = piece.partition("=")
        key = key.strip()
        if key in out:
            _fail_usage(f"--bind names parameter {key!r} more than once")
        out[key] = _rational(val.strip(), "--bind")
    for key in out:
        if key not in known:
            _fail_usage(f"--bind names unknown parameter {key!r}; known: {', '.join(known)}")
    return out


@main.command()
@click.option("--bind", default="", help="parameter values, e.g. a=1,f=2 (default 1)")
@_json_flag
def classify(bind, as_json):
    """Derivation-space dimensions for the built-in families at deg (1,1)."""
    from bihom.derivations import BiDegree, classify as classify_cells
    cat = catalog()
    binding = _parse_binding(bind, sorted({p for fam in cat.values() for p in fam.params}))
    names = list(cat)
    bindings = [
        {p: binding.get(p, Fraction(1)) for p in cat[n].params} for n in names
    ]
    report = classify_cells(names, bindings, [BiDegree(1, 1)])
    r = _Report("classify")
    r.add("bind", bind or None, f"bind: {bind or '(defaults)'}")
    for c, line in zip(report.cells, report.lines()):
        r.item(
            "cells",
            {
                "algebra": c.algebra,
                "binding": {p: str(v) for p, v in c.binding},
                "degree": [c.degree.k, c.degree.l],
                "variant": c.variant,
                "computed": list(c.computed),
                "reference": list(c.reference) if c.reference else None,
                "agrees": c.agrees,
                "shape_contained": list(c.shape_contained) if c.shape_contained else None,
            },
            line,
        )
    agree = sum(1 for c in report.cells if c.agrees)
    differ = sum(1 for c in report.cells if c.agrees is False)
    r.add("ok", True)
    r.add(
        "summary",
        {"cells": len(report.cells), "agree": agree, "differ": differ},
        f"cells: {len(report.cells)}, agree: {agree}, differ: {differ}",
    )
    r.finish(as_json)


# -- cohomology ------------------------------------------------------------------


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--name", required=True)
@click.option("--degree", required=True, type=int)
@click.option("--complex", "which", type=click.Choice(["hoch", "dialg"]), default=None,
              help="default: dialg for dialgebra blocks, hoch for algebra blocks")
@_json_flag
def cohomology_cmd(file, name, degree, which, as_json):
    """Cocycle, coboundary and quotient dimensions in one degree."""
    from bihom.cohomology import HochschildCochain, _complex_of
    X = _load_algebra(file, name)
    if degree < 1:
        _fail_usage("--degree must be at least 1")
    if which is None:
        which = "hoch" if isinstance(X, BiHomAssociativeAlgebra) else "dialg"
    if which == "hoch" and isinstance(X, BiHomDialgebra):
        if X.dashv != X.vdash:
            _fail_usage("the one-product complex needs both products equal")
        X = BiHomAssociativeAlgebra(X.dim, X.dashv, X.phi, X.psi, basis=X.basis, name=X.name)
    if which == "dialg" and isinstance(X, BiHomAssociativeAlgebra):
        X = X.as_dialgebra()
    # on axiom-violating input the report leaves the quotient undefined
    cx = _complex_of(X)
    rep = cx.report(degree)
    r = _Report("cohomology", file=file, name=name, complex=which, degree=degree)
    r.add("compatible_dim", rep.compatible_dim, f"compatible dim = {rep.compatible_dim}")
    r.add("cocycle_dim", rep.cocycle_dim, f"cocycle dim = {rep.cocycle_dim}")
    r.add("coboundary_dim", rep.coboundary_dim, f"coboundary dim = {rep.coboundary_dim}")
    r.add("coboundaries_contained", rep.contained)
    r.add(
        "cohomology_dim",
        rep.cohomology_dim,
        f"cohomology dim = {rep.cohomology_dim if rep.contained else 'undefined (coboundaries escape cocycles)'}",
    )
    if (
        which == "hoch"
        and name in _REFERENCE_COCYCLE_NAMES
        and degree in _REFERENCE_COCYCLES
        and X.dim == 3
    ):
        _, in_z = cx.cocycle_test(degree)
        for args, target in _REFERENCE_COCYCLES[degree]:
            zero_based = tuple(a - 1 for a in args)
            f = HochschildCochain(degree, X.dim, {zero_based: basis_vec(X.dim, target - 1)})
            member = in_z({c: v for c, v in enumerate(f.flatten()) if v})
            r.item(
                "reference_cocycles",
                {"args": list(args), "target": target, "in_kernel": member},
                f"reference pattern {_args_str(zero_based, X.basis)} -> {X.basis[target - 1]}: "
                f"in Z^{degree}: {'yes' if member else 'no'}",
            )
        for args, _ in _REFERENCE_AMBIGUOUS.get(degree, ()):
            pat = _args_str(tuple(a - 1 for a in args), X.basis)
            r.item(
                "excluded_ambiguous",
                {"args": list(args), "listings": 3},
                f"ambiguous pattern {pat}: excluded (listed 3 times)",
            )
    r.finish(as_json)


# -- operad-check ----------------------------------------------------------------


@main.command(name="operad-check")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--name", required=True)
@_json_flag
def operad_check(file, name, as_json):
    """Brace square of the product element; zero iff the five laws hold."""
    from bihom.operad import circle, pi_element
    A = _load_algebra(file, name)
    if isinstance(A, BiHomAssociativeAlgebra):
        A = A.as_dialgebra()
    p = pi_element(A)
    sq = circle(A, p, p)
    by_tree: dict[int, list] = {t: [] for t in range(5)}
    for (t, args), val in sorted(sq.data.items()):
        by_tree[t].append((args, val))
    r = _Report("operad-check", file=file, name=name)
    for t, law in enumerate(LAW_FOR_TREE):
        hits = by_tree[t]
        if not hits:
            r.item("laws", {"law": law, "tree": t, "zero": True}, f"law {law} (tree {t}): 0")
            continue
        args, val = hits[0]
        r.item(
            "laws",
            {
                "law": law,
                "tree": t,
                "zero": False,
                "witness": {"args": [A.basis[a] for a in args], "residual": [str(c) for c in val]},
            },
            f"law {law} (tree {t}): nonzero at {_args_str(args, A.basis)} "
            f"-> {_vec_str(val, A.basis)}",
        )
    ok = sq.is_zero()
    r.add("ok", ok, f"brace square: {'0' if ok else 'nonzero'}")
    r.finish(as_json, ok, verdict=True)


# -- deform ----------------------------------------------------------------------


def _load_deformation(path: str, name: str):
    from bihom.dsl import DeformationBlock, build_block
    df = _load(path)
    if not isinstance(_pick(df, name), DeformationBlock):
        _fail_usage(f"block {name!r} is not a deformation")
    try:
        return build_block(df, name)
    except ValueError as e:
        click.echo(f"{name}: invalid deformation: {e}", err=True)
        sys.exit(1)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--name", required=True)
@click.option("--check-order", "check_order", required=True, type=int)
@_json_flag
def deform(file, name, check_order, as_json):
    """Check the deformation equation order by order."""
    from bihom.deformation import deformation_residual
    D = _load_deformation(file, name)
    if check_order < 0:
        _fail_usage("--check-order must be nonnegative")
    ext = D if check_order <= D.order else D.extended(check_order)
    basis = D.base.basis
    r = _Report(
        "deform", file=file, name=name, base=D.base.name, order=D.order, check_order=check_order
    )
    r.add("orders", [])
    ok_all = True
    for n in range(1, check_order + 1):
        res = deformation_residual(ext, n)
        if res.is_zero():
            r.item("orders", {"order": n, "ok": True}, f"order {n}: OK")
            continue
        ok_all = False
        (t, args), val = min(res.data.items())
        r.item(
            "orders",
            {
                "order": n,
                "ok": False,
                "law": LAW_FOR_TREE[t],
                "args": [basis[a] for a in args],
                "residual": [str(c) for c in val],
            },
            f"order {n}: FAIL {LAW_FOR_TREE[t]} at "
            f"{_args_str(args, basis)} -> {_vec_str(val, basis)}",
        )
    r.add("ok", ok_all)
    r.finish(as_json, ok_all, verdict=True)


# -- trivialize ------------------------------------------------------------------


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--name", required=True)
@click.option("--order", required=True, type=int)
@_json_flag
def trivialize(file, name, order, as_json):
    """Solve for a formal change of variables undoing the deformation."""
    from bihom.deformation import solve_triviality
    D = _load_deformation(file, name)
    if order < 0:
        _fail_usage("--order must be nonnegative")
    res = solve_triviality(D, order)
    basis = D.base.basis
    r = _Report("trivialize", file=file, name=name, base=D.base.name, order=order)
    if res.trivial:
        witness = [_mat_rows(res.witness.map(i)) for i in range(1, order + 1)]
        r.add("trivial", True)
        r.add(
            "witness",
            witness,
            *(line for i, rows in enumerate(witness, start=1) for line in _matrix_lines(f"psi_{i}", rows)),
            "trivial: yes",
        )
        r.finish(as_json, verdict=True)
    r.add("trivial", False, "trivial: no")
    r.add("obstructed_order", res.obstructed_order, f"obstructed at order: {res.obstructed_order}")
    r.add(
        "obstruction_closed",
        res.obstruction_closed,
        f"obstruction closed: {'yes' if res.obstruction_closed else 'no'}",
    )
    r.add("obstruction", [])
    for (t, args), val in sorted(res.obstruction.data.items()):
        op = "dashv" if t == 0 else "vdash"
        r.item(
            "obstruction",
            {"product": op, "args": [basis[a] for a in args], "value": [str(c) for c in val]},
            f"obstruction {op} {_args_str(args, basis)} -> {_vec_str(val, basis)}",
        )
    r.finish(as_json, False, verdict=True)


if __name__ == "__main__":
    main()
