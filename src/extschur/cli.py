"""Command-line front end.

Commands: expand, tableaux, char, analyze, verify, kmatrix.  Exit codes:
0 success / all checks pass, 1 verification failure, 2 usage error or a
request refused before it starts because its output would be too large.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii
from math import factorial, prod

from .compositions import (
    Composition,
    compositions_of,
    format_composition,
    is_partition,
    parse_composition,
)
from .module_analysis import _Shape, analysis_report, characteristic
from .qsym import (
    QSymElement,
    _k_matrix_of_masks,
    _refine_masks,
    extended_schur_in_F,
    fundamental,
    fundamental_to_monomial,
    hook_length_count,
    k_matrix,
    monomial,
    monomial_to_fundamental,
    schur_in_F,
)
from .tableaux import (
    _descent_masks,
    _from_row_word,
    _set_count,
    _set_words,
    _srit_words,
    descent_composition,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

ALL_CHECKS = (
    "relations",
    "submodule",
    "characteristic",
    "endomorphism",
    "schur",
    "kmatrix",
    "roundtrip",
)

FORMATS = ("text", "json", "csv")

# expand --basis M printed the 524,288 terms of --alpha 20 in 9.1-10.2 s
# and 537 MB with --format json, about 18 us per term, and in 4.0-4.6 s and
# 197 MB as text, on a 2-core host with Python 3.11.7; a larger expansion is
# refused before any refining
M_TERM_SECONDS = 18e-6
M_TERM_BUDGET = 1 << 19
# tableaux --show-descents --format json, the costliest listing of SETs,
# took 2.7-4.1 s for the 64,064 SETs of 5,3,3,2,1 and 0.9-1.4 s for the
# 20,592 of 5,3,2,1,1,1, about 50 us per SET, where analyze and the text
# listing took 25-44 us, on the same host; analyze, char and tableaux refuse
# a shape with more SETs (SRITs for --kind srit) before making any
SET_SECONDS = 50e-6
SET_BUDGET = 300_000


class UsageError(Exception):
    pass


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process;
    parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=FORMATS, default="text", help="output format"
    )
    common.add_argument(
        "--max-n", type=int, default=8, dest="max_n",
        help="cap on the weight of requested compositions (default 8)",
    )

    parser = argparse.ArgumentParser(
        prog="extschur",
        description="Extended Schur expansions, standard extended tableaux, "
        "and exact analysis of the associated 0-Hecke modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common],
                       help="extended Schur expansion of one shape")
    p.add_argument("--alpha", required=True, help="composition, e.g. 2,1,3")
    p.add_argument("--basis", choices=("F", "M"), default="F")

    p = sub.add_parser("tableaux", parents=[common],
                       help="list the standard fillings of one shape")
    p.add_argument("--alpha", required=True)
    p.add_argument("--kind", choices=("set", "srit"), default="set")
    p.add_argument("--show-descents", action="store_true", dest="show_descents")

    p = sub.add_parser("char", parents=[common],
                       help="quasisymmetric characteristic of one shape")
    p.add_argument("--alpha", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="full module analysis of one shape")
    p.add_argument("--alpha", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run verification sweeps over all weights up to n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--checks", default=",".join(ALL_CHECKS),
                   help="comma-separated subset of: " + ", ".join(ALL_CHECKS))

    p = sub.add_parser("kmatrix", parents=[common],
                       help="descent-count matrix of one degree")
    p.add_argument("--n", type=int, required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.max_n < 1:
            raise UsageError("--max-n must be at least 1")
        if args.command == "verify":
            args.checks = [name.strip() for name in args.checks.split(",") if name.strip()]
            unknown = [name for name in args.checks if name not in ALL_CHECKS]
            expected = f"expected a subset of {', '.join(ALL_CHECKS)}"
            if not args.checks:
                raise UsageError(f"--checks selects no check; {expected}")
            if unknown:
                raise UsageError(f"unknown checks {', '.join(unknown)}; {expected}")
        if args.format == "csv" and args.command != "kmatrix":
            raise UsageError("csv output is only available for the kmatrix command")
        handler = {
            "expand": _cmd_expand,
            "tableaux": _cmd_tableaux,
            "char": _cmd_char,
            "analyze": _cmd_analyze,
            "verify": _cmd_verify,
            "kmatrix": _cmd_kmatrix,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _require_alpha(args) -> Composition:
    try:
        alpha = parse_composition(args.alpha)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if alpha.weight > args.max_n:
        raise UsageError(
            f"weight {alpha.weight} exceeds --max-n {args.max_n}"
        )
    return alpha


def _require_set_budget(alpha: Composition, kind: str = "set") -> None:
    """Refuse, before any is made, a shape with more tableaux of ``kind``
    than ``SET_BUDGET``: n!/prod(alpha_i!) row-increasing ones, and the
    extended ones counted only when that exceeds the budget."""
    count = factorial(alpha.weight) // prod(map(factorial, alpha))
    name = "row-increasing"
    if kind == "set" and count > SET_BUDGET:
        count, name = _set_count(alpha), "extended"
    if count > SET_BUDGET:
        raise UsageError(
            f"{format_composition(alpha)} has {count} standard {name} tableaux, "
            f"over the budget of {SET_BUDGET} at about {SET_SECONDS * 1e6:.0f} us each"
        )


def format_qsym(x: QSymElement) -> str:
    """Render as e.g. 'F[2,1,3] + 2*F[1,2,3] - F[6]'; zero is '0'."""
    return _format_terms(x.basis, x.terms())


def _format_terms(basis: str, terms) -> str:
    """:func:`format_qsym` of the element with these (parts, coefficient)
    terms, in the order given."""
    pieces = []
    for parts, c in terms:
        term = f"{basis}[{','.join(map(str, parts))}]"
        magnitude = abs(c)
        body = term if magnitude == 1 else f"{magnitude}*{term}"
        if pieces:
            pieces.append((" + " if c > 0 else " - ") + body)
        else:
            pieces.append(("-" if c < 0 else "") + body)
    return "".join(pieces) or "0"


_INT_ONLY = {int}


def _json_text(value, indent: str = "") -> str:
    """The text of ``json.dumps(value, indent=2)`` for a value whose dicts
    have str keys, with every line after the first starting from
    ``indent``.  ``json.dumps`` serves ``indent`` from the pure-Python
    encoder; this joins the same pieces with ``str.join``, one call per
    list of plain ints."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([
            f"{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
            for key, item in value.items()
        ])
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == _INT_ONLY:  # never bools: they print true/false
            body = sep.join(map(int.__repr__, value))
        else:
            body = sep.join([_json_text(item, inner) for item in value])
        return f"[\n{inner}{body}\n{indent}]"
    return json.dumps(value)  # None, bools, floats and other scalars


def _emit_qsym(element: QSymElement, fmt: str) -> None:
    if fmt == "json":
        print(_json_text(element.to_json()))
    else:
        print(format_qsym(element))


def _cmd_expand(args) -> int:
    alpha = _require_alpha(args)
    if args.basis == "F":
        element = extended_schur_in_F(alpha)
    else:
        n = alpha.weight
        masks = _descent_masks(alpha)
        # the coarsest descent mask alone refines into 2^free M terms, and
        # F to M cancels nothing, so the result has at least as many
        free = max(n - 1 - min(mask.bit_count() for mask in masks), 0)
        if 1 << free > M_TERM_BUDGET:
            raise UsageError(
                f"the M expansion of {format_composition(alpha)} has at least "
                f"2^{free} terms, over the budget of {M_TERM_BUDGET} "
                f"at about {M_TERM_SECONDS * 1e6:.0f} us per term"
            )
        element = _refine_masks(n, masks, "M")
    _emit_qsym(element, args.format)
    return EXIT_OK


def _cmd_char(args) -> int:
    alpha = _require_alpha(args)
    _require_set_budget(alpha)
    _emit_qsym(characteristic(alpha), args.format)
    return EXIT_OK


def _cmd_tableaux(args) -> int:
    alpha = _require_alpha(args)
    _require_set_budget(alpha, args.kind)
    # the tableaux of enumerate_set or enumerate_srit, each made when printed
    words = _set_words(alpha) if args.kind == "set" else _srit_words(alpha)
    listing = (_from_row_word(w, len(alpha)) for w in words)
    if args.format == "json":
        # the text of json.dumps(items, indent=2), printed item by item
        for k, t in enumerate(listing):
            item = t.to_json()
            if args.show_descents:
                item["descent_composition"] = list(descent_composition(t))
            print(",\n  " if k else "[\n  ", _json_text(item, "  "), sep="", end="")
        print("\n]")  # never empty: every shape has its super-standard tableau
    else:
        blocks = []
        for t in listing:
            block = str(t) if t.rows else "(empty)"
            if args.show_descents:
                block += f"\nDes: {format_composition(descent_composition(t))}"
            blocks.append(block)
        print("\n\n".join(blocks))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    alpha = _require_alpha(args)
    _require_set_budget(alpha)
    report = analysis_report(alpha)
    if args.format == "json":
        print(_json_text(report))
    else:
        factors = "; ".join(",".join(map(str, factor)) for factor in report["factors"])
        char = report["characteristic"]
        terms = ((term["composition"], term["coefficient"]) for term in char["terms"])
        print(f"alpha: {format_composition(alpha)}")
        print(f"dimension: {report['dim']}")
        print(f"factors: {factors}")
        print(f"characteristic: {_format_terms(char['basis'], terms)}")
        print(f"commutant dimension: {report['commutant_dimension']}")
        print("indecomposable: true")
    return EXIT_OK


def _cmd_kmatrix(args) -> int:
    if args.n > args.max_n:
        raise UsageError(f"--n {args.n} exceeds --max-n {args.max_n}")
    try:
        km = k_matrix(args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.format == "csv":
        print(km.to_csv(), end="")
    elif args.format == "json":
        print(_json_text({
            "n": km.n,
            "compositions": [list(alpha) for alpha in km.compositions],
            "entries": [list(row) for row in km.entries],
        }))
    else:
        labels = [format_composition(alpha) for alpha in km.compositions]
        width = max(max(len(label) for label in labels), 1)
        header = " " * width + "  " + " ".join(label.rjust(width) for label in labels)
        print(header)
        for label, row in zip(labels, km.entries):
            cells = " ".join(str(v).rjust(width) for v in row)
            print(f"{label.rjust(width)}  {cells}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification sweeps


def _check_characteristic(shape: _Shape) -> bool:
    return shape.characteristic == shape.extended_schur


def _check_endomorphism(shape: _Shape) -> bool:
    return shape.fixed_point_count == 1


def _check_schur(shape: _Shape) -> bool:
    alpha = shape.alpha
    return (
        shape.extended_schur == schur_in_F(alpha)
        and len(shape.words) == hook_length_count(alpha)
    )


def _check_roundtrip(shape: _Shape) -> bool:
    alpha = shape.alpha
    f = fundamental(alpha)
    m = monomial(alpha)
    if monomial_to_fundamental(fundamental_to_monomial(f)) != f:
        return False
    if fundamental_to_monomial(monomial_to_fundamental(m)) != m:
        return False
    # monomial positivity of the extended Schur expansion
    return all(c >= 0 for c in fundamental_to_monomial(shape.extended_schur).coeffs.values())


def _check_kmatrix(m: int, masks_by_shape: list[Counter[int]]) -> bool:
    try:
        return _k_matrix_of_masks(m, masks_by_shape).determinant() == 1
    except ValueError:  # an entry above the diagonal
        return False


_PER_ALPHA_CHECKS = {
    "relations": _Shape.relations_hold,
    "submodule": _Shape.submodule_closed,
    "characteristic": _check_characteristic,
    "endomorphism": _check_endomorphism,
    "schur": _check_schur,
    "roundtrip": _check_roundtrip,
}


def _run_checks(names, n: int) -> list[dict]:
    """Run the named checks over every weight up to n, in one pass over
    the compositions: ``schur`` on the partitions, every other check on
    each composition, all reading one ``module_analysis._Shape``, dropped
    before the next composition, and ``kmatrix`` once per weight, from the
    descent masks of that weight's shapes.  One result per name, in the
    given order."""
    results = {
        name: {"name": name, "passed": 0, "failed": 0, "first_counterexample": None}
        for name in names
    }

    def record(name: str, label: str, ok: bool) -> None:
        result = results[name]
        if ok:
            result["passed"] += 1
        else:
            result["failed"] += 1
            if result["first_counterexample"] is None:
                result["first_counterexample"] = label

    for m in range(1, n + 1):
        masks_by_shape = []
        for alpha in compositions_of(m):
            shape = _Shape(alpha)
            label = format_composition(alpha)
            for name in results:
                if name == "kmatrix" or (name == "schur" and not is_partition(alpha)):
                    continue
                prefix = "lambda" if name == "schur" else "alpha"
                record(name, f"{prefix}={label}", _PER_ALPHA_CHECKS[name](shape))
            if "kmatrix" in results:
                masks_by_shape.append(shape.descent_masks)
        if "kmatrix" in results:
            record("kmatrix", f"n={m}", _check_kmatrix(m, masks_by_shape))
    return list(results.values())


def _cmd_verify(args) -> int:
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    if args.n > args.max_n:
        raise UsageError(f"--n {args.n} exceeds --max-n {args.max_n}")
    selected = [name for name in ALL_CHECKS if name in args.checks]
    results = _run_checks(selected, args.n)
    ok = all(result["failed"] == 0 for result in results)
    if args.format == "json":
        print(_json_text({"n": args.n, "ok": ok, "checks": results}))
    else:
        for result in results:
            print(f"{result['name']}: {result['passed']} pass, {result['failed']} fail")
            if result["first_counterexample"]:
                print(f"  first counterexample: {result['first_counterexample']}")
        print("result: " + ("all checks passed" if ok else "FAILURES detected"))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
