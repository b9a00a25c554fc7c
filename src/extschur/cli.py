"""Command-line front end.

Commands: expand, tableaux, char, analyze, verify, kmatrix.  Exit codes:
0 success / all checks pass, 1 verification failure (a failed check, or a
module analyze cannot certify) or stdout closed by its reader before the
output ended, 2 usage error or a request refused before it starts because
its output would be too large.

The grammar is one table, ``_COMMANDS`` with the shared options
``_SHARED``.  A call made of a command and exact long options of it is
parsed from the table alone; argparse is imported, and its parser built
from the same table, only for help and for every other call, so
abbreviations, ``--opt=value``, help screens and usage errors are
argparse's own.
"""

from __future__ import annotations

import functools
import json
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii
from math import factorial, prod
from types import SimpleNamespace

from .compositions import (
    Composition,
    _mask,
    compositions_of,
    format_composition,
    is_partition,
    parse_composition,
)
from .module_analysis import _Shape, characteristic
from .qsym import (
    QSymElement,
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

# expand --basis M printed the 524,288 terms of --alpha 20 in 6.0-6.3 s and
# 159 MB with --format json, about 12 us per term, and in 4.1-5.4 s as text
# (2-core host, Python 3.11.7); a larger expansion is refused before any refining
M_TERM_SECONDS = 18e-6
M_TERM_BUDGET = 1 << 19
# tableaux --show-descents --format json, the costliest listing of SETs,
# took 2.2-2.4 s for the 64,064 SETs of 5,3,3,2,1 and 0.8-1.0 s for the
# 20,592 of 5,3,2,1,1,1, 34-50 us per SET (analyze 13-20 us, the text
# listing 15-22 us, same host); analyze, char and tableaux refuse more SETs
# (SRITs for --kind srit) before making any
SET_SECONDS = 50e-6
SET_BUDGET = 300_000


class UsageError(Exception):
    pass


# The CLI grammar, read by the strict parser and by the argparse builder:
# each command's help and options, each option as flag: (dest, kind,
# default, help), where kind is int, str, a tuple of choices or bool (a
# store-true flag) and a default of _REQUIRED marks a required option.  The
# shared options are accepted after every command.
_REQUIRED = object()
_SHARED = {
    "--format": ("format", FORMATS, "text", "output format"),
    "--max-n": ("max_n", int, 8, "cap on the weight of requested compositions (default 8)"),
}
_ALPHA = ("alpha", str, _REQUIRED, None)
_N = ("n", int, _REQUIRED, None)
_COMMANDS = {
    "expand": ("extended Schur expansion of one shape", {
        "--alpha": ("alpha", str, _REQUIRED, "composition, e.g. 2,1,3"),
        "--basis": ("basis", ("F", "M"), "F", None),
    }),
    "tableaux": ("list the standard fillings of one shape", {
        "--alpha": _ALPHA,
        "--kind": ("kind", ("set", "srit"), "set", None),
        "--show-descents": ("show_descents", bool, False, None),
    }),
    "char": ("quasisymmetric characteristic of one shape", {"--alpha": _ALPHA}),
    "analyze": ("full module analysis of one shape", {"--alpha": _ALPHA}),
    "verify": ("run verification sweeps over all weights up to n", {
        "--n": _N,
        "--checks": ("checks", str, ",".join(ALL_CHECKS),
                     "comma-separated subset of: " + ", ".join(ALL_CHECKS)),
    }),
    "kmatrix": ("descent-count matrix of one degree", {"--n": _N}),
}


def _parse_strict(argv: list):
    """The namespace argparse makes of ``argv`` when it is a command followed
    by exact long options of that command, each given at most once, each
    value the next item, a str not starting with '-', that converts and lies
    in its choices, and every required option present; otherwise None, and
    argparse parses ``argv`` (help, abbreviations, '--opt=value', repeats,
    which argparse settles by keeping the last, and every usage error)."""
    if not argv or type(argv[0]) is not str or argv[0] not in _COMMANDS:
        return None
    options = {**_SHARED, **_COMMANDS[argv[0]][1]}
    values = {dest: default for dest, _, default, _ in options.values()}
    tokens = iter(argv[1:])
    for flag in tokens:
        # popped, so that a repeated option declines
        spec = options.pop(flag, None) if type(flag) is str else None
        if spec is None:
            return None
        dest, kind, _, _ = spec
        if kind is bool:
            values[dest] = True
            continue
        value = next(tokens, None)
        if type(value) is not str or value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        values[dest] = value
    if _REQUIRED in values.values():
        return None
    return SimpleNamespace(command=argv[0], **values)


@functools.lru_cache(maxsize=1)
def _build_parser():
    """The argparse parser of the same grammar, built on first use and kept
    for the process; parsing leaves it unchanged."""
    import argparse

    def add_options(parser, options) -> None:
        for flag, (dest, kind, default, text) in options.items():
            if kind is bool:
                parser.add_argument(flag, action="store_true", dest=dest, help=text)
            else:
                parser.add_argument(
                    flag, dest=dest, help=text,
                    type=int if kind is int else None,
                    choices=kind if type(kind) is tuple else None,
                    required=default is _REQUIRED,
                    default=None if default is _REQUIRED else default,
                )

    common = argparse.ArgumentParser(add_help=False)
    add_options(common, _SHARED)
    parser = argparse.ArgumentParser(
        prog="extschur",
        description="Extended Schur expansions, standard extended tableaux, "
        "and exact analysis of the associated 0-Hecke modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in _COMMANDS.items():
        add_options(sub.add_parser(command, parents=[common], help=text), options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_strict(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
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
        code = handler(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull so that the
        # flush at exit writes nowhere instead of raising again
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


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
    return "".join(_qsym_pieces(x)) or "0"


def _qsym_pieces(x: QSymElement):
    """The text of :func:`format_qsym`, one term at a time, each after
    the first with its ' + ' or ' - '; none for zero."""
    for k, (alpha, c) in enumerate(x.terms()):
        term = f"{x.basis}[{','.join(map(str, alpha))}]"
        body = term if abs(c) == 1 else f"{abs(c)}*{term}"
        yield ((" + " if c > 0 else " - ") if k else ("-" if c < 0 else "")) + body


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


def _qsym_json(element: QSymElement, indent: str = ""):
    """The text of ``json.dumps(element.to_json(), indent=2)``, lines after
    the first starting from ``indent``, one term at a time, one template."""
    inner = indent + "    "
    yield (f'{{\n{indent}  "degree": {element.degree},\n'
           f'{indent}  "basis": {_json_text(element.basis)},\n{indent}  "terms": [')
    terms = element.terms()
    for k, (alpha, c) in enumerate(terms):
        yield (f'{"," if k else ""}\n{inner}{{\n{inner}  "composition": '
               f'{_json_text(alpha, inner + "  ")},\n{inner}  "coefficient": {c}\n{inner}}}')
    yield f"\n{indent}  ]\n{indent}}}" if terms else f"]\n{indent}}}"


def _emit_qsym(element: QSymElement, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.writelines(_qsym_json(element))
        sys.stdout.write("\n")
    else:
        # the text of format_qsym, written some thousands of terms at a time
        pieces = _qsym_pieces(element)
        sys.stdout.write("".join(islice(pieces, 4096)) or "0")
        while chunk := "".join(islice(pieces, 4096)):
            sys.stdout.write(chunk)
        sys.stdout.write("\n")


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
    try:
        char = characteristic(alpha)
    except (KeyError, ValueError) as exc:  # an image outside the basis
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    _emit_qsym(char, args.format)
    return EXIT_OK


def _cmd_tableaux(args) -> int:
    alpha = _require_alpha(args)
    _require_set_budget(alpha, args.kind)
    # the tableaux of enumerate_set or enumerate_srit, each made when printed
    words = _set_words(alpha) if args.kind == "set" else _srit_words(alpha)
    listing = map(_from_row_word, words)
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
    shape = _Shape(alpha)
    try:
        shape.certify()
    except (KeyError, ValueError) as exc:  # an image outside the basis, or a refusal
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    masks = shape.column_pass[0]  # each distinct factor is formatted once
    if args.format == "json":
        # json.dumps(analysis_report(alpha), indent=2), 4,096 factors at a time
        text = {mask: _json_text(beta, "    ") for mask, beta in shape.factor_of.items()}
        factors = map(text.__getitem__, masks)
        write = sys.stdout.write
        write(f'{{\n  "alpha": {_json_text(alpha, "  ")},\n  "dim": {len(masks)},\n'
              '  "factors": [\n    ')
        write(",\n    ".join(islice(factors, 4096)))
        while chunk := ",\n    ".join(islice(factors, 4096)):
            write(",\n    " + chunk)
        write('\n  ],\n  "characteristic": ')
        sys.stdout.writelines(_qsym_json(shape.characteristic, "  "))
        write(',\n  "commutant_dimension": 1,\n  "indecomposable": true\n}\n')
    else:
        text = {mask: format_composition(beta) for mask, beta in shape.factor_of.items()}
        print(f"alpha: {format_composition(alpha)}")
        print(f"dimension: {len(masks)}")
        print(f"factors: {'; '.join(map(text.__getitem__, masks))}")
        print(f"characteristic: {format_qsym(shape.characteristic)}")
        print("commutant dimension: 1")
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
    return shape.refusal is None


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


def _check_kmatrix(shape: _Shape) -> bool:
    """Row alpha of ``K`` is 1 on the diagonal and 0 right of it."""
    own = _mask(shape.alpha)
    masks = shape.descent_masks
    # beta < alpha iff the lowest bit where the masks differ is beta's: its part ends first
    return masks[own] == 1 and all(m == own or m & (m ^ own) & -(m ^ own) for m in masks)


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
    before the next composition, and ``kmatrix`` once per weight, passing
    when the ``K`` row of each of that weight's shapes does.  One result
    per name, in the given order."""
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
        triangular = True
        for alpha in compositions_of(m):
            shape = _Shape(alpha)
            label = format_composition(alpha)
            for name in results:
                if name == "kmatrix" or (name == "schur" and not is_partition(alpha)):
                    continue
                prefix = "lambda" if name == "schur" else "alpha"
                try:
                    ok = _PER_ALPHA_CHECKS[name](shape)
                except (KeyError, ValueError):  # an image outside the basis, or a refusal
                    ok = False
                record(name, f"{prefix}={label}", ok)
            if "kmatrix" in results:
                triangular = _check_kmatrix(shape) and triangular
        if "kmatrix" in results:
            record("kmatrix", f"n={m}", triangular)
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
