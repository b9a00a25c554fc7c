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
import sys
from itertools import chain, islice, repeat
from math import factorial, prod
from types import SimpleNamespace

from .compositions import (
    Composition,
    _bits,
    _mask,
    _texts,
    compositions_of,
    format_composition,
    is_partition,
    parse_composition,
)
from .module_analysis import _Shape
from .qsym import (
    _superset_sums,
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

FORMATS = ("text", "json", "csv")

# expand --basis M printed the 524,288 terms of --alpha 20 in 1.7-2.7 s and
# 120-122 MB as text and in 2.2-3.5 s and 121-123 MB with --format json,
# 3-7 us per term (2-core host shared with other load, Python 3.11.7); a
# larger expansion is refused before any refining
M_TERM_SECONDS = 5e-6
M_TERM_BUDGET = 1 << 19
# tableaux --show-descents, the costliest listing of SETs, took 1.4-1.9 s
# as text and as JSON for the 64,064 SETs of 5,3,3,2,1, 22-30 us per SET
# (the plain listings 13-18 us; same host, each run a fresh process);
# tableaux refuses more SETs (SRITs for --kind srit) before making any
SET_SECONDS = 30e-6
SET_BUDGET = 300_000
# analyze and char read the SETs off one growth that keeps only its keys:
# analyze --alpha 6,4,3,2,1, 1,153,152 SETs, took 2.6-2.9 s and 86 MB as
# text and 90-91 MB as JSON, char 2.6-3.4 s and 83 MB, about 3 us per SET
# (same host); they refuse more SETs before growing any
ANALYZE_SET_SECONDS = 3e-6
ANALYZE_SET_BUDGET = 1_200_000


class UsageError(Exception):
    pass


def _check_schur(shape: _Shape) -> bool:
    alpha = shape.alpha
    return (
        shape.extended_schur == schur_in_F(alpha)
        and len(shape.growth[0]) == hook_length_count(alpha)  # the keys: no word decoded
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


# verify's checks, in the order it reports them, each a verdict on one
# shape; a schur verdict off a partition means nothing
_PER_ALPHA_CHECKS = {
    "relations": _Shape.relations_hold,
    "submodule": _Shape.submodule_closed,
    # the masks of one weight are its compositions: equal counts, equal F expansions
    "characteristic": lambda shape: shape.column_pass[0] == shape.descent_masks,
    "endomorphism": lambda shape: shape.column_pass[1] is None,
    "schur": _check_schur,
    "kmatrix": _check_kmatrix,
    "roundtrip": _check_roundtrip,
}
ALL_CHECKS = tuple(_PER_ALPHA_CHECKS)


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
        if args.command in ("verify", "kmatrix") and args.n > args.max_n:
            raise UsageError(f"--n {args.n} exceeds --max-n {args.max_n}")
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


def _srit_count(alpha: Composition) -> int:
    """The number n!/prod(alpha_i!) of row-increasing tableaux of alpha."""
    return factorial(alpha.weight) // prod(map(factorial, alpha))


def _require_set_budget(alpha: Composition, kind: str = "set", analyze: bool = False) -> None:
    """Refuse, before any is made, a shape with more tableaux of ``kind``
    than ``SET_BUDGET``, or ``ANALYZE_SET_BUDGET`` for ``analyze`` and
    ``char``: n!/prod(alpha_i!) row-increasing ones, and the extended ones
    counted only when that exceeds the budget."""
    budget, seconds = (ANALYZE_SET_BUDGET, ANALYZE_SET_SECONDS) if analyze else (
        SET_BUDGET, SET_SECONDS)
    count = _srit_count(alpha)
    name = "row-increasing"
    if kind == "set" and count > budget:
        count, name = _set_count(alpha), "extended"
    if count > budget:
        raise UsageError(
            f"{format_composition(alpha)} has {count} standard {name} tableaux, "
            f"over the budget of {budget} at about {seconds * 1e6:g} us each"
        )


def _json_list(ints, indent: str) -> str:
    """The text of ``json.dumps(list(ints), indent=2)`` for a sequence of
    ints, lines after the first starting from ``indent``."""
    sep = ",\n  " + indent
    return f"[\n  {indent}{sep.join(map(str, ints))}\n{indent}]" if ints else "[]"


def _joined(sep: str, items):
    """The text of ``sep.join(items)``, 4,096 items at a time; the first
    piece is '' when there are none."""
    yield sep.join(islice(items, 4096))
    while batch := list(islice(items, 4096)):
        yield sep + sep.join(batch)


def _qsym_chunks(basis: str, n: int, counts, fmt: str = "text", indent: str = ""):
    """The text, e.g. 'F[2,1,3] + 2*F[1,2,3] - F[6]' or '0', or in json that
    of ``json.dumps(x.to_json(), indent=2)`` with lines after the first
    starting from ``indent``, of the element ``x`` of degree n with the
    nonzero coefficient ``counts[m]`` on the composition of descent mask m,
    some thousands of terms at a time.  The masks are sorted by their
    ``_bits`` and each term is one f-string, its composition from
    ``_texts``; no ``Composition`` is built."""
    coefficient = dict(zip(_bits(n, counts), counts.values()))
    order = sorted(coefficient, reverse=True)
    texts = _texts(order)
    coefficients = map(coefficient.__getitem__, order)
    if fmt != "json":
        # 'c*' for c other than 1 and -1: a negative term follows ' + -'
        text = (f"{basis}[{t}]" if c == 1 else f"{c}*{basis}[{t}]" if c != -1 else f"-{basis}[{t}]"
                for c, t in zip(coefficients, texts))
        for chunk in _joined(" + ", text):
            yield chunk.replace(" + -", " - ") or "0"
        return
    inner = indent + "    "
    yield (f'{{\n{indent}  "degree": {n},\n{indent}  "basis": "{basis}",\n'
           f'{indent}  "terms": [')
    if not order:
        yield f"]\n{indent}}}"
        return
    # a composition's JSON list is its text with a line break after each ',':
    # the terms write their own commas as NUL, so that one replace per chunk
    # breaks the compositions' lines and a second restores those commas
    head = f'{{\n{inner}  "composition": ' + (f"[\n{inner}    " if n else "[")
    tail = (f"\n{inner}  ]" if n else "]") + f'\0\n{inner}  "coefficient": '
    end = f"\n{inner}}}"
    terms = (f"{head}{t}{tail}{c}{end}" for c, t in zip(coefficients, texts))
    yield "\n" + inner
    for chunk in _joined("\0\n" + inner, terms):
        yield chunk.replace(",", ",\n    " + inner).replace("\0", ",")
    yield f"\n{indent}  ]\n{indent}}}"


def _cmd_expand(args) -> int:
    alpha = _require_alpha(args)
    n = alpha.weight
    counts = _descent_masks(alpha)
    if args.basis == "M":
        # the coarsest descent mask alone refines into 2^free M terms, and
        # F to M cancels nothing, so the result has at least as many
        free = max(n - 1 - min(mask.bit_count() for mask in counts), 0)
        if 1 << free > M_TERM_BUDGET:
            raise UsageError(
                f"the M expansion of {format_composition(alpha)} has at least "
                f"2^{free} terms, over the budget of {M_TERM_BUDGET} "
                f"at about {M_TERM_SECONDS * 1e6:.0f} us per term"
            )
        counts = _superset_sums(n, counts, "M")
    sys.stdout.writelines(_qsym_chunks(args.basis, n, counts, args.format))
    print()
    return EXIT_OK


def _cmd_char(args) -> int:
    alpha = _require_alpha(args)
    _require_set_budget(alpha, analyze=True)
    try:
        counts = _Shape(alpha).column_pass[0]
    except (KeyError, ValueError) as exc:  # an image outside the basis
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    sys.stdout.writelines(_qsym_chunks("F", alpha.weight, counts, args.format))
    print()
    return EXIT_OK


def _cmd_tableaux(args) -> int:
    alpha = _require_alpha(args)
    _require_set_budget(alpha, args.kind)
    # the tableaux of enumerate_set or enumerate_srit, each made when printed
    words = _set_words(alpha) if args.kind == "set" else _srit_words(alpha)
    as_json = args.format == "json"
    # in json the text of json.dumps([t.to_json() for t in ...], indent=2),
    # each item with its "descent_composition" for --show-descents
    head = f'{{\n    "shape": {_json_list(alpha, "    ")},\n    "rows": '

    def block(t) -> str:
        if as_json:
            rows = ",\n      ".join([_json_list(row, "      ") for row in t.rows])
            text = head + (f"[\n      {rows}\n    ]" if rows else "[]")
        else:
            text = str(t) if t.rows else "(empty)"
        if args.show_descents:
            des = descent_composition(t)
            text += (f',\n    "descent_composition": {_json_list(des, "    ")}' if as_json
                     else f"\nDes: {format_composition(des)}")
        return text + "\n  }" if as_json else text

    # never empty: every shape has its super-standard tableau
    sys.stdout.write("[\n  " if as_json else "")
    blocks = map(block, map(_from_row_word, words))
    sys.stdout.writelines(_joined(",\n  " if as_json else "\n\n", blocks))
    sys.stdout.write("\n]\n" if as_json else "\n")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    alpha = _require_alpha(args)
    _require_set_budget(alpha, analyze=True)
    shape = _Shape(alpha)
    try:
        shape.certify()
    except (KeyError, ValueError) as exc:  # an image outside the basis, or a refusal
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    n = alpha.weight
    counts, dim = shape.column_pass[0], len(shape.growth[0])
    as_json = args.format == "json"
    # each distinct factor is formatted once, as a JSON list or as text
    texts = _texts(_bits(n, counts))
    if as_json:  # at weight 0 the one factor is the empty list
        texts = map(("[\n      {}\n    ]" if n else "[]").format,
                    map(str.replace, texts, repeat(","), repeat(",\n      ")))
    factors = map(dict(zip(counts, texts)).__getitem__, shape.masks())
    write = sys.stdout.write
    if as_json:
        # json.dumps(analysis_report(alpha), indent=2), written in pieces
        write(f'{{\n  "alpha": {_json_list(alpha, "  ")},\n  "dim": {dim},\n'
              '  "factors": [\n    ')
        sys.stdout.writelines(_joined(",\n    ", factors))
        write('\n  ],\n  "characteristic": ')
        sys.stdout.writelines(_qsym_chunks("F", n, counts, "json", "  "))
        write(',\n  "commutant_dimension": 1,\n  "indecomposable": true\n}\n')
    else:
        write(f"alpha: {format_composition(alpha)}\ndimension: {dim}\nfactors: ")
        sys.stdout.writelines(_joined("; ", factors))
        write("\ncharacteristic: ")
        sys.stdout.writelines(_qsym_chunks("F", n, counts))
        write("\ncommutant dimension: 1\nindecomposable: true\n")
    return EXIT_OK


def _cmd_kmatrix(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    km = k_matrix(args.n)
    if args.format == "csv":
        print(km.to_csv(), end="")
    elif args.format == "json":
        # the text of json.dumps of the n, the compositions and the rows, indent=2
        sys.stdout.write(f'{{\n  "n": {km.n},\n  "compositions": [\n    ')
        for lists, end in ((km.compositions, '\n  ],\n  "entries": [\n    '),
                           (km.entries, "\n  ]\n}\n")):
            sys.stdout.writelines(_joined(",\n    ", map(_json_list, lists, repeat("    "))))
            sys.stdout.write(end)
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


def _plan(alphas: list, cores: int) -> list[list]:
    """Split ``alphas`` into min(cores, len(alphas)) parts, none empty, each
    in the given order, balanced by the count of row-increasing tableaux,
    which grows no tableau: the costliest shape first, each shape joins the
    part with the least cost so far."""
    loads = [0] * min(cores, len(alphas))
    parts = [[] for _ in loads]
    costs = list(map(_srit_count, alphas))
    for i in sorted(range(len(alphas)), key=costs.__getitem__, reverse=True):
        k = loads.index(min(loads))
        loads[k] += costs[i]
        parts[k].append(i)
    return [[alphas[i] for i in sorted(part)] for part in parts]


def _cores() -> int:
    """The number of cores this process may run on."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity outside Linux
        return os.cpu_count() or 1


def _verdicts(names, alphas):
    """One byte per shape of ``alphas``, in order, with bit k set when check
    ``names[k]`` passes on it.  A check that raises ``KeyError`` or
    ``ValueError`` fails."""
    for alpha in alphas:
        shape = _Shape(alpha)
        bits = 0
        for k, name in enumerate(names):
            if name == "schur" and not is_partition(alpha):
                continue
            try:
                ok = _PER_ALPHA_CHECKS[name](shape)
            except (KeyError, ValueError):  # an image outside the basis, or a refusal
                ok = False
            if ok:
                bits |= 1 << k
        yield bits


def _check_parts(names, parts: list[list]) -> list[bytes] | None:
    """The ``_verdicts`` of each part: the first in this process, each other
    in a forked child that writes its verdicts to a pipe and exits 0 when
    no check raised.  None when a pipe or a fork fails, a child exits
    otherwise or writes too few bytes, or a check raises here.  Every child
    is reaped, or killed and reaped, before this returns or raises."""
    import os

    children = {}  # pid -> read end of its pipe, until reaped
    try:
        for part in parts[1:]:
            pipe = ()
            try:
                pipe = os.pipe()
                pid = os.fork()
            except OSError:  # out of descriptors or of processes
                for fd in pipe:
                    os.close(fd)
                return None
            read, write = pipe
            if pid == 0:  # the child: never returns
                code = 1
                try:
                    os.close(read)
                    for pipe in children.values():
                        pipe.close()
                    # each byte written as it is made: once the parent is
                    # gone the next write fails, and the child stops
                    for bits in _verdicts(names, part):
                        os.write(write, bytes((bits,)))
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children[pid] = open(read, "rb")
        try:
            checked = [bytes(_verdicts(names, parts[0]))]
        except Exception:  # raised again by the single pass
            return None
        for part, (pid, pipe) in zip(parts[1:], list(children.items())):
            verdicts = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            pipe.close()
            if status or len(verdicts) != len(part):
                return None
            checked.append(verdicts)
        return checked
    finally:
        if children:
            import signal

            for pid, pipe in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_checks(names, n: int) -> list[dict]:
    """Run the named checks over every weight up to n: ``schur`` on the
    partitions, every other check on each composition, all reading one
    ``module_analysis._Shape``, dropped before the next composition, and
    ``kmatrix`` once per weight, passing when the ``K`` row of each of that
    weight's shapes does.  ``_plan`` splits the compositions over the
    cores this process may run on, one part each, where ``os.fork`` exists
    and no other thread runs, and the verdicts are read in composition
    order.  On one core, or when ``_check_parts`` gives None, every shape
    is checked in one pass here, so a fault in a part runs the whole sweep
    again: the results, and the exception a check raises on the earliest
    shape, are those of a single pass.  One result per name, in the given
    order."""
    import os

    alphas = [alpha for m in range(1, n + 1) for alpha in compositions_of(m)]
    # forking a process with threads may deadlock the child
    threading = sys.modules.get("threading")
    alone = hasattr(os, "fork") and (threading is None or threading.active_count() == 1)
    parts = _plan(alphas, _cores() if alone else 1)
    checked = _check_parts(names, parts) if len(parts) > 1 else None
    if checked is None:
        parts, checked = [alphas], [bytes(_verdicts(names, alphas))]
    verdict = dict(zip(chain(*parts), chain(*checked)))
    labels = list(map(format_composition, alphas))

    results = []
    for k, name in enumerate(names):
        if name == "kmatrix":
            pairs = [(f"n={m}", all(verdict[alpha] >> k & 1 for alpha in alphas
                                    if alpha.weight == m)) for m in range(1, n + 1)]
        else:
            prefix = "lambda" if name == "schur" else "alpha"
            pairs = [(f"{prefix}={label}", verdict[alpha] >> k & 1)
                     for alpha, label in zip(alphas, labels)
                     if name != "schur" or is_partition(alpha)]
        failed = [label for label, ok in pairs if not ok]
        results.append({"name": name, "passed": len(pairs) - len(failed),
                        "failed": len(failed), "first_counterexample": failed[0] if failed else None})
    return results


def _cmd_verify(args) -> int:
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    selected = [name for name in ALL_CHECKS if name in args.checks]
    results = _run_checks(selected, args.n)
    ok = all(result["failed"] == 0 for result in results)
    if args.format == "json":
        import json

        print(json.dumps({"n": args.n, "ok": ok, "checks": results}, indent=2))
    else:
        for result in results:
            print(f"{result['name']}: {result['passed']} pass, {result['failed']} fail")
            if result["first_counterexample"]:
                print(f"  first counterexample: {result['first_counterexample']}")
        print("result: " + ("all checks passed" if ok else "FAILURES detected"))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
