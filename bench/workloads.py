"""Request lists and output checks for the three benchmark workloads.

Everything here is stdlib-only and never calls into ``extschur``: the
program receives only the generated requests, and the checks rest on the
recorded reference digests plus one invariant per workload that is
computed by an independent route.

A request is an argv list for ``extschur.cli.main``.  The seed decides the
request order and each request's output format or basis; it never changes
the set of shapes a workload covers.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from functools import lru_cache
from itertools import product
from pathlib import Path

WORKLOADS = ("expand", "analyze", "verify")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def compositions(n: int) -> list[tuple[int, ...]]:
    """All 2^(n-1) compositions of n (n >= 1), from the cut positions."""
    out = []
    for cuts in product((False, True), repeat=n - 1):
        parts = [1]
        for cut in cuts:
            if cut:
                parts.append(1)
            else:
                parts[-1] += 1
        out.append(tuple(parts))
    return sorted(out)


def _alpha(parts) -> str:
    return ",".join(str(p) for p in parts)


def _balanced(rng: random.Random, choices: tuple[str, ...], count: int) -> list[str]:
    """``count`` labels split as evenly as possible over ``choices``, shuffled.

    An even split keeps the total work of a pass the same for every seed.
    """
    labels = [choices[k % len(choices)] for k in range(count)]
    rng.shuffle(labels)
    return labels


def build_requests(workload: str, seed: int, pass_index: int = 0) -> list[list[str]]:
    """The request list of one pass; no request repeats within it.

    The seed alone fixes each request's basis or format, so every pass of a
    run sends the same requests; the pass number only reorders them.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "expand":
        shapes = compositions(8)
        bases = _balanced(rng, ("F", "M"), len(shapes))
        requests = [
            ["expand", "--alpha", _alpha(a), "--basis", b] for a, b in zip(shapes, bases)
        ]
        requests.append(["kmatrix", "--n", "7", "--format", rng.choice(("text", "json", "csv"))])
    elif workload == "analyze":
        shapes = [a for n in (7, 8) for a in compositions(n) if len(a) <= 4]
        formats = _balanced(rng, ("text", "json"), len(shapes))
        requests = [
            ["analyze", "--alpha", _alpha(a), "--format", f] for a, f in zip(shapes, formats)
        ]
    elif workload == "verify":
        requests = [["verify", "--n", "6"]]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    random.Random(f"{workload}/{seed}/{pass_index}").shuffle(requests)
    return requests


def all_requests(workload: str) -> list[list[str]]:
    """Every request any seed can produce for the workload."""
    if workload == "expand":
        return [
            ["expand", "--alpha", _alpha(a), "--basis", b]
            for a in compositions(8) for b in ("F", "M")
        ] + [["kmatrix", "--n", "7", "--format", f] for f in ("text", "json", "csv")]
    if workload == "analyze":
        return [
            ["analyze", "--alpha", _alpha(a), "--format", f]
            for n in (7, 8) for a in compositions(n) if len(a) <= 4
            for f in ("text", "json")
        ]
    return build_requests(workload, 0)


def request_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_reference() -> dict[str, list]:
    """Map request key -> [exit code, sha256 of stdout] recorded from a
    known-good commit."""
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def set_count(shape: tuple[int, ...]) -> int:
    """Number of standard extended tableaux of ``shape``, by removing n.

    The largest entry sits at the end of a row and at the top of its
    column, i.e. in a row r that no higher row reaches in length; removing
    it leaves a standard extended tableau of the smaller shape.  This
    recursion shares nothing with the enumeration the program uses.
    """
    if not shape:
        return 1
    total = 0
    for r, part in enumerate(shape):
        if all(higher < part for higher in shape[r + 1:]):
            smaller = shape[:r] + ((part - 1,) if part > 1 else ()) + shape[r + 1:]
            total += set_count(smaller)
    return total


_TERM = re.compile(r"(?:(\d+)\*)?[FM]\[[\d,]*\]")


def qsym_coefficient_sum(text: str) -> int:
    """Sum of the coefficients of a rendered element like
    'F[2,1] + 2*F[1,1,1] - F[3]'."""
    if text == "0":
        return 0
    pieces = re.split(r" ([+-]) ", text)
    total = 0
    signs = ["-" if pieces[0].startswith("-") else "+"] + pieces[1::2]
    for sign, term in zip(signs, pieces[0::2]):
        match = _TERM.fullmatch(term.lstrip("-"))
        if match is None:
            raise ValueError(f"unparsable term {term!r}")
        value = int(match.group(1) or 1)
        total += value if sign == "+" else -value
    return total


def invariant_error(argv: list[str], code: int, out: str) -> str | None:
    """Check the workload's independent invariant; None when it holds."""
    command = argv[0]
    if command == "expand" and argv[argv.index("--basis") + 1] == "F":
        shape = tuple(int(p) for p in argv[argv.index("--alpha") + 1].split(","))
        got = qsym_coefficient_sum(out.strip())
        want = set_count(shape)
        if got != want:
            return f"coefficient sum {got} != {want} standard extended tableaux"
    elif command == "analyze":
        if argv[argv.index("--format") + 1] == "json":
            report = json.loads(out)
            dim = report["dim"]
            coefficients = sum(t["coefficient"] for t in report["characteristic"]["terms"])
            commutant = report["commutant_dimension"]
        else:
            fields = dict(line.split(": ", 1) for line in out.splitlines())
            dim = int(fields["dimension"])
            coefficients = qsym_coefficient_sum(fields["characteristic"])
            commutant = int(fields["commutant dimension"])
        if dim != coefficients:
            return f"dim {dim} != characteristic coefficient sum {coefficients}"
        if commutant != 1:
            return f"commutant dimension {commutant} != 1"
    elif command == "verify":
        lines = out.splitlines()
        if code != 0 or not lines or lines[-1] != "result: all checks passed":
            return "verify did not report all checks passed"
    return None


def check(argv: list[str], code, out: str, reference: dict[str, list]) -> str | None:
    """Why the response is wrong, or None when it is right."""
    expected = reference.get(request_key(argv))
    if expected is None:
        return "no reference recorded for this request"
    if code != expected[0]:
        return f"exit code {code} != reference {expected[0]}"
    if digest(out) != expected[1]:
        return "stdout differs from the reference digest"
    try:
        return invariant_error(argv, code, out)
    except (ValueError, KeyError, IndexError) as exc:
        return f"output does not parse: {exc!r}"
