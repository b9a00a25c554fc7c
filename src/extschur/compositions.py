"""Integer compositions, their descent subsets, and refinement.

A composition of n is a finite sequence of positive integers summing to n.
Compositions of n are in bijection with subsets of {1, ..., n-1} via partial
sums, and beta refines alpha exactly when the subset of alpha is contained
in the subset of beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product


class Composition(tuple):
    """An immutable sequence of positive integer parts.

    Behaves as a tuple: hashable, usable as a dict key, with lexicographic
    ordering.  The empty composition is the unique composition of 0.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        self = super().__new__(cls, parts)
        for part in self:
            # bool subclasses int, but True is not a part
            if not isinstance(part, int) or isinstance(part, bool) or part < 1:
                raise ValueError(
                    f"composition parts must be positive integers, got {part!r}"
                )
        return self

    def __repr__(self) -> str:
        return f"Composition{super().__repr__()}"

    @property
    def weight(self) -> int:
        """Sum of the parts."""
        return sum(self)

    @property
    def length(self) -> int:
        """Number of parts."""
        return len(self)


@dataclass(frozen=True)
class DescentSubset:
    """A subset of {1, ..., n-1}, stored as a strictly increasing tuple."""

    n: int
    members: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        previous = 0
        for member in self.members:
            if not 1 <= member <= self.n - 1:
                raise ValueError(f"member {member} outside 1..{self.n - 1}")
            if member <= previous:
                raise ValueError("members must be strictly increasing")
            previous = member


def descent_subset(alpha: Composition) -> DescentSubset:
    """The proper partial sums of alpha, as a subset of {1, ..., n-1}."""
    sums = []
    total = 0
    for part in alpha[:-1]:
        total += part
        sums.append(total)
    return DescentSubset(sum(alpha), tuple(sums))


def composition_of_subset(s: DescentSubset) -> Composition:
    """The unique composition of s.n whose partial sums are exactly s.

    Inverse of :func:`descent_subset` in both directions.
    """
    if s.n == 0:
        return Composition()
    boundaries = (0,) + s.members + (s.n,)
    return Composition(b - a for a, b in zip(boundaries, boundaries[1:]))


def refines(beta: Composition, alpha: Composition) -> bool:
    """True when alpha is obtained by summing consecutive parts of beta.

    Equivalently: equal weights and the subset of alpha is contained in
    the subset of beta.
    """
    if sum(beta) != sum(alpha):
        return False
    return set(descent_subset(alpha).members) <= set(descent_subset(beta).members)


def is_partition(alpha: Composition) -> bool:
    """True when the parts are weakly decreasing."""
    return all(alpha[i] >= alpha[i + 1] for i in range(len(alpha) - 1))


@lru_cache(maxsize=None)
def _compositions_of(n: int) -> tuple[Composition, ...]:
    if n == 0:
        return (Composition(),)
    result = []
    for first in range(1, n + 1):
        for rest in _compositions_of(n - first):
            result.append(Composition((first,) + rest))
    return tuple(result)


def compositions_of(n: int) -> list[Composition]:
    """All 2^(n-1) compositions of n, in lexicographic order on parts."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_compositions_of(n))


def refinements(alpha: Composition) -> list[Composition]:
    """All compositions refining alpha.

    Each part is subdivided independently, so there are 2^(n - length)
    of them.
    """
    pools = [_compositions_of(part) for part in alpha]
    out = []
    for pieces in product(*pools):
        parts: list[int] = []
        for piece in pieces:
            parts.extend(piece)
        out.append(Composition(parts))
    return out


def parse_composition(text: str) -> Composition:
    """Parse comma-separated positive integers; '' is the empty composition.

    Each piece is ASCII digits with optional surrounding whitespace, so
    signs, underscores and non-ASCII digits, all of which ``int`` accepts,
    are refused.
    """
    text = text.strip()
    if not text:
        return Composition()
    pieces = [piece.strip() for piece in text.split(",")]
    if not all(piece.isascii() and piece.isdigit() for piece in pieces):
        raise ValueError(f"malformed composition string: {text!r}")
    return Composition(int(piece) for piece in pieces)


def format_composition(alpha: Composition) -> str:
    """Render as comma-separated parts; the empty composition is ''."""
    return ",".join(str(part) for part in alpha)
