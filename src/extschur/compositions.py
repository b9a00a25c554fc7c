"""Integer compositions, their descent subsets, and refinement.

A composition of n is a finite sequence of positive integers summing to n.
Compositions of n are in bijection with subsets of {1, ..., n-1} via partial
sums, and beta refines alpha exactly when the subset of alpha is contained
in the subset of beta.

Inside the package a subset of {1, ..., n-1} is held as an ``n-1``-bit
mask, its descent mask: bit ``i-1`` is set when ``i`` is in the subset, so
the mask of a composition has a bit for each proper partial sum
(:func:`_mask`).  This module alone turns masks back into compositions,
one at a time from the set bits (:func:`_composition_of_mask`), so a
result with few terms costs no table of all 2^(n-1) compositions; the
parts read off a mask are positive, so that ``Composition`` skips the
per-part check.  It alone writes them as text too, for the CLI: as bit
strings that sort them (:func:`_bits`), and the parts read off those
(:func:`_labels`), each text made once per process and kept in one
bounded table (:func:`_texts`).  The refinements of a composition are the masks
holding its own, that is its mask joined with each submask of the bits
it leaves free (:func:`_refinement_masks`); only the public
:func:`refinements` lists them, since the basis changes of ``qsym`` sum
over supersets one bit at a time instead.  The public ``DescentSubset``
is the validated form of the same subset.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice, repeat
from operator import attrgetter, itemgetter


class _Record:
    """Base of an immutable record with the repr, equality, hashing and
    frozen errors of a frozen dataclass, message for message, without
    importing ``dataclasses`` and its ``inspect``, ``ast`` and ``typing``.
    The fields are the names annotated in the class body, in order, read
    once per class into ``__match_args__`` and the ``attrgetter`` behind
    ``__eq__`` and ``__hash__``; equality compares the tuples of fields,
    as frozen dataclasses did through Python 3.12.  A class body may
    define its own ``__init__`` and ``__hash__``."""

    def __init_subclass__(cls):
        names = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))
        get = attrgetter(*names) if names else lambda self: ()
        one = len(names) == 1  # one attrgetter name gives a value, not a tuple

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return (get(self),) == (get(other),) if one else get(self) == get(other)
            return NotImplemented

        def __hash__(self):
            return hash((get(self),) if one else get(self))

        for method in (__eq__, __hash__):
            if method.__name__ not in cls.__dict__:
                setattr(cls, method.__name__, method)

    def __init__(self, *args, **kwargs):
        # the records that validate or are made often write their own
        names = self.__match_args__
        fields = dict(zip(names, args), **kwargs)
        if fields.keys() != set(names) or len(args) + len(kwargs) != len(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, fields[name])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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


class DescentSubset(_Record):
    """A subset of {1, ..., n-1}, stored as a strictly increasing tuple."""

    n: int
    members: tuple[int, ...]

    def __init__(self, n, members=()):
        members = tuple(members)
        _check_int(n, "n")
        if n < 0:
            raise ValueError("n must be nonnegative")
        previous = 0
        for member in members:
            _check_int(member, "member")
            if not 1 <= member <= n - 1:
                raise ValueError(f"member {member} outside 1..{n - 1}")
            if member <= previous:
                raise ValueError("members must be strictly increasing")
            previous = member
        self.__dict__.update(n=n, members=members)


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


def _check_int(value, name: str) -> None:
    # bool subclasses int, but True is not the integer 1
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def compositions_of(n: int) -> list[Composition]:
    """All 2^(n-1) compositions of n, in lexicographic order on parts."""
    _check_int(n, "n")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_compositions_of(n))


def _mask(alpha) -> int:
    """The descent mask of alpha: bit ``i-1`` set for each proper partial
    sum ``i``."""
    mask = 0
    total = 0
    for part in alpha[:-1]:
        total += part
        mask |= 1 << total - 1
    return mask


def _composition_of_mask(mask: int, n: int) -> Composition:
    """The composition of n whose descent mask is ``mask``, read off its
    set bits, lowest first; the inverse of :func:`_mask`.  Each part is a
    gap between partial sums, so positive, and the per-part check of
    ``Composition`` is skipped."""
    parts = []
    last = 0
    while mask:
        low = mask & -mask
        total = low.bit_length()
        parts.append(total - last)
        last = total
        mask ^= low
    if n:
        parts.append(n - last)
    return tuple.__new__(Composition, parts)


def _bits(n: int, masks):
    """Each descent mask of weight n as its n-1 bits, lowest first, then a
    stop bit: the binary of the mask with a bit set at n-1, read backwards
    without '0b', and '0' at n = 0.  Of two compositions the smaller has
    the lowest bit where their masks differ, its part ending first:
    lexicographic order is descending order here."""
    return map(itemgetter(slice(None, 1, -1)), map(bin, map((1 << n >> 1).__or__, masks)))


class _Parts(dict):
    """The part string of each run of 0s, made on its first lookup."""

    def __missing__(self, run: str) -> str:
        part = self[run] = str(len(run) + 1)
        return part


def _labels(bits):
    """The parts of the composition with each of :func:`_bits`, joined by
    ',': each part is one more than a run of 0s ended by a 1, read from
    a table of part strings with no Python call per composition."""
    runs = map(itemgetter(slice(-1)), map(str.split, bits, repeat("1")))
    return map(",".join, map(map, repeat(_Parts().__getitem__), runs))


# The text of each composition written so far, e.g. '2,1,3', keyed by the
# :func:`_bits` of its weight and descent mask: its sort key, which the stop
# bit keeps apart between weights.  The text does not depend on the basis
# or the output format, so one entry serves every writer of the CLI for the
# life of the process.  Entries are kept only up to a fixed count: a request
# with more compositions than that, e.g. the 2^19 terms of expand --alpha 20
# --basis M, makes the rest a batch at a time and keeps none of them.
_TEXT_CAP = 4096
_TEXTS: dict[str, str] = {}


def _texts(bits):
    """The text of the composition with each of :func:`_bits`, in the given
    order, 4,096 at a time: read from ``_TEXTS``, or, for a batch with a
    composition it lacks, made by :func:`_labels` and kept while it has
    room."""
    bits = iter(bits)
    while batch := list(islice(bits, 4096)):
        texts = list(map(_TEXTS.get, batch))
        if None in texts:
            texts = list(_labels(batch))
            _TEXTS.update(islice(zip(batch, texts), _TEXT_CAP - len(_TEXTS)))
        yield from texts


def _refinement_masks(mask: int, n: int) -> list[int]:
    """The descent masks of the compositions of n refining the one whose
    mask is ``mask``: ``mask`` joined with each submask of the bits it
    leaves free, the finest first and ``mask`` itself last."""
    free = ((1 << max(n - 1, 0)) - 1) & ~mask
    out = []
    sub = free
    while True:
        out.append(mask | sub)
        if not sub:
            return out
        sub = (sub - 1) & free


def refinements(alpha: Composition) -> list[Composition]:
    """All compositions refining alpha, in lexicographic order.

    Each part is subdivided independently, so there are 2^(n - length)
    of them.
    """
    n = sum(alpha)
    return sorted(
        _composition_of_mask(m, n) for m in _refinement_masks(_mask(alpha), n)
    )


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
    return ",".join(map(str, alpha))
