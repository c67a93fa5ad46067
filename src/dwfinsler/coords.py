"""Coordinate indexing on the slit tangent bundle of a two-factor product.

A point carries four coordinate groups: base positions of each factor (x, u)
and the corresponding fiber vectors (y, v).  Every scalar field handled by the
jet machinery is a function of these 2*(n1+n2) coordinates, addressed through
:class:`CoordIndex`.

:class:`Value` is the base of the library's immutable value classes: the
coordinates here, and the samples, factor and warp specs and product
configurations of :mod:`dwfinsler.metrics`.
"""

from __future__ import annotations

from enum import IntEnum

#: Hard bound on the total differentiation order the jet layer supports.
MAX_ORDER = 6


class CoordBlock(IntEnum):
    BASE1 = 0
    BASE2 = 1
    FIBER1 = 2
    FIBER2 = 3


class Value:
    """An immutable value, usable as a key.

    A subclass names its fields in ``__slots__`` and sets them once, in that
    order, through :meth:`_init`, which also keeps their tuple as ``_key``.
    Values of one class are equal when their keys are, and hash by their key;
    assigning to a field raises ``AttributeError``.
    """

    __slots__ = ("_key",)

    def _init(self, *values) -> None:
        object.__setattr__(self, "_key", values)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class CoordIndex(Value):
    """One coordinate of the slit tangent bundle, e.g. x^2 or v^0; ordered by
    block, then offset.  The hash of its key is kept: the jet layer's caches
    hash coordinates on every lookup."""

    __slots__ = ("block", "offset", "_hash")

    def __init__(self, block: CoordBlock, offset: int):
        if offset < 0:
            raise ValueError(f"negative coordinate offset {offset}")
        self._init(block, offset)
        object.__setattr__(self, "_hash", hash(self._key))

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key < other._key
        return NotImplemented

    @property
    def factor(self) -> int:
        """1 or 2, the factor manifold this coordinate belongs to."""
        return 1 if self.block in (CoordBlock.BASE1, CoordBlock.FIBER1) else 2

    def __repr__(self) -> str:
        tag = {CoordBlock.BASE1: "x", CoordBlock.BASE2: "u",
               CoordBlock.FIBER1: "y", CoordBlock.FIBER2: "v"}[self.block]
        return f"{tag}{self.offset}"


def base1(i: int) -> CoordIndex:
    return CoordIndex(CoordBlock.BASE1, i)


def base2(i: int) -> CoordIndex:
    return CoordIndex(CoordBlock.BASE2, i)


def fiber1(i: int) -> CoordIndex:
    return CoordIndex(CoordBlock.FIBER1, i)


def fiber2(i: int) -> CoordIndex:
    return CoordIndex(CoordBlock.FIBER2, i)


def base_coords(n1: int, n2: int) -> tuple[CoordIndex, ...]:
    """Combined base coordinates in block order (x then u)."""
    return tuple(base1(i) for i in range(n1)) + tuple(base2(i) for i in range(n2))


def fiber_coords(n1: int, n2: int) -> tuple[CoordIndex, ...]:
    """Combined fiber coordinates in block order (y then v)."""
    return tuple(fiber1(i) for i in range(n1)) + tuple(fiber2(i) for i in range(n2))

