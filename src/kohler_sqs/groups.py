"""Exact arithmetic for finite abelian groups given as products of cyclic groups.

A group is specified by a list of cyclic factors ``[d1, ..., dk]`` and its
elements are coordinate tuples ``(c1, ..., ck)`` with ``ci`` reduced mod
``di``.  The factor list is normalized only by sorting it ascending, so the
caller controls the coordinate structure ([2, 2, 5] keeps three coordinates).

All values are immutable and every operation is a pure function, so groups and
elements can be shared freely across threads.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .errors import CapacityError, InvalidInputError, InvalidSpecError

Element = tuple[int, ...]

#: Enumeration is refused above this order unless overridden; everything in
#: this package is Theta(v^2) or worse.
DEFAULT_MAX_ORDER = 10000
MAX_ORDER_ENV_VAR = "KOHLER_SQS_MAX_V"


def max_order_limit() -> int:
    """Current enumeration capacity, honouring the KOHLER_SQS_MAX_V env var."""
    raw = os.environ.get(MAX_ORDER_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidSpecError(f"{MAX_ORDER_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InvalidSpecError(f"{MAX_ORDER_ENV_VAR} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class Group:
    """A finite abelian group ``Z_d1 x ... x Z_dk`` with tuple elements.

    Construct through :func:`make_group` (which sorts the factors) rather
    than directly; the factor checks live here, so both routes apply them.
    """

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise InvalidSpecError("a group needs at least one cyclic factor")
        for d in self.factors:
            if not isinstance(d, int) or d < 2:
                raise InvalidSpecError(f"cyclic factors must be integers >= 2, got {d!r}")
        if list(self.factors) != sorted(self.factors):
            raise InvalidSpecError("factors must be sorted ascending; use make_group()")

    # -- basic structure ---------------------------------------------------

    @cached_property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def zero(self) -> Element:
        return (0,) * len(self.factors)

    @cached_property
    def is_sylow2_cyclic(self) -> bool:
        """True iff the Sylow 2-subgroup is cyclic (at most one even factor)."""
        return sum(1 for d in self.factors if d % 2 == 0) <= 1

    # -- element arithmetic ------------------------------------------------

    def add(self, x: Element, y: Element) -> Element:
        return tuple((p + q) % d for p, q, d in zip(x, y, self.factors))

    def sub(self, x: Element, y: Element) -> Element:
        return tuple((p - q) % d for p, q, d in zip(x, y, self.factors))

    def neg(self, x: Element) -> Element:
        return tuple((-p) % d for p, d in zip(x, self.factors))

    def double(self, x: Element) -> Element:
        return tuple((2 * p) % d for p, d in zip(x, self.factors))

    def contains(self, x: object) -> bool:
        return (
            isinstance(x, tuple)
            and len(x) == len(self.factors)
            and all(isinstance(c, int) and 0 <= c < d for c, d in zip(x, self.factors))
        )

    def validate_element(self, x: object) -> Element:
        if not self.contains(x):
            raise InvalidInputError(f"{x!r} is not an element of {self}")
        return x  # type: ignore[return-value]

    # -- enumeration and derived subsets ------------------------------------

    def check_capacity(self, limit: int | None = None) -> None:
        cap = max_order_limit() if limit is None else limit
        if self.order > cap:
            raise CapacityError(
                f"group order {self.order} exceeds the enumeration limit {cap}"
                f" (set {MAX_ORDER_ENV_VAR} to raise it)"
            )

    def elements(self, limit: int | None = None) -> tuple[Element, ...]:
        """All elements in lexicographic coordinate order (deterministic)."""
        self.check_capacity(limit)
        return self._element_tuple

    @cached_property
    def _element_tuple(self) -> tuple[Element, ...]:
        return tuple(product(*(range(d) for d in self.factors)))

    @cached_property
    def omega1(self) -> tuple[Element, ...]:
        """Elements killed by 2 (including 0), in lex order."""
        return tuple(product(*(range(0, d, d // math.gcd(2, d)) for d in self.factors)))

    @cached_property
    def omega2(self) -> tuple[Element, ...]:
        """Elements killed by 4 (including 0), in lex order."""
        return tuple(product(*(range(0, d, d // math.gcd(4, d)) for d in self.factors)))

    @property
    def omega1_size(self) -> int:
        return len(self.omega1)

    @property
    def omega2_size(self) -> int:
        return len(self.omega2)

    def __str__(self) -> str:
        return "Z" + "xZ".join(str(d) for d in self.factors)


def make_group(factors: list[int] | tuple[int, ...]) -> Group:
    """Build a group from a factor list, sorting the factors ascending.

    The coordinate structure is preserved: ``[2, 2, 5]`` keeps three
    coordinates even though the group is isomorphic to Z2 x Z10.
    """
    try:
        factors = sorted(factors)
    except TypeError:
        pass  # incomparable factors: Group rejects the non-integer among them
    return Group(tuple(factors))


_SPEC_TOKEN = re.compile(r"^z?(\d+)$", re.IGNORECASE)


def parse_group_spec(spec: str) -> Group:
    """Parse a CLI group spec such as ``2,2,5`` or ``Z4xZ4``.

    Case-insensitive; the ``Z`` prefix is optional and ``x`` or ``,`` both
    separate factors.
    """
    cleaned = spec.replace(" ", "")
    if not cleaned:
        raise InvalidSpecError("empty group spec")
    tokens = re.split(r"[x,]", cleaned, flags=re.IGNORECASE)
    factors = []
    for token in tokens:
        m = _SPEC_TOKEN.match(token)
        if not m:
            raise InvalidSpecError(f"cannot parse group spec token {token!r} in {spec!r}")
        factors.append(int(m.group(1)))
    return make_group(factors)

