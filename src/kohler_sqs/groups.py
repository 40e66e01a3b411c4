"""Exact arithmetic for finite abelian groups given as products of cyclic groups.

A group is specified by a list of cyclic factors ``[d1, ..., dk]`` and its
elements are coordinate tuples ``(c1, ..., ck)`` with ``ci`` reduced mod
``di``.  The factor list is normalized only by sorting it ascending, so the
caller controls the coordinate structure ([2, 2, 5] keeps three coordinates).

Inside the package an element is its *code*: the mixed-radix integer
``c1*s1 + ... + ck*sk`` with ``si = d(i+1) * ... * dk``, so the first
coordinate is the most significant.  Codes run over ``0..v-1`` in the order
of :meth:`Group.elements`, which makes integer order equal to lexicographic
tuple order: sorted codes decode to sorted tuples, and the least code of a
set is its lex-least element.  The code tables (negation, doubling, pair
sums, one translation row at a time) are built on first use, never at import
time, and none of them is a v x v Cayley table.

All values are immutable and every operation is a pure function, so groups and
elements can be shared freely across threads.

:class:`Record` is the base of the package's value records (a group, an
orbit representative, a matching, a Koehler graph, a design and its
reports): a plain class whose ``__init__`` is written out, frozen, compared
and hashed by its fields.  The records are not dataclasses, so importing
the package generates and ``exec``s no code, and loads neither
:mod:`dataclasses` nor the :mod:`inspect` and :mod:`ast` it imports.
"""

from __future__ import annotations

import math
import operator
import os
import re
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
        value = _ascii_int(raw)
        if value is None:
            raise ValueError(raw)
    except ValueError as exc:  # also past int()'s limit on digits
        raise InvalidSpecError(f"{MAX_ORDER_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InvalidSpecError(f"{MAX_ORDER_ENV_VAR} must be positive, got {value}")
    return value


def _ascii_int(text: str) -> int | None:
    """The integer that ``text`` writes in ASCII digits, spaces around them
    allowed, else None; ``int()`` would also read a sign, an underscore and
    any Unicode digit.  Raises ValueError past ``int()``'s limit on digits."""
    digits = text.strip(" ")
    return int(digits) if digits.isascii() and digits.isdigit() else None


def _order_text(n: int) -> str:
    """A group order for a message: in decimal, or by its bit length when it
    has more digits than ``str`` writes (4300 by default)."""
    try:
        return str(n)
    except ValueError:
        return f"<{n.bit_length()}-bit number>"


class Record:
    """A frozen value record.

    ``_fields`` names the fields in the order of the subclass's
    ``__init__``, which stores each in the instance ``__dict__``, where
    :class:`~functools.cached_property` keeps its values too.  Fields are
    read as attributes, so a record made another way may compute a field on
    first read.  Records of one class are equal when their fields are, and
    equal records hash alike; a record never equals an object of another
    class.  ``repr`` shows every field but those in ``_unshown``.  Assigning
    or deleting an attribute raises AttributeError."""

    _fields: tuple[str, ...] = ()
    _unshown: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._unshown)
        return f"{self.__class__.__qualname__}({', '.join(shown)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Group(Record):
    """A finite abelian group ``Z_d1 x ... x Z_dk`` with tuple elements.

    Construct through :func:`make_group` (which sorts the factors) rather
    than directly; the factor checks live here, so both routes apply them.
    """

    _fields = ("factors",)

    def __init__(self, factors: tuple[int, ...]) -> None:
        self.__dict__.update(factors=factors)
        if not factors:
            raise InvalidSpecError("a group needs at least one cyclic factor")
        for d in factors:
            if not isinstance(d, int) or d < 2:
                raise InvalidSpecError(f"cyclic factors must be integers >= 2, got {d!r}")
        if list(factors) != sorted(factors):
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
        return tuple(map(operator.mod, map(operator.add, x, y), self.factors))

    def sub(self, x: Element, y: Element) -> Element:
        return tuple(map(operator.mod, map(operator.sub, x, y), self.factors))

    def neg(self, x: Element) -> Element:
        return tuple(map(operator.mod, map(operator.neg, x), self.factors))

    def double(self, x: Element) -> Element:
        return tuple(map(operator.mod, map(operator.add, x, x), self.factors))

    def contains(self, x: object) -> bool:
        return (
            isinstance(x, tuple)
            and len(x) == len(self.factors)
            and all(type(c) is int and 0 <= c < d for c, d in zip(x, self.factors))
        )

    def validate_element(self, x: object) -> Element:
        if not self.contains(x):
            raise InvalidInputError(f"{x!r} is not an element of {self}")
        return x  # type: ignore[return-value]

    # -- integer codes -----------------------------------------------------

    def encode(self, x: object) -> int:
        """The code of element ``x``; raises InvalidInputError for a non-element."""
        try:
            code = self._index.get(x)
        except TypeError:  # unhashable, so not a tuple of ints
            code = None
        # an equal tuple of non-ints, such as (1.0,) or (True,), hits the index
        # too; a hit is in range, so only the coordinate types are left to test
        if code is None or tuple(map(type, x)) != (int,) * len(x):
            raise InvalidInputError(f"{x!r} is not an element of {self}")
        return code

    def decode(self, code: int) -> Element:
        """The element with code ``code``; the same tuple object on every call."""
        if not isinstance(code, int) or not 0 <= code < self.order:
            raise InvalidInputError(f"{code!r} is not an element code of {self}")
        return self.elements()[code]

    # Every code table has v entries or more, so building one honours the
    # capacity limit like any other enumeration.

    @cached_property
    def _index(self) -> dict[Element, int]:
        return {x: code for code, x in enumerate(self.elements())}

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        return tuple(math.prod(self.factors[i + 1 :]) for i in range(len(self.factors)))

    def _scaled(self, n: int) -> tuple[int, ...]:
        """The table ``code -> code`` of ``x -> n * x``, coordinate by coordinate."""
        self.check_capacity()
        return tuple(
            _mixed_radix_table([[n * c % d * s for c in range(d)] for d, s in zip(self.factors, self._strides)])
        )

    @cached_property
    def neg_table(self) -> tuple[int, ...]:
        """``neg_table[x]`` is the code of ``-x``."""
        return self._scaled(-1)

    @cached_property
    def double_table(self) -> tuple[int, ...]:
        """``double_table[x]`` is the code of ``2x``."""
        return self._scaled(2)

    def translation(self, a: int) -> list[int]:
        """The row ``x -> x + a`` over all codes x, for the code ``a``; O(v)."""
        if not 0 <= a < self.order:
            raise InvalidInputError(f"{a!r} is not an element code of {self}")
        fold, shift = self._fold, self._spread[a]
        return [fold[shift + s] for s in self._spread]

    def add_codes(self, x: int, y: int) -> int:
        """The code of ``x + y``; the codes are not checked."""
        return self._fold[self._spread[x] + self._spread[y]]

    # Pair sums without a Cayley table: ``_spread`` rewrites a code in the
    # radix (2*d1 - 1, ..., 2*dk - 1), where adding two spread codes never
    # carries, and ``_fold`` reduces such a sum back to a code.  ``_fold`` has
    # (2*d1 - 1) * ... * (2*dk - 1) < 2^k * v entries: 2v - 1 for a cyclic group.

    @cached_property
    def _spread(self) -> tuple[int, ...]:
        self.check_capacity()
        radices = [2 * d - 1 for d in self.factors]
        return tuple(
            _mixed_radix_table(
                [[c * math.prod(radices[i + 1 :]) for c in range(d)] for i, d in enumerate(self.factors)]
            )
        )

    @cached_property
    def _fold(self) -> tuple[int, ...]:
        # the mixed-radix build of _mixed_radix_table, but every partial sum
        # is a code, so each is read from one list of the v codes: the 3^k
        # entries on Z2^k share v int objects instead of holding one each
        self.check_capacity()
        codes = list(range(self.order))
        columns = [[c % d * s for c in range(2 * d - 1)] for d, s in zip(self.factors, self._strides)]
        table = columns[-1]
        for column in reversed(columns[:-1]):
            table = [codes[high + low] for high in column for low in table]
        return tuple(table)

    # -- enumeration and subset sizes ---------------------------------------

    def check_capacity(self) -> None:
        cap = max_order_limit()
        if self.order > cap:
            raise CapacityError(
                f"group order {_order_text(self.order)} exceeds the enumeration limit {cap}"
                f" (set {MAX_ORDER_ENV_VAR} to raise it)"
            )

    def elements(self) -> tuple[Element, ...]:
        """All elements in lexicographic coordinate order (deterministic)."""
        self.check_capacity()
        return self._element_tuple

    @cached_property
    def _element_tuple(self) -> tuple[Element, ...]:
        return tuple(product(*(range(d) for d in self.factors)))

    @property
    def omega1_size(self) -> int:
        """|Omega_1|, the number of elements killed by 2 (including 0)."""
        return math.prod(math.gcd(2, d) for d in self.factors)

    @property
    def omega2_size(self) -> int:
        """|Omega_2|, the number of elements killed by 4 (including 0)."""
        return math.prod(math.gcd(4, d) for d in self.factors)

    def __str__(self) -> str:
        return "Z" + "xZ".join(str(d) for d in self.factors)


def _mixed_radix_table(columns: list[list[int]]) -> list[int]:
    """Entry i is the sum over j of ``columns[j][i_j]``, where ``i_j`` are the
    digits of i in the mixed radix of the column lengths, first most significant."""
    table = columns[-1]
    for column in reversed(columns[:-1]):
        table = [high + low for high in column for low in table]
    return table


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


def parse_group_spec(spec: str) -> Group:
    """Parse a CLI group spec such as ``2,2,5`` or ``Z4xZ4``.

    Case-insensitive; the ``Z`` prefix is optional, ``x`` or ``,`` both
    separate factors, and spaces are allowed around a factor but not inside it.
    """
    if not spec.strip(" "):
        raise InvalidSpecError("empty group spec")
    factors = []
    for token in re.split(r"[x,]", spec, flags=re.IGNORECASE):
        token = token.strip(" ")
        digits = token[1:] if token[:1] in ("z", "Z") else token
        try:
            factor = _ascii_int(digits)
        except ValueError as exc:  # past the interpreter's limit on digits converted
            raise InvalidSpecError(
                f"a cyclic factor in the group spec has {len(digits)} digits, too many to read"
            ) from exc
        if factor is None:
            raise InvalidSpecError(f"cannot parse group spec token {token!r} in {spec!r}")
        factors.append(factor)
    return make_group(factors)
