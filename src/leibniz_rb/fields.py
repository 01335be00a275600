"""Exact scalars: the rationals, prime fields GF(p) and the ints ``ZZ``.

Rational scalars are plain :class:`fractions.Fraction` values; GF(p)
scalars are :class:`GFElement` instances.  Both support ordinary
arithmetic operators, so all higher layers are field-agnostic.

The accumulating kernels (``core.contract``, ``Matrix.mul_vec`` and
``Matrix.__mul__``) work on raw values instead: ``to_raw`` turns a vector
into plain int residues over GF(p), ``from_raw`` reduces the sums once per
result entry.  Over Q and ``ZZ`` both return their argument.  The sums
start from ``raw_zero``, built once per field: ``Fraction(0)`` over Q, so
that results stay Fractions, and the int 0 over GF(p).  ``contract`` reads
x and y through ``to_raw`` and the structure tensors from their stores of
raw values (``core._Store``), built once per tensor.

Over GF(p) the entries ``from_raw`` returns are shared canonical elements,
the field's one element per residue (``_Residues``): a result may hold the
same object many times, and ``field.zero`` among them.  So a
``GFElement`` must never be mutated; only ``__init__`` assigns its slots.
"""

from fractions import Fraction
from math import lcm

from .errors import InvalidInput, WrongField

RESIDUE_TABLE_MAX = 4096


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class GFElement:
    """An element of GF(p), stored as the canonical representative in [0, p)."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise WrongField("mixed prime fields GF(%d) and GF(%d)" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return GFElement(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return GFElement(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return GFElement(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return GFElement(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return GFElement(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        if o.v == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return GFElement(self.v * pow(o.v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return o / self

    def __neg__(self):
        return GFElement(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "GF%d(%d)" % (self.p, self.v)


class Field:
    """Common interface of the scalar fields and of ``ZZ``."""

    @property
    def characteristic(self):
        raise NotImplementedError

    def coerce(self, value):
        raise NotImplementedError

    def parse(self, text):
        """Parse 'a' or 'a/b' into a field element."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.coerce(Fraction(int(num), int(den)))
        return self.coerce(int(text))

    def format(self, x):
        """Render an element in plain manifest syntax ('a' or 'a/b')."""
        raise NotImplementedError

    def to_raw(self, vec):
        """The entries of vec as values the kernels add and multiply."""
        return vec

    def from_raw(self, sums):
        """Field elements from sums of products of raw values."""
        return sums


class RationalField(Field):
    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)
        self.raw_zero = self.zero

    @property
    def characteristic(self):
        return 0

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, GFElement):
            raise WrongField("cannot coerce a GF(p) element into Q")
        raise InvalidInput("cannot coerce %r into Q" % (value,))

    def format(self, x):
        if x.denominator == 1:
            return str(x.numerator)
        return "%d/%d" % (x.numerator, x.denominator)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


class IntegerRing(Field):
    """The plain ints: exact, characteristic 0, no division."""

    characteristic, zero, one, raw_zero = 0, 0, 1, 0

    def coerce(self, value):
        if type(value) is int:
            return value
        raise TypeError("cannot coerce %r into Z" % (value,))


ZZ = IntegerRing()


class _Residues(dict):
    """The shared elements of GF(p) by residue: each is built on its first
    lookup and kept while the table holds fewer than ``RESIDUE_TABLE_MAX``.

    For p up to the bound each residue is built once per field and none up
    front: the ``PrimeField`` each CLI call parses takes 1.4 us against 0.7
    with no table (``timeit``), of a GF(5) golden command's 0.26-1 ms.
    A larger prime keeps the first residues met and builds the rest per
    entry.  An entry costs about 150 bytes (``tracemalloc``, Python 3.11,
    residues above 256): at most 0.6 MB per field, where all residues of
    GF(1000003) would take 150 MB.
    """

    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    def __missing__(self, r):
        x = GFElement(r, self.p)
        if len(self) < RESIDUE_TABLE_MAX:
            self[r] = x
        return x


class PrimeField(Field):
    """GF(p).  ``zero``, ``one`` and every ``from_raw`` entry are shared
    canonical elements, one per residue (``RESIDUE_TABLE_MAX``); like every
    ``GFElement`` they must never be mutated.  ``coerce`` and ``elements``
    build new ones."""

    def __init__(self, p):
        if not isinstance(p, int) or not is_prime(p):
            raise InvalidInput("PrimeField parameter must be prime, got %r" % (p,))
        self.p = p
        self._els = _Residues(p)
        self.zero, self.one = self._els[0], self._els[1]
        self.raw_zero = 0

    @property
    def characteristic(self):
        return self.p

    def coerce(self, value):
        if isinstance(value, GFElement):
            if value.p != self.p:
                raise WrongField("element of GF(%d) used in GF(%d)" % (value.p, self.p))
            return value
        if isinstance(value, int):
            return GFElement(value, self.p)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise InvalidInput("denominator vanishes in GF(%d)" % self.p)
            return GFElement(value.numerator, self.p) / GFElement(value.denominator, self.p)
        raise InvalidInput("cannot coerce %r into GF(%d)" % (value, self.p))

    def to_raw(self, vec):
        p = self.p
        try:
            raw = [x.v for x in vec if x.p == p]
        except AttributeError:  # an entry that is no GFElement
            raw = ()
        if len(raw) != len(vec):
            raise WrongField("entry not in GF(%d)" % p)
        return raw

    def from_raw(self, sums):
        els, p = self._els, self.p
        return [els[s % p] for s in sums]

    def elements(self):
        """All field elements in canonical order 0, 1, ..., p-1."""
        return [GFElement(v, self.p) for v in range(self.p)]

    def format(self, x):
        return str(x.v)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))

    def __repr__(self):
        return "PrimeField(%d)" % self.p


def int_scale(field, raws):
    """(D, [D x as an int for x in raws]), D the lcm of the denominators
    over Q (one ``as_integer_ratio`` each); over GF(p) D = 1."""
    if field.characteristic:
        return 1, list(raws)
    ratios = [x.as_integer_ratio() for x in raws]
    den = lcm(*(b for _, b in ratios))
    return den, [a * (den // b) for a, b in ratios]


def field_from_spec(text):
    """Build a field from manifest syntax: 'rational' or 'gf <p>'."""
    parts = text.split()
    if parts == ["rational"]:
        return RationalField()
    if len(parts) == 2 and parts[0] == "gf":
        return PrimeField(int(parts[1]))
    raise InvalidInput("unknown field spec %r" % text)
