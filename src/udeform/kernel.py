"""Exact scalar, polynomial, and truncated-power-series arithmetic.

Everything here is exact: scalars are arbitrary-precision rationals, and no
operation ever stores a zero coefficient or an unreduced fraction.

A sparse linear combination has one form, the one FLINT's fmpq_poly uses for
a polynomial: a dict {code: nonzero integer numerator} over one positive
denominator that shares no factor with the numerators, so equal combinations
store equal data.  Polynomials, algebra elements and pAss elements use their
basis keys (a `Monomial`, a basis name, a tree) as codes; tensor elements (in
`bialgebra`) pack a tuple of keys into one integer.  `clean_terms` reads
caller input into a dict of Fractions and `pack` turns such a dict into that
form.  `add_term` and `add_into` are the one accumulator over integer dicts,
and `add_rational` adds a rational multiple of one into a sum kept over the
running lcm of its denominators; `deform`'s structure-constant rows and
`linalg`'s eliminations use them too.  Every sum keeps the key order that
adding the terms one at a time gives (new keys appended, cancelled keys
deleted), whatever the scale of the integers: that order decides which
`CutoffError` a later product raises first.  Every basis key is a tuple (a
`Monomial` is the tuple of its sorted (name, exponent) pairs, a word a
tuple of ints, a tree an int or nested tuples of them), a string or an int,
so the memo tables keyed by them hash and compare keys in C.

`SparseElement` is the one element layer: `Polynomial` here and the tensor,
algebra and pAss elements elsewhere subclass it.  It holds `codes` and `den`;
a constructor stores what `pack` returns as it is, and `_packed`, the gcd
reduction, builds every other element.  `combine(like, pairs)` is the one
rational linear combination of elements.  A subclass supplies

* `_like(codes, den=1)`: a sibling of self (same class and space) around
  codes / den, built through `_packed`;
* `_key_items()`: the (basis key, numerator) pairs, when codes are not keys;
* `one_like()`: the unit of its space, if the space has one;
* `_space()`: what two summands must share besides their class (the parent,
  plus the arity for tensors; None for polynomials);
* `_order(key)`: the sort key of a basis key, which fixes the basis order;
* `_key_text(key)`: the text of a basis key, empty for an algebra unit;
* its product.

and inherits, on the integer dicts, the linear structure (+, -, negation,
scaling, `map_terms`), truth testing, the check that summands share a space,
`zero_like`, equality (with another element of the same space, with 0, and
with a scalar c as c times `one_like()`; an element without a unit equals no
nonzero scalar) and a hash consistent with it.  Keys and Fractions appear
only at the boundary: the decoded view `terms` (basis key -> Fraction, in
code order), `sorted_terms` in basis order, and `render`/`repr`, the one
renderer of every witness and report string: the terms in basis order joined
by " + ", a coefficient 1 or -1 shown as the sign only, and a key with empty
text shown as its bare coefficient.

`bounded_product` enumerates the basis tuples every checker sweeps: the
tuples of a product of pools whose degrees sum to at most a bound, in
product order, without building any tuple over the bound.  Together with
`reports.first_witness` it is the one checker loop of the package.

The series layer is generic over its coefficient space -- any objects with
+, -, * and scalar multiplication by Fraction will do (rationals, polynomials,
tensors), so one code path serves scalar series and tensor-valued series
alike.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

QQ = Fraction

__all__ = [
    "QQ",
    "Monomial",
    "Polynomial",
    "SparseElement",
    "TruncSeries",
    "add_into",
    "add_rational",
    "add_term",
    "bounded_product",
    "clean_terms",
    "combine",
    "denominator_factor",
    "monomials",
    "pack",
    "series_multilinear",
]

def as_scalar(x):
    """Coerce ints/strings like '3/2' to Fraction; pass Fractions through."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("not an exact scalar: %r" % (x,))


# ---------------------------------------------------------------------------
# sparse linear combinations
# ---------------------------------------------------------------------------

def add_term(acc, key, c):
    """acc[key] += c in place; a zero is never stored."""
    old = acc.get(key)
    if old is None:
        if c:
            acc[key] = c
        return
    c = old + c
    if c:
        acc[key] = c
    else:
        del acc[key]


def add_into(acc, terms, c=1):
    """acc += c * terms in place, both dicts key -> coefficient; returns acc.

    Keys new to acc are appended in the order of terms, and a key whose sum
    is zero is deleted, so the result equals (key order included) a fresh
    copy of acc with the terms added one at a time.
    """
    if not c:
        return acc
    scaled = c != 1
    get = acc.get
    for key, x in terms.items():
        if scaled:
            x = c * x
        old = get(key)
        if old is None:
            if x:
                acc[key] = x
            continue
        x = old + x
        if x:
            acc[key] = x
        else:
            del acc[key]
    return acc


def denominator_factor(slot, den):
    """slot[0] // den, once the packed sum slot = [denominator, {key: integer
    numerator}] is kept over a multiple of den: its dict is rescaled (a new
    dict) only when `den` does not divide its denominator."""
    have = slot[0]
    if have % den:
        grown = math.lcm(have, den)
        f = grown // have
        slot[1] = {key: n * f for key, n in slot[1].items()}
        slot[0] = have = grown
    return have // den


def add_rational(slot, terms, num, den):
    """slot += (num / den) * terms in place, for a packed sum slot kept over
    the running lcm of the denominators added into it
    (`denominator_factor`): `add_into` adds the integer multiple."""
    have = slot[0]
    # slot[1] is read after: denominator_factor may replace it
    f = denominator_factor(slot, den) if have % den else have // den
    add_into(slot[1], terms, num * f)


def combine(like, pairs, den=1):
    """The sum of c * x over the (c, x) pairs, divided by the integer den, as
    a sibling of `like`: each c rational (int or Fraction) and each x an
    element of like's space, added with `add_rational` in pair order."""
    slot = [1, {}]
    for c, x in pairs:
        add_rational(slot, x.codes, c.numerator, c.denominator * x.den)
    return like._like(slot[1], slot[0] * den)


def pack(terms):
    """(codes, den): a dict of rationals (ints or Fractions) as integer
    numerators over den, the lcm of their denominators, in the same key
    order and with zeros dropped.  den > 0 shares no factor with the
    numerators."""
    items = [(key, x.numerator, x.denominator) for key, x in terms.items()]
    den = math.lcm(*[d for _, _, d in items])
    return {key: n * (den // d) for key, n, d in items if n}, den


def clean_terms(terms, normalize=None):
    """A fresh dict of `terms` with exact scalar coefficients, keys passed
    through `normalize` when given, equal keys merged and zeros dropped."""
    out = {}
    for key, c in terms.items():
        add_term(out, key if normalize is None else normalize(key), as_scalar(c))
    return out


class SparseElement:
    """A sparse linear combination: `codes` maps codes of basis keys to
    nonzero integer numerators over the positive denominator `den`, reduced.

    The element policy lives here once; see the module docstring for what a
    subclass supplies and what it inherits.  Instances are immutable once
    built, so results may share their dicts.
    """

    __slots__ = ("codes", "den")

    def _like(self, codes, den=1):
        raise NotImplementedError

    def _packed(self, codes, den):
        """This new element, its space already set, around codes / den
        reduced: den and the numerators are divided by their gcd."""
        if den != 1:
            g = math.gcd(den, *codes.values())
            if g != 1:
                den //= g
                codes = {code: n // g for code, n in codes.items()}
        self.codes, self.den = codes, den
        return self

    def _key_items(self):
        """The (basis key, numerator) pairs in code order."""
        return self.codes.items()

    @property
    def terms(self):
        """The decoded view: basis key -> Fraction, in code order."""
        den = self.den
        return {key: Fraction(n, den) for key, n in self._key_items()}

    def _space(self):
        """What two summands must share besides their class: None here."""
        return None

    def _canonical(self):
        """(denominator, dict): equal elements of one space give equal pairs."""
        return self.den, self.codes

    def _order(self, key):
        raise NotImplementedError

    def _key_text(self, key):
        raise NotImplementedError

    def _check_mate(self, other):
        if type(other) is not type(self):
            raise TypeError(
                "cannot combine %s with %s"
                % (type(self).__name__, type(other).__name__)
            )
        if other._space() != self._space():
            raise ValueError(
                "cannot combine %s over %r with one over %r"
                % (type(self).__name__, self._space(), other._space())
            )

    def __bool__(self):
        return bool(self.codes)

    def zero_like(self):
        return self._like({})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self
            one_like = getattr(self, "one_like", None)
            return (one_like is not None
                    and self._canonical() == one_like().scale(other)._canonical())
        return (
            type(other) is type(self)
            and other._space() == self._space()
            and self._canonical() == other._canonical()
        )

    def __hash__(self):
        den, terms = self._canonical()
        return hash((self._space(), den, frozenset(terms.items())))

    def __add__(self, other):
        if not isinstance(other, SparseElement):
            return NotImplemented
        self._check_mate(other)
        return self._sum((other,), 1)

    def __sub__(self, other):
        if not isinstance(other, SparseElement):
            return NotImplemented
        self._check_mate(other)
        return self._sum((other,), -1)

    def _sum(self, others, sign):
        """self + sign * (the sum of the mates `others`), sign 1 or -1, as
        one integer sum over the lcm of all the denominators: what adding
        them one at a time gives, key order included."""
        den = math.lcm(self.den, *[o.den for o in others])
        f = den // self.den
        acc = dict(self.codes) if f == 1 else {c: n * f for c, n in self.codes.items()}
        for other in others:
            add_into(acc, other.codes, sign * (den // other.den))
        return self._like(acc, den=den)

    def __neg__(self):
        return self._like({c: -n for c, n in self.codes.items()}, den=self.den)

    def scale(self, c):
        c = as_scalar(c)
        if not c:
            return self.zero_like()
        p = c.numerator
        codes = self.codes if p == 1 else {code: p * n for code, n in self.codes.items()}
        return self._like(codes, den=self.den * c.denominator)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def map_terms(self, image, like=None):
        """The linear extension sum_k c_k image(k) over this element's terms.

        `image(key)` returns a SparseElement; the integer sum over the
        running lcm of the images' denominators is wrapped as a sibling of
        `like` (default self), which names the space it lives in.
        """
        return combine(self if like is None else like,
                       ((n, image(key)) for key, n in self._key_items()), self.den)

    def sorted_terms(self):
        """The (key, coefficient) pairs in basis order."""
        return sorted(self.terms.items(), key=lambda item: self._order(item[0]))

    def render(self):
        """Canonical text form, terms in basis order; a key with empty text
        is the unit and shows as its bare coefficient."""
        bits = []
        for key, c in self.sorted_terms():
            body = self._key_text(key)
            if not body:
                bits.append(str(c))
            elif c == 1:
                bits.append(body)
            elif c == -1:
                bits.append("-" + body)
            else:
                bits.append("%s*%s" % (c, body))
        return " + ".join(bits).replace("+ -", "- ") if bits else "0"

    def __repr__(self):
        return self.render()


# ---------------------------------------------------------------------------
# sparse monomials and polynomials
# ---------------------------------------------------------------------------

class Monomial(tuple):
    """A sparse product of named variables with positive integer exponents.

    A tuple of its (name, exponent) pairs sorted by name, so hashing and
    equality are the tuple's; zero exponents are never stored, so the empty
    monomial, (), is the constant 1.  `sort_key` orders a basis by degree,
    then lexicographically.
    """

    __slots__ = ()

    def __new__(cls, exps=()):
        if isinstance(exps, Monomial):
            return exps
        cleaned = {}
        for name, e in exps.items() if isinstance(exps, dict) else exps:
            e = int(e)
            if e < 0:
                raise ValueError("negative exponent in monomial")
            if e:
                cleaned[name] = cleaned.get(name, 0) + e
        return tuple.__new__(cls, sorted(cleaned.items()))

    @property
    def degree(self):
        return sum(e for _, e in self)

    def __mul__(self, other):
        d = dict(self)
        for name, e in other:
            d[name] = d.get(name, 0) + e
        return Monomial(d)

    def sort_key(self):
        return (self.degree, self)

    def split(self):
        """(name, rest) with self = rest * name, name its last variable.

        Acting by rest and then by name applies the variables in sorted
        order, innermost first.
        """
        *head, (name, e) = self
        if e > 1:
            head.append((name, e - 1))
        return name, tuple.__new__(Monomial, head)

    def __repr__(self):
        if not self:
            return "1"
        return "*".join(n if e == 1 else "%s^%d" % (n, e) for n, e in self)

    @staticmethod
    def parse(text):
        """Parse '1', 'p', 'p^2*q' into a Monomial."""
        text = text.strip()
        if text in ("", "1"):
            return Monomial()
        d = {}
        try:
            for factor in text.split("*"):
                factor = factor.strip()
                if factor == "1":
                    continue
                if "^" in factor:
                    name, e = factor.split("^")
                    d[name.strip()] = d.get(name.strip(), 0) + int(e)
                else:
                    d[factor] = d.get(factor, 0) + 1
            return Monomial(d)
        except ValueError:
            raise ValueError("malformed monomial %r" % (text,)) from None


ONE_MONOMIAL = Monomial()


def monomials(names, max_degree):
    """All monomials in `names` of total degree <= max_degree.

    Degree by degree; within a degree in the order of
    itertools.combinations_with_replacement over `names`.
    """
    out = []
    for deg in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(names, deg):
            d = {}
            for name in combo:
                d[name] = d.get(name, 0) + 1
            out.append(Monomial(d))
    return out


def bounded_product(pools, weight, bound):
    """The tuples of itertools.product(*pools) whose weights sum to at most
    `bound`, in the same order; every tuple when `bound` is None.

    Weights are nonnegative and computed once per pool item, and a prefix
    already over the bound is never extended.
    """
    if bound is None:
        yield from itertools.product(*pools)
        return
    if bound < 0:
        return
    weighed = [[(x, weight(x)) for x in pool] for pool in pools]

    def extend(d, prefix, total):
        if d == len(weighed):
            yield prefix
            return
        for x, w in weighed[d]:
            if total + w <= bound:
                yield from extend(d + 1, prefix + (x,), total + w)

    yield from extend(0, (), 0)


class Polynomial(SparseElement):
    """Sparse multivariate polynomial with rational coefficients; its codes
    are its monomials."""

    __slots__ = ()

    def __init__(self, terms=None):
        self.codes, self.den = pack(clean_terms(terms, Monomial) if terms else {})

    def _like(self, codes, den=1):
        return Polynomial.__new__(Polynomial)._packed(codes, den)

    def _order(self, key):
        return key.sort_key()

    def _key_text(self, key):
        return repr(key) if key else ""

    @staticmethod
    def constant(c):
        return Polynomial({ONE_MONOMIAL: c})

    @staticmethod
    def variable(name):
        return Polynomial({Monomial({name: 1}): 1})

    def one_like(self):
        return Polynomial({ONE_MONOMIAL: 1})

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        out = {}
        pairs = list(other.codes.items())
        for m1, n1 in self.codes.items():
            for m2, n2 in pairs:
                add_term(out, m1 * m2, n1 * n2)
        return self._like(out, den=self.den * other.den)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers need an int exponent >= 0")
        out = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def partial(self, name):
        """Exact partial derivative with respect to one variable."""
        out = {}
        for mono, n in self.codes.items():
            d = dict(mono)
            e = d.get(name, 0)
            if not e:
                continue
            if e == 1:
                del d[name]
            else:
                d[name] = e - 1
            add_term(out, Monomial(d), n * e)
        return self._like(out, den=self.den)


# ---------------------------------------------------------------------------
# the truncation ring R = Q[[t]]/t^(N+1), generic in the coefficient space
# ---------------------------------------------------------------------------

def _one_like(c):
    """Multiplicative unit of the coefficient space that c lives in."""
    fn = getattr(c, "one_like", None)
    if fn is not None:
        return fn()
    return QQ(1)


def _is_zero(c):
    return not c


class TruncSeries:
    """c0 + c1*t + ... + cN*t^N with exactly N+1 stored coefficient slots.

    Operations silently discard degrees above N; two series are equal iff
    their orders match and all N+1 slots agree.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the t^0 slot")

    @property
    def order(self):
        return len(self.coeffs) - 1

    @staticmethod
    def constant(value, order):
        # the zero of the same coefficient space, without walking the terms
        zero = value.zero_like() if isinstance(value, SparseElement) else value - value
        return TruncSeries([value] + [zero] * order)

    def _require_same_order(self, other):
        if self.order != other.order:
            raise ValueError(
                "truncation orders differ: %d vs %d" % (self.order, other.order)
            )

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._require_same_order(other)
        return TruncSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._require_same_order(other)
        return TruncSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return TruncSeries([-a for a in self.coeffs])

    def __mul__(self, other):
        """Cauchy product truncated at the common order."""
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._require_same_order(other)
        return series_multilinear(operator.mul, self, other)

    def scale(self, c):
        c = as_scalar(c)
        return TruncSeries([c * a for a in self.coeffs])

    def map_coeffs(self, fn):
        return TruncSeries([fn(a) for a in self.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.order == other.order
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash(self.coeffs)

    def is_zero(self):
        return all(_is_zero(a) for a in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def exp(self):
        """Sum x^k/k! for x with zero constant term; exp(0) = 1."""
        if not _is_zero(self.coeffs[0]):
            raise ValueError("exp needs a zero constant term")
        one = _one_like(self.coeffs[0])
        out = TruncSeries.constant(one, self.order)
        power = out
        factorial = 1
        for k in range(1, self.order + 1):
            power = power * self
            factorial *= k
            out = out + power.scale(QQ(1, factorial))
        return out

    def inverse(self):
        """Multiplicative inverse; constant term must be 1 or a nonzero scalar."""
        one = _one_like(self.coeffs[0])
        if not self.coeffs[0] == one:
            c = self.coeffs[0]
            if isinstance(c, Fraction) and c != 0:
                return self.scale(1 / c).inverse().scale(1 / c)
            raise ValueError("constant term is not invertible")
        u = TruncSeries.constant(one, self.order) - self
        out = TruncSeries.constant(one, self.order)
        power = TruncSeries.constant(one, self.order)
        for _ in range(self.order):
            power = power * u
            out = out + power
        return out

    def __repr__(self):
        bits = []
        for k, c in enumerate(self.coeffs):
            if _is_zero(c):
                continue
            if k == 0:
                bits.append("%s" % (c,))
            elif k == 1:
                bits.append("(%s)*t" % (c,))
            else:
                bits.append("(%s)*t^%d" % (c, k))
        return " + ".join(bits) if bits else "0"


def series_multilinear(fn, *series):
    """Extend a multilinear map over series of one order in the Cauchy pattern.

    Returns the series whose t^n slot is the sum of fn(a_i, b_j, ...) over
    i + j + ... = n.  The slots are summed one at a time: the products of
    one t-slot are formed and summed before the next slot's are formed, so
    only one slot's products are held at once.  Within a slot only the
    nonzero slots of each series are visited, in index order with the first
    series outermost; a slot that receives no term holds the zero of fn's
    value space, taken from the t^0 slots.  Used for products and for
    operadic compositions of series-valued tensors, which are multilinear
    but not coefficientwise.
    """
    n = series[0].order
    if any(s.order != n for s in series):
        raise ValueError("truncation orders differ")
    supports = slot_supports(series)
    coeffs = []
    zero = None
    for k in range(n + 1):
        parts = [fn(*combo) for combo in slot_combinations(supports, k)]
        if not parts:
            if zero is None:
                probe = fn(*(s.coeffs[0] for s in series))
                zero = probe - probe
            parts = [zero]
        coeffs.append(_sum_of(parts))
    return TruncSeries(coeffs)


def slot_supports(series):
    """The nonzero slots of each series, as dicts t-order -> coefficient in
    index order: what `slot_combinations` walks."""
    return [{i: c for i, c in enumerate(s.coeffs) if not _is_zero(c)} for s in series]


def slot_combinations(supports, k):
    """The tuples (a_i, b_j, ...) of nonzero slots with i + j + ... = k, in
    the order of itertools.product over the supports (first outermost)."""
    if len(supports) == 1:
        c = supports[0].get(k)
        if c is not None:
            yield (c,)
        return
    first, rest = supports[0], supports[1:]
    for i, c in first.items():
        if i > k:
            return
        for tail in slot_combinations(rest, k - i):
            yield (c,) + tail


def _sum_of(parts):
    """parts[0] + parts[1] + ..., in one pass for sparse elements."""
    first, rest = parts[0], parts[1:]
    if not rest or not isinstance(first, SparseElement):
        return functools.reduce(operator.add, parts)
    for other in rest:
        first._check_mate(other)
    return first._sum(rest, 1)
