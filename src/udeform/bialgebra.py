"""Bialgebra presentations, their tensor powers, and axiom checkers.

A Bialgebra object tabulates structure maps on a canonical basis, lazily and
memoized, for all elements of internal degree up to a cutoff supplied at
construction.  Operations that would leave the tabulated range raise
CutoffError instead of truncating -- silent truncation would corrupt the
identity checks built on top of this module.

A kind supplies a key basis, a key product, and Delta and eps on its
generators.  Both are algebra morphisms, so the base class derives them on
every key from `split_key` (a generator times a shorter key), and it decides
commutativity on the generators.  The iterated coproducts Delta^k of a key
are tabulated next to Delta (`iterated_coproduct_key`); both operads compose
through that table.  The key product is one key with
coefficient 1: `product_keys(k1, k2)` returns a one-term dict {k1*k2: 1}.
The commutative monomial kinds also supply a `KeyPacking`, which packs a key
tuple into one int and unpacks it.

The product of tensor elements is one integer kernel (`TensorElement.__mul__`):
each operand becomes (code, integer numerator) pairs over one common
denominator, and the double loop multiplies and adds plain ints.  A code is
the packed key tuple where the kind packs, so that the slotwise product is one
addition, and the key tuple itself elsewhere, multiplied slot by slot through
`product_single`.  Fractions appear only at the kernel boundary, one per
output term.

Shipped kinds:

* ``polynomial-primitive`` -- k[p1,...,pk] with primitive generators,
* ``tensor-primitive``     -- the tensor algebra on a word basis, primitive
  generators (free noncommutative analogue of the above),
* ``monoid``               -- k[M] with grouplike basis: either a finite
  multiplication table or the free commutative monoid on named generators,
* ``matrix-coordinate``    -- the coordinate bialgebra of 2x2 matrices,
  commutative but not cocommutative (Delta a = a@a + b@c, ...).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .kernel import (
    Monomial, ONE_MONOMIAL, QQ, SparseElement, add_into, add_term,
    bounded_product, clean_terms, monomials,
)
from .reports import CheckReport, first_witness


class CutoffError(Exception):
    """A basis key of internal degree above the construction cutoff appeared."""


class CounitUnavailable(Exception):
    """An eps-dependent operation was invoked on a non-counital bialgebra."""


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

KINDS = ("polynomial-primitive", "tensor-primitive", "monoid", "matrix-coordinate")


class BialgebraSpec:
    """Serializable description of a bialgebra presentation.

    The kind fixes the key basis, the key product and Delta and eps on the
    generators; Delta and eps on every other key follow from those.
    ``counital`` is structural (it switches eps off); commutativity and
    cocommutativity are never asserted here -- they are derived by the
    checkers up to the degree cutoff.
    """

    def __init__(self, kind, generators=(), counital=True, monoid_table=None):
        if kind not in KINDS:
            raise ValueError("unknown bialgebra kind %r" % (kind,))
        self.kind = kind
        self.generators = list(generators)
        self.counital = bool(counital)
        self.monoid_table = monoid_table
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        if kind == "matrix-coordinate":
            if not self.generators:
                self.generators = ["a", "b", "c", "d"]
            if len(self.generators) != 4:
                raise ValueError("matrix-coordinate kind needs exactly 4 generators")

    def to_json(self, degree_cutoff=None):
        doc = {
            "kind": self.kind,
            "generators": list(self.generators),
            "flags": {"counital": self.counital},
        }
        if self.monoid_table is not None:
            doc["monoid_table"] = self.monoid_table
        if degree_cutoff is not None:
            doc["degree_cutoff"] = degree_cutoff
        return doc

    @staticmethod
    def from_json(doc):
        flags = doc.get("flags", {})
        return BialgebraSpec(
            doc["kind"],
            doc.get("generators", ()),
            counital=flags.get("counital", True),
            monoid_table=doc.get("monoid_table"),
        )


def construct_bialgebra(spec, degree_cutoff):
    """Build the lazily-tabulated structure maps for one presentation."""
    if degree_cutoff < 1:
        raise ValueError("degree cutoff must be >= 1")
    if spec.kind == "polynomial-primitive":
        return PolynomialPrimitiveBialgebra(spec, degree_cutoff)
    if spec.kind == "tensor-primitive":
        return TensorPrimitiveBialgebra(spec, degree_cutoff)
    if spec.kind == "matrix-coordinate":
        return MatrixCoordinateBialgebra(spec, degree_cutoff)
    if spec.kind == "monoid":
        if spec.monoid_table is not None:
            return FiniteMonoidBialgebra(spec, degree_cutoff)
        return FreeCommutativeMonoidBialgebra(spec, degree_cutoff)
    raise AssertionError(spec.kind)


class Bialgebra:
    """Common machinery over a canonical ordered basis of keys.

    Structure-map tabulation is memoized; recomputation is pure and
    deterministic, so a duplicated first computation under concurrent access
    is harmless and the caches never hold inconsistent state.
    """

    def __init__(self, spec, cutoff):
        self.spec = spec
        self.cutoff = cutoff
        self.counital = spec.counital
        self._coproduct_cache = {}
        self._iterated_cache = {}
        self._product_cache = {}
        self._packings = {}

    # -- kind-specific primitives ------------------------------------------
    @property
    def unit_key(self):
        raise NotImplementedError

    def degree(self, key):
        raise NotImplementedError

    def product_keys(self, k1, k2):
        """The product of two basis keys as a one-term dict {k1*k2: 1};
        raises CutoffError when k1*k2 passes the cutoff."""
        raise NotImplementedError

    def packing(self, arity):
        """The `KeyPacking` of key tuples of this arity, or None when the kind
        multiplies slot by slot through `product_single`."""
        return None

    def _generator_coproduct(self, g):
        """Delta of a generator g from `split_key`, dict (key, key) -> Fraction."""
        raise NotImplementedError

    def _generator_counit(self, g):
        raise NotImplementedError

    def basis_keys(self, max_degree):
        """All basis keys of degree <= max_degree, canonically ordered."""
        raise NotImplementedError

    def generator_key(self, name):
        raise NotImplementedError

    def split_key(self, key):
        """(g, rest) with key = g * rest for a non-unit basis key, where g
        names a generator (an element, for a finite monoid) and rest is a
        basis key; an action of key is g acting after rest."""
        raise NotImplementedError

    def key_str(self, key):
        raise NotImplementedError

    def parse_key(self, text):
        raise NotImplementedError

    def key_sort_key(self, key):
        raise NotImplementedError

    # -- derived structure --------------------------------------------------
    def check_cutoff(self, key):
        if self.degree(key) > self.cutoff:
            raise CutoffError(
                "key %s exceeds degree cutoff %d" % (self.key_str(key), self.cutoff)
            )
        return key

    def coproduct_key(self, key):
        """Delta on a basis key, memoized, dict (key, key) -> Fraction."""
        hit = self._coproduct_cache.get(key)
        if hit is None:
            hit = self._coproduct_cache[key] = self._coproduct_key(key)
        return hit

    def iterated_coproduct_key(self, key, k):
        """Delta^k on a basis key, memoized, dict (k+1)-tuple -> Fraction:
        Delta^(-1) = eps, Delta^0 = id and Delta^k = (Delta @ id) Delta^(k-1)."""
        hit = self._iterated_cache.get((key, k))
        if hit is None:
            if k == -1:
                eps = self.counit_key(key)
                hit = {(): eps} if eps else {}
            elif k == 0:
                hit = {(key,): QQ(1)}
            else:
                prev = self.tensor(k, self.iterated_coproduct_key(key, k - 1))
                hit = prev.apply_coproduct(1).terms
            self._iterated_cache[key, k] = hit
        return hit

    def product_single(self, k1, k2):
        """The key k1*k2, memoized; a product that is not one key with
        coefficient 1 breaks the kind contract and raises ValueError."""
        pair = (k1, k2)
        hit = self._product_cache.get(pair)
        if hit is None:
            table = self.product_keys(k1, k2)
            if len(table) != 1 or 1 not in table.values():
                raise ValueError(
                    "product of basis keys %s and %s is not one key with "
                    "coefficient 1" % (self.key_str(k1), self.key_str(k2))
                )
            (hit,) = table
            self._product_cache[pair] = hit
        return hit

    def _coproduct_key(self, key):
        if key == self.unit_key:
            return {(key, key): QQ(1)}
        g, rest = self.split_key(key)
        delta = self.tensor(2, self._generator_coproduct(g))
        return (delta * self.tensor(2, self.coproduct_key(rest))).terms

    def counit_key(self, key):
        """eps on a basis key: the product of its generators' counits."""
        self.require_counit()
        out = QQ(1)
        while key != self.unit_key and out:
            g, key = self.split_key(key)
            out *= self._generator_counit(g)
        return out

    def require_counit(self):
        if not self.counital:
            raise CounitUnavailable(
                "bialgebra was constructed in non-counital mode"
            )

    # -- element constructors ------------------------------------------------
    def zero(self, arity=1):
        return TensorElement(self, arity, {})

    def one(self, arity=1):
        return TensorElement(self, arity, {(self.unit_key,) * arity: QQ(1)})

    def element(self, terms):
        return self.tensor(1, {(k,): c for k, c in terms.items()})

    def generator(self, name):
        return self.element({self.generator_key(name): QQ(1)})

    def tensor(self, arity, terms):
        return TensorElement(self, arity, terms)

    # -- derived flags --------------------------------------------------------
    def is_commutative(self, cutoff=None):
        """Whether products within the cutoff commute, checked on the keys
        of degree <= 1: they generate B (a finite monoid's are all degree 0)."""
        cutoff = self.cutoff if cutoff is None else cutoff
        keys = self.basis_keys(min(cutoff, 1))

        def noncommuting(k1, k2):
            return self.product_keys(k1, k2) != self.product_keys(k2, k1) or None

        bad, _ = first_witness(
            bounded_product([keys, keys], self.degree, cutoff), noncommuting
        )
        return bad is None

    def __repr__(self):
        return "<Bialgebra %s on %s, cutoff %d>" % (
            self.spec.kind,
            ",".join(self.spec.generators) or "table",
            self.cutoff,
        )


class _MonomialBasisMixin:
    """Keys are Monomials over the generator names."""

    @property
    def unit_key(self):
        return ONE_MONOMIAL

    def degree(self, key):
        return key.degree

    def generator_key(self, name):
        if name not in self.spec.generators:
            raise KeyError("unknown generator %r" % (name,))
        return Monomial({name: 1})

    def split_key(self, key):
        return key.split()

    def basis_keys(self, max_degree):
        keys = monomials(self.spec.generators, max_degree)
        return sorted(keys, key=Monomial.sort_key)

    def key_str(self, key):
        return repr(key)

    def parse_key(self, text):
        key = Monomial.parse(text)
        for name, _ in key.exps:
            if name not in self.spec.generators:
                raise KeyError("unknown generator %r" % (name,))
        return key

    def key_sort_key(self, key):
        return key.sort_key()

    def product_keys(self, k1, k2):
        return {self.check_cutoff(k1 * k2): QQ(1)}

    def packing(self, arity):
        hit = self._packings.get(arity)
        if hit is None:
            hit = self._packings[arity] = KeyPacking(self, arity)
        return hit


class KeyPacking:
    """Kronecker codes of the key tuples of one arity over a commutative
    monomial basis: the code of a tuple is the sum of its slots' codes, so
    the code of a slotwise product is the sum of the factors' codes.

    A slot holds one b-bit field per generator exponent and, above them,
    one for the degree, b = cutoff.bit_length() + 1; slot s sits s slot
    widths up.  A field of a key within the cutoff is at most the cutoff,
    and a sum of two is below 2**b, so no field carries into the next.
    Adding `bias` (2**(b-1) - 1 - cutoff in every degree field) to a sum
    sets the top bit of a degree field, a bit of `guard`, exactly when that
    slot passes the cutoff.  Both tables, key -> slot code and slot code ->
    key, fill as keys are met, so decoded keys are shared objects.
    """

    __slots__ = ("cutoff", "place", "top", "shifts", "mask", "bias", "guard",
                 "codes", "keys")

    def __init__(self, B, arity):
        b = B.cutoff.bit_length() + 1
        self.cutoff = B.cutoff
        self.place = {name: b * i for i, name in enumerate(B.spec.generators)}
        top = self.top = b * len(self.place)
        width = top + b
        self.shifts = tuple(range(0, arity * width, width))
        self.mask = (1 << width) - 1
        self.bias = sum(((1 << (b - 1)) - 1 - B.cutoff) << (top + s) for s in self.shifts)
        self.guard = sum(1 << (top + b - 1 + s) for s in self.shifts)
        self.codes = {}
        self.keys = _SlotKeys(self.place, b)

    def _tabulate(self, key):
        """Enter one key in both tables; False when it is past the cutoff or
        names a foreign generator."""
        if key in self.codes:
            return True
        place = self.place
        if key.degree > self.cutoff or any(n not in place for n, _ in key.exps):
            return False
        code = sum(e << place[n] for n, e in key.exps) + (key.degree << self.top)
        self.codes[key] = code
        self.keys.setdefault(code, key)
        return True

    def pack(self, key_tuples):
        """The codes of key tuples, or None when some key is past the cutoff
        or names a foreign generator."""
        codes, shifts, out = self.codes, self.shifts, []
        try:
            for keys in key_tuples:
                code = 0
                for key, shift in zip(keys, shifts):
                    code += codes[key] << shift
                out.append(code)
        except KeyError:
            if not all(self._tabulate(key) for keys in key_tuples for key in keys):
                return None
            return self.pack(key_tuples)
        return out

    def unpack(self, codes):
        """The key tuples of a list of codes, decoded slot by slot."""
        if not self.shifts:
            return [()] * len(codes)
        keys, mask = self.keys, self.mask
        return list(zip(*[[keys[c >> s & mask] for c in codes] for s in self.shifts]))


class _SlotKeys(dict):
    """Slot code -> Monomial, decoding a code on its first lookup."""

    def __init__(self, place, b):
        super().__init__()
        self.place, self.field = place, (1 << b) - 1

    def __missing__(self, code):
        field = self.field
        key = self[code] = Monomial(
            {name: code >> at & field for name, at in self.place.items()}
        )
        return key


class _PrimitiveGenerators:
    """Delta(g) = g@1 + 1@g and eps(g) = 0 on every generator."""

    def _generator_coproduct(self, g):
        key, unit = self.generator_key(g), self.unit_key
        return {(key, unit): QQ(1), (unit, key): QQ(1)}

    def _generator_counit(self, g):
        return QQ(0)


class _GrouplikeGenerators:
    """Delta(g) = g@g and eps(g) = 1 on every generator."""

    def _generator_coproduct(self, g):
        key = self.generator_key(g)
        return {(key, key): QQ(1)}

    def _generator_counit(self, g):
        return QQ(1)


class PolynomialPrimitiveBialgebra(_PrimitiveGenerators, _MonomialBasisMixin, Bialgebra):
    """k[p1,...,pk], Delta(p) = p@1 + 1@p, eps(p) = 0."""


class MatrixCoordinateBialgebra(_MonomialBasisMixin, Bialgebra):
    """Coordinate bialgebra of 2x2 matrices on generators (a, b, c, d).

    Delta is the matrix-comultiplication Delta(x_ij) = sum_k x_ik @ x_kj and
    eps(x_ij) = [i == j]; commutative, counital, and visibly not
    cocommutative.
    """

    def _generator_coproduct(self, g):
        x = [self.generator_key(name) for name in self.spec.generators]
        i, j = divmod(self.spec.generators.index(g), 2)
        return {(x[2 * i + k], x[2 * k + j]): QQ(1) for k in range(2)}

    def _generator_counit(self, g):
        i, j = divmod(self.spec.generators.index(g), 2)
        return QQ(1) if i == j else QQ(0)


class TensorPrimitiveBialgebra(_PrimitiveGenerators, Bialgebra):
    """Tensor algebra T(X) on a word basis with primitive generators."""

    @property
    def unit_key(self):
        return ()

    def degree(self, key):
        return len(key)

    def generator_key(self, name):
        if name not in self.spec.generators:
            raise KeyError("unknown generator %r" % (name,))
        return (self.spec.generators.index(name),)

    def split_key(self, key):
        return self.spec.generators[key[0]], key[1:]

    def product_keys(self, k1, k2):
        return {self.check_cutoff(k1 + k2): QQ(1)}

    def basis_keys(self, max_degree):
        out = []
        for deg in range(max_degree + 1):
            out.extend(itertools.product(range(len(self.spec.generators)), repeat=deg))
        return out

    def key_str(self, key):
        if not key:
            return "1"
        return "*".join(self.spec.generators[i] for i in key)

    def parse_key(self, text):
        text = text.strip()
        if text in ("", "1"):
            return ()
        return tuple(self.generator_key(f.strip())[0] for f in text.split("*"))

    def key_sort_key(self, key):
        return (len(key), key)


class FreeCommutativeMonoidBialgebra(_GrouplikeGenerators, _MonomialBasisMixin, Bialgebra):
    """k[M] for the free commutative monoid on named generators.

    Basis elements are grouplike: Delta(m) = m@m and eps(m) = 1; word length
    is the internal degree.
    """


class FiniteMonoidBialgebra(_GrouplikeGenerators, Bialgebra):
    """k[M] for a finite monoid given by an explicit multiplication table."""

    def __init__(self, spec, cutoff):
        super().__init__(spec, cutoff)
        table = spec.monoid_table
        try:
            self.elements = list(table["elements"])
            self.unit_name = table["unit"]
            rows = table["table"]
        except (TypeError, KeyError) as exc:
            raise ValueError("malformed monoid table: %s" % (exc,))
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("malformed monoid table: duplicate element names")
        if self.unit_name not in self.elements:
            raise ValueError("malformed monoid table: unit not among elements")
        n = len(self.elements)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("malformed monoid table: table is not %d x %d" % (n, n))
        self._mul = {}
        for i, x in enumerate(self.elements):
            for j, y in enumerate(self.elements):
                z = rows[i][j]
                if z not in self.elements:
                    raise ValueError("malformed monoid table: product %r unknown" % (z,))
                self._mul[(x, y)] = z
        u = self.unit_name
        for x in self.elements:
            if self._mul[(u, x)] != x or self._mul[(x, u)] != x:
                raise ValueError("malformed monoid table: unit law fails at %r" % (x,))
        for x in self.elements:
            for y in self.elements:
                for z in self.elements:
                    if self._mul[(self._mul[(x, y)], z)] != self._mul[(x, self._mul[(y, z)])]:
                        raise ValueError(
                            "malformed monoid table: associativity fails at (%r,%r,%r)"
                            % (x, y, z)
                        )

    @property
    def unit_key(self):
        return self.unit_name

    def degree(self, key):
        return 0

    def generator_key(self, name):
        if name not in self.elements:
            raise KeyError("unknown monoid element %r" % (name,))
        return name

    def split_key(self, key):
        return key, self.unit_name

    def product_keys(self, k1, k2):
        return {self._mul[(k1, k2)]: QQ(1)}

    def basis_keys(self, max_degree):
        return list(self.elements)

    def key_str(self, key):
        return key

    def parse_key(self, text):
        return self.generator_key(text.strip())

    def key_sort_key(self, key):
        return (0, self.elements.index(key))


# ---------------------------------------------------------------------------
# sparse elements of B^(@n)
# ---------------------------------------------------------------------------

def _numerators(terms):
    """(numerators, d): the coefficients of terms over their least common
    denominator d, in term order."""
    coeffs = terms.values()
    dens = [c.denominator for c in coeffs]
    d = lcm(*dens)
    return [c.numerator if e == d else c.numerator * (d // e) for c, e in zip(coeffs, dens)], d


class TensorElement(SparseElement):
    """A sparse element of B^(@n); arity 0 means a bare scalar.

    terms map n-tuples of basis keys to Fractions; zero coefficients are
    never stored.  Instances are immutable and may be shared freely.
    """

    __slots__ = ("parent", "arity")

    def __init__(self, parent, arity, terms):
        if arity < 0:
            raise ValueError("arity must be >= 0")

        def key_tuple(keys):
            keys = tuple(keys)
            if len(keys) != arity:
                raise ValueError("key tuple %r does not have arity %d" % (keys, arity))
            return keys

        self.parent = parent
        self.arity = arity
        self.terms = clean_terms(terms, key_tuple)

    # -- basics ---------------------------------------------------------------
    def _like(self, terms, arity=None):
        """Wrap a dict with no stored zeros over the same bialgebra, at this
        element's arity unless another is given."""
        t = TensorElement.__new__(TensorElement)
        t.parent, t.terms = self.parent, terms
        t.arity = self.arity if arity is None else arity
        return t

    def _space(self):
        return self.parent, self.arity

    def _order(self, keys):
        return tuple(map(self.parent.key_sort_key, keys))

    def _key_text(self, keys):
        return "@".join(map(self.parent.key_str, keys)) if keys else "()"

    def __mul__(self, other):
        """Slotwise product for equal arities; scalars scale.

        The one integer kernel of the product (see the module docstring).
        The result is the dict that adding the term products one at a time
        gives, insertion order and cancellations included.  A product with a
        key the packing does not cover runs on key tuples, and a packed sum
        that hits the guard reruns that pair slot by slot, so CutoffError
        comes from `check_cutoff` at the first slot past the cutoff.
        """
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_mate(other)
        B = self.parent
        single = B.product_single
        nums1, d1 = _numerators(self.terms)
        nums2, d2 = _numerators(other.terms)
        packing = B.packing(self.arity)
        if packing is not None:
            codes1, codes2 = packing.pack(self.terms), packing.pack(other.terms)
            if codes1 is None or codes2 is None:
                packing = None
        if packing is None:
            codes1, codes2 = list(self.terms), list(other.terms)
        else:
            bias, guard = packing.bias, packing.guard
        acc = {}
        get = acc.get
        for c1, n1 in zip(codes1, nums1):
            for c2, n2 in zip(codes2, nums2):
                if packing is None:
                    code = tuple(map(single, c1, c2))
                else:
                    code = c1 + c2
                    if code + bias & guard:
                        tuple(map(single, *packing.unpack([c1, c2])))
                        raise RuntimeError("packed guard hit with no slot past the cutoff")
                n = n1 * n2
                old = get(code)
                if old is None:
                    acc[code] = n
                    continue
                n += old
                if n:
                    acc[code] = n
                else:
                    del acc[code]
        # one Fraction per distinct numerator, shared by the terms that carry it
        d, rationals, coeffs = d1 * d2, {}, []
        for n in acc.values():
            c = rationals.get(n)
            if c is None:
                c = rationals[n] = Fraction(n, d)
            coeffs.append(c)
        keys = list(acc) if packing is None else packing.unpack(list(acc))
        del acc, get  # the int-keyed dict goes before the output dict is built
        return self._like(dict(zip(keys, coeffs)))

    def one_like(self):
        return self.parent.one(self.arity)

    def outer(self, other):
        """Tensor-product concatenation u @ v of arities m and n."""
        if self.parent is not other.parent:
            raise ValueError("tensor elements live over different bialgebras")
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                out[k1 + k2] = c1 * c2
        return self._like(out, self.arity + other.arity)

    # -- structure maps on slots ----------------------------------------------
    def apply_coproduct(self, slot):
        """Delta on slot i (1-based); arity grows by one."""
        if not 1 <= slot <= self.arity:
            raise ValueError("slot %d out of range for arity %d" % (slot, self.arity))
        B = self.parent
        out = {}
        i = slot - 1
        for keys, c in self.terms.items():
            for (a, b), c2 in B.coproduct_key(keys[i]).items():
                add_term(out, keys[:i] + (a, b) + keys[i + 1:], c * c2)
        return self._like(out, self.arity + 1)

    def apply_counit(self, slot):
        """eps on slot i (1-based); arity shrinks by one."""
        if not 1 <= slot <= self.arity:
            raise ValueError("slot %d out of range for arity %d" % (slot, self.arity))
        B = self.parent
        out = {}
        i = slot - 1
        for keys, c in self.terms.items():
            add_term(out, keys[:i] + keys[i + 1:], c * B.counit_key(keys[i]))
        return self._like(out, self.arity - 1)

    def permute(self, sigma):
        """Right action (u . sigma)_i = u_{sigma(i)}; sigma is a 1-based tuple."""
        if sorted(sigma) != list(range(1, self.arity + 1)):
            raise ValueError("%r is not a permutation of 1..%d" % (sigma, self.arity))
        out = {}
        for keys, c in self.terms.items():
            out[tuple(keys[s - 1] for s in sigma)] = c
        return self._like(out)

    def scalar_value(self):
        """The Fraction carried by an arity-0 element."""
        if self.arity != 0:
            raise ValueError("not an arity-0 element")
        return self.terms.get((), QQ(0))

    def map_keys_linear(self, images, target=None):
        """Apply phi@...@phi slotwise, phi given on basis keys by `images`.

        `images(key)` must return an arity-1 element over `target` (defaults
        to this element's parent).
        """
        target = target or self.parent
        out = {}
        for keys, c in self.terms.items():
            piece = TensorElement(target, 0, {(): c})
            for k in keys:
                piece = piece.outer(images(k))
            add_into(out, piece.terms)
        return target.zero(self.arity)._like(out)

    def degree(self):
        """Largest total internal degree over the support."""
        B = self.parent
        return max(
            (sum(B.degree(k) for k in keys) for keys in self.terms),
            default=0,
        )


# ---------------------------------------------------------------------------
# module-level operation entry points
# ---------------------------------------------------------------------------

def iterated_coproduct(b, k):
    """Delta^k sending B to B^(@(k+1)); Delta^0 = id and Delta^(-1) = eps."""
    if b.arity != 1:
        raise ValueError("iterated coproduct starts from an arity-1 element")
    if k < -1:
        raise ValueError("k must be >= -1")
    B, out = b.parent, {}
    for (key,), c in b.terms.items():
        add_into(out, B.iterated_coproduct_key(key, k), c)
    return b._like(out, k + 1)


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def check_axioms(B, cutoff=None):
    """Verify the bialgebra axioms on all basis elements within the cutoff."""
    cutoff = B.cutoff if cutoff is None else cutoff
    report = CheckReport("bialgebra axioms (%s)" % B.spec.kind)
    keys = B.basis_keys(cutoff)
    singles = [(k,) for k in keys]
    pairs = list(bounded_product([keys, keys], B.degree, cutoff))

    def coassociative(k):
        d = B.element({k: QQ(1)}).apply_coproduct(1)
        lhs, rhs = d.apply_coproduct(1), d.apply_coproduct(2)
        if lhs != rhs:
            return {"element": B.key_str(k), "lhs": lhs.render(), "rhs": rhs.render()}

    def counit_law(k):
        e = B.element({k: QQ(1)})
        d = e.apply_coproduct(1)
        if d.apply_counit(1) != e or d.apply_counit(2) != e:
            return {"element": B.key_str(k)}

    def pair(k1, k2):
        return "%s , %s" % (B.key_str(k1), B.key_str(k2))

    def coproduct_multiplicative(k1, k2):
        e1, e2 = B.element({k1: QQ(1)}), B.element({k2: QQ(1)})
        lhs = (e1 * e2).apply_coproduct(1)
        rhs = e1.apply_coproduct(1) * e2.apply_coproduct(1)
        if lhs != rhs:
            return {"pair": pair(k1, k2), "lhs": lhs.render(), "rhs": rhs.render()}

    def counit_multiplicative(k1, k2):
        e1, e2 = B.element({k1: QQ(1)}), B.element({k2: QQ(1)})
        lhs = (e1 * e2).apply_counit(1).scalar_value()
        if lhs != B.counit_key(k1) * B.counit_key(k2):
            return {"pair": pair(k1, k2)}

    bad, _ = first_witness(singles, coassociative)
    report.add("coassociativity", bad is None, bad)
    if B.counital:
        bad, _ = first_witness(singles, counit_law)
        report.add("counit law", bad is None, bad)
    bad, _ = first_witness(pairs, coproduct_multiplicative)
    report.add("coproduct is an algebra morphism", bad is None, bad)
    if B.counital:
        bad, _ = first_witness(pairs, counit_multiplicative)
        report.add("counit is an algebra morphism", bad is None, bad)
    return report


def check_cocommutative(B, cutoff=None):
    """(True, None) iff tau.Delta = Delta on all basis keys within the
    cutoff, else (False, the first failing key)."""
    cutoff = B.cutoff if cutoff is None else cutoff

    def flipped(k):
        d = B.element({k: QQ(1)}).apply_coproduct(1)
        return B.key_str(k) if d.permute((2, 1)) != d else None

    bad, _ = first_witness(((k,) for k in B.basis_keys(cutoff)), flipped)
    return bad is None, bad
