"""Bialgebra presentations and their tensor powers.

A Bialgebra object tabulates structure maps on a canonical basis, lazily and
memoized, for all elements of internal degree up to a cutoff supplied at
construction.  Operations that would leave the tabulated range raise
CutoffError instead of truncating -- silent truncation would corrupt the
identity checks built on top of this module.

A kind supplies a key basis, a key product, and Delta and eps on its
generators.  Both are algebra morphisms, so the base class derives them on
every key from `split_key` (a generator times a shorter key), and it decides
commutativity on the generators.  One memoized table holds Delta^k of a
key for every k >= -1 as a packed element (`iterated_coproduct_code`):
eps = Delta^(-1) and Delta = Delta^1 are products of the generators' images
along `split_key`, Delta^0 is the identity and Delta^k = (Delta @ id)
Delta^(k-1).  The slot maps, the cobar systems and both operads read that
table; `coproduct_key` and `counit_key` are its decoded views.  The key
product is one key with coefficient 1: `product_keys(k1, k2)` returns a
one-term dict {k1*k2: 1}.  A kind may name a grade of its keys that the key
product and every term of Delta add (`grade`, 0 by default); the (d1) check
decides one grade block at a time.

A tensor element has the packed form of every `SparseElement` (see
`kernel`): a dict {code: integer numerator} over one positive denominator,
with no common factor left between them.  Its code is a key tuple packed into
one int by the bialgebra's `KeyCodec`: each key within the cutoff has a slot
code, the unit 0, and slot s sits s slot widths up.  A code is a key within
the cutoff and nothing else: an element built on a key past the cutoff
raises CutoffError from `check_cutoff`, and one on a key that names no
generator raises KeyError, as `parse_key` does.  The commutative monomial
kinds use Kronecker codes (`KeyPacking`), so the code of a slotwise product
is the sum of the factors' codes, and a guard bit tells when a sum passes
the cutoff; the other kinds number their basis (`KeyIndex`) and multiply
slot by slot through a memoized table of codes.  The linear structure,
equality and hashing are `SparseElement`'s; products, the coproduct and
counit on a slot (through the Delta^k table), outer products and
permutations are integer dict operations here.  Key tuples and Fractions
appear only at the boundary: the constructor, `terms`, `sorted_terms`,
`render`, `scalar_value` and the decoded views `coproduct_key` and
`counit_key`.

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
from math import lcm, prod

from .kernel import (
    Monomial, ONE_MONOMIAL, QQ, SparseElement, add_term, bounded_product,
    clean_terms, denominator_factor, monomials, pack,
)
from .reports import first_witness


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


MAX_INDEXED_KEYS = 1 << 17  # 2 generators at cutoff 16 hold 49 MB of words


def check_key_space(spec, cutoff):
    """Refuse, before any key is enumerated, a basis that `KeyIndex` would
    number in full with more than MAX_INDEXED_KEYS keys: ValueError.  Only
    the tensor-primitive word basis grows that way with the cutoff."""
    if spec.kind != "tensor-primitive":
        return
    count, words = 0, 1
    for _ in range(cutoff + 1):
        count += words
        if count > MAX_INDEXED_KEYS:
            raise ValueError(
                "the word basis on %d generators up to degree %d has more "
                "than %d keys" % (len(spec.generators), cutoff, MAX_INDEXED_KEYS)
            )
        words *= len(spec.generators)
        if not words:
            return


def construct_bialgebra(spec, degree_cutoff):
    """Build the lazily-tabulated structure maps for one presentation."""
    if degree_cutoff < 1:
        raise ValueError("degree cutoff must be >= 1")
    check_key_space(spec, degree_cutoff)
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
        self._codec = None

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

    @property
    def codec(self):
        """The `KeyCodec` of this bialgebra's key tuples, built on first use."""
        codec = self._codec
        if codec is None:
            codec = self._codec = self._make_codec()
        return codec

    def _make_codec(self):
        return KeyIndex(self)

    def _generator_coproduct(self, g):
        """Delta of a generator g from `split_key`, dict (key, key) -> Fraction."""
        raise NotImplementedError

    def _generator_counit(self, g):
        """eps of a generator g from `split_key`, a Fraction."""
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

    def _named(self, key):
        """The key, when each of its letters names a generator; else KeyError."""
        raise NotImplementedError

    def grade(self, code):
        """The grade of the key of slot code `code`: an integer that the
        key product and every term of Delta add, so the grade of a key
        tuple, the sum over its slots, splits each structure map into
        blocks.  A kind with no such grading keeps the default 0."""
        return 0

    # -- derived structure --------------------------------------------------
    def check_cutoff(self, key):
        if self.degree(key) > self.cutoff:
            raise CutoffError(
                "key %s exceeds degree cutoff %d" % (self.key_str(key), self.cutoff)
            )
        return key

    def check_key(self, key):
        """The key, when it is a basis key within the cutoff: one that names
        no generator raises KeyError, one past the cutoff CutoffError."""
        return self.check_cutoff(self._named(key))

    def coproduct_key(self, key):
        """Delta on a basis key, memoized, dict (key, key) -> Fraction: the
        decoded view of the table."""
        hit = self._coproduct_cache.get(key)
        if hit is None:
            hit = self._coproduct_cache[key] = self.iterated_coproduct_code(
                self.codec.slot(key), 1).terms
        return hit

    def counit_key(self, key):
        """eps on a basis key, a Fraction: the decoded view of the table."""
        return self.iterated_coproduct_code(self.codec.slot(key), -1).scalar_value()

    def iterated_coproduct_code(self, code, k):
        """Delta^k on the key of slot code `code`, a packed element of arity
        k+1, for every k >= -1, memoized by (code, k): Delta^(-1) = eps and
        Delta^1 = Delta from `_split_code`, Delta^0 = id and Delta^k =
        (Delta @ id) Delta^(k-1)."""
        hit = self._iterated_cache.get((code, k))
        if hit is None:
            if k == 0:
                hit = self.zero()._like({code: 1})
            elif k > 1:
                hit = self.iterated_coproduct_code(code, k - 1).apply_coproduct(1)
            else:
                if k < 0:
                    self.require_counit()
                hit = self._split_code(code, k)
            self._iterated_cache[code, k] = hit
        return hit

    def _split_code(self, code, k):
        """Delta (k = 1) or eps (k = -1) on the key of slot code `code`, an
        algebra morphism read along `split_key`: the unit goes to the unit of
        B^(@(k+1)) and g * rest to image(g) . image(rest)."""
        if not code:
            return self.one(k + 1)
        g, rest = self.split_key(self.codec.keys[code])
        if k == 1:
            image = self.tensor(2, self._generator_coproduct(g))
        else:
            image = self.tensor(0, {(): self._generator_counit(g)})
        return image * self.iterated_coproduct_code(self.codec.slot(rest), k)

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

    def require_counit(self):
        if not self.counital:
            raise CounitUnavailable(
                "bialgebra was constructed in non-counital mode"
            )

    # -- element constructors ------------------------------------------------
    def zero(self, arity=1):
        """A new zero of B^(@arity), the element every `_like` fills."""
        z = TensorElement.__new__(TensorElement)
        z.parent, z.arity, z.codes, z.den = self, arity, {}, 1
        return z

    def one(self, arity=1):
        return self.zero(arity)._like({0: 1})

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
        return self._named(Monomial({name: 1}))

    def split_key(self, key):
        return key.split()

    def basis_keys(self, max_degree):
        keys = monomials(self.spec.generators, max_degree)
        return sorted(keys, key=Monomial.sort_key)

    def key_str(self, key):
        return repr(key)

    def _named(self, key):
        for name, _ in key:
            if name not in self.spec.generators:
                raise KeyError("unknown generator %r" % (name,))
        return key

    def parse_key(self, text):
        return self._named(Monomial.parse(text))

    def key_sort_key(self, key):
        return key.sort_key()

    def product_keys(self, k1, k2):
        return {self.check_cutoff(k1 * k2): 1}

    def _make_codec(self):
        return KeyPacking(self)


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

    def grade(self, code):
        """The exponent of the first generator, the lowest Kronecker field."""
        return code & self.codec.keys.field


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

    def _named(self, key):
        for letter in key:
            if not 0 <= letter < len(self.spec.generators):
                raise KeyError("unknown generator %r" % (letter,))
        return key

    def split_key(self, key):
        return self.spec.generators[key[0]], key[1:]

    def grade(self, code):
        """The number of letters of the word that name the first generator."""
        return self.codec.keys[code].count(0)

    def product_keys(self, k1, k2):
        return {self.check_cutoff(k1 + k2): 1}

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

    _named = generator_key

    def split_key(self, key):
        return key, self.unit_name

    def product_keys(self, k1, k2):
        return {self._mul[(k1, k2)]: 1}

    def basis_keys(self, max_degree):
        return list(self.elements)

    def key_str(self, key):
        return key

    def parse_key(self, text):
        return self.generator_key(text.strip())

    def key_sort_key(self, key):
        return (0, self.elements.index(key))


# ---------------------------------------------------------------------------
# slot codes
# ---------------------------------------------------------------------------

class KeyCodec:
    """The integer codes of one bialgebra's key tuples.

    A code is a key within the cutoff: every basis key within the cutoff has
    a slot code below 2**width, the unit 0, and no other key has one
    (`slot` raises for it, see `Bialgebra.check_key`).  The code of a tuple
    holds slot s at s widths up, so the unit tuple of every arity is 0, slot
    s reads as code >> s*width & mask, and the code of u @ v is the code of
    u or-ed with that of v shifted past u's slots.  `codes` maps a key to its
    slot code and `keys` a slot code back to its key.

    `slotwise` multiplies two tuple codes one slot at a time through a
    memoized table (slot code, slot code) -> slot code, filled from
    `product_single`, so CutoffError comes from `check_cutoff` at the first
    slot past the cutoff.  `guard(arity)` gives (bias, guard): when
    (c1 + c2 + bias) & guard is 0, c1 + c2 is already the code of the
    product.  The codec only codes keys and multiplies slot codes; Delta and
    eps are the bialgebra's table (`Bialgebra.iterated_coproduct_code`).
    """

    def __init__(self, B, width):
        self.B = B
        self.width = width
        self.mask = (1 << width) - 1
        self._products = {}

    def slot(self, key):
        code = self.codes.get(key)
        return self._tabulate(self.B.check_key(key)) if code is None else code

    def encode(self, keys):
        code = shift = 0
        for key in keys:
            code |= self.slot(key) << shift
            shift += self.width
        return code

    def decode(self, code, arity):
        keys, mask = self.keys, self.mask
        width = self.width
        return tuple(keys[code >> s & mask] for s in range(0, arity * width, width))

    def guard(self, arity):
        """Only the unit tuples multiply by adding their codes (0 + 0)."""
        return 0, -1

    def slotwise(self, c1, c2):
        """The code of the slotwise product of the tuples of codes c1, c2;
        the unit times a key is that key."""
        width, mask, table = self.width, self.mask, self._products
        out = shift = 0
        while c1 or c2:
            a, b = c1 & mask, c2 & mask
            if not b:
                s = a
            elif not a:
                s = b
            else:
                s = table.get(a << width | b)
                if s is None:
                    s = self.slot(self.B.product_single(self.keys[a], self.keys[b]))
                    table[a << width | b] = s
            out |= s << shift
            c1 >>= width
            c2 >>= width
            shift += width
        return out


class KeyIndex(KeyCodec):
    """Slot codes that number the basis within the cutoff: the unit 0, the
    other basis keys after it in basis order.  The table is the whole key
    space, so its width is len(keys).bit_length()."""

    def __init__(self, B):
        unit = B.unit_key
        self.keys = [unit] + [k for k in B.basis_keys(B.cutoff) if k != unit]
        self.codes = {k: i for i, k in enumerate(self.keys)}
        super().__init__(B, len(self.keys).bit_length())

    def _tabulate(self, key):
        raise KeyError("%r is not a basis key" % (key,))


class KeyPacking(KeyCodec):
    """Kronecker codes over a commutative monomial basis, one per key within
    the cutoff.

    A key has one b-bit field per generator exponent, b = cutoff.bit_length()
    + 1, and above them a b-bit field for its degree.  A field is at most
    the cutoff and a sum of two is below 2**b, so the code of a slotwise
    product is the sum of the codes.  Adding the bias of `guard(arity)`
    (2**(b-1) - 1 - cutoff in every degree field) to a sum sets the top bit
    of a degree field, a bit of the guard, exactly when that slot passes the
    cutoff.  A key gets its code on first use and a code its key on its
    first lookup.
    """

    def __init__(self, B):
        b = B.cutoff.bit_length() + 1
        self.place = {name: b * i for i, name in enumerate(B.spec.generators)}
        low = self.low = b * len(self.place)
        super().__init__(B, low + b)
        self._bias = ((1 << b - 1) - 1 - B.cutoff) << low
        self._top = 1 << low + b - 1
        self._guards = {}
        self.codes = {}
        self.keys = _SlotKeys(self.place, b)

    def guard(self, arity):
        hit = self._guards.get(arity)
        if hit is None:
            shifts = range(0, arity * self.width, self.width)
            hit = self._guards[arity] = (
                sum(self._bias << s for s in shifts),
                sum(self._top << s for s in shifts),
            )
        return hit

    def _tabulate(self, key):
        place = self.place
        code = sum(e << place[n] for n, e in key) + (key.degree << self.low)
        self.codes[key] = code
        return code


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


# ---------------------------------------------------------------------------
# sparse elements of B^(@n)
# ---------------------------------------------------------------------------

class TensorElement(SparseElement):
    """A sparse element of B^(@n); arity 0 means a bare scalar.

    Its codes are the codes of n-tuples of basis keys (the parent's
    `codec`), over the one reduced denominator every `SparseElement` holds.
    Every operation runs on that form (see the module docstring); the key
    tuples are decoded afresh on each read of `terms`.  Instances are
    immutable and may be shared.
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

        nums, den = pack(clean_terms(terms, key_tuple))
        encode = parent.codec.encode
        self.parent, self.arity = parent, arity
        self.codes, self.den = {encode(keys): n for keys, n in nums.items()}, den

    def _key_items(self):
        """The (n-tuple of keys, numerator) pairs in code order."""
        decode, arity = self.parent.codec.decode, self.arity
        return [(decode(code, arity), n) for code, n in self.codes.items()]

    # -- basics ---------------------------------------------------------------
    def _like(self, codes, den=1, arity=None):
        """The element codes / den over the same bialgebra, at this element's
        arity unless another is given."""
        arity = self.arity if arity is None else arity
        return self.parent.zero(arity)._packed(codes, den)

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
        gives, insertion order and cancellations included.  A pair whose
        code sum hits the codec's guard is multiplied slot by slot, so
        CutoffError comes from `check_cutoff` at the first slot past the
        cutoff.
        """
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_mate(other)
        codec = self.parent.codec
        bias, guard = codec.guard(self.arity)
        slotwise = codec.slotwise
        pairs = list(other.codes.items())
        acc = {}
        get = acc.get
        for c1, n1 in self.codes.items():
            for c2, n2 in pairs:
                code = c1 + c2
                if code + bias & guard:
                    code = slotwise(c1, c2)
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
        return self._like(acc, self.den * other.den)

    def one_like(self):
        return self.parent.one(self.arity)

    def outer(self, other):
        """Tensor-product concatenation u @ v of arities m and n."""
        if self.parent is not other.parent:
            raise ValueError("tensor elements live over different bialgebras")
        shift = self.arity * self.parent.codec.width
        pairs = list(other.codes.items())
        out = {}
        for c1, n1 in self.codes.items():
            for c2, n2 in pairs:
                out[c1 | c2 << shift] = n1 * n2
        return self._like(out, self.den * other.den, self.arity + other.arity)

    # -- structure maps on slots ----------------------------------------------
    def substitute(self, slot, image, arity):
        """This element with slot `slot` (1-based) of each term replaced by
        the terms of image(its slot code), a packed element of the given
        arity, and the results added up in term order."""
        acc = [1, {}]
        self.substitute_into(acc, 1, slot, image, arity)
        return self._like(acc[1], acc[0], self.arity - 1 + arity)

    def substitute_into(self, acc, num, slot, image, arity):
        """acc += num * self.substitute(slot, image, arity) in place, for a
        packed sum acc kept over the running lcm of its denominators
        (`kernel.denominator_factor`): the terms go straight into acc's
        dict, in the order `substitute` adds them."""
        width, mask = self.parent.codec.width, self.parent.codec.mask
        at = (slot - 1) * width
        low = (1 << at) - 1
        up = at + arity * width  # where the slots after `slot` move
        parts = [
            (code & low | code >> at + width << up, n, image(code >> at & mask))
            for code, n in self.codes.items()
        ]
        den = lcm(*[e.den for _, _, e in parts])
        f = num * denominator_factor(acc, self.den * den)
        acc = acc[1]
        get = acc.get
        for rest, n, e in parts:
            n *= f
            if e.den != den:
                n *= den // e.den
            for code, m in e.codes.items():
                code = rest | code << at
                x = n * m
                old = get(code)
                if old is None:
                    acc[code] = x
                    continue
                x += old
                if x:
                    acc[code] = x
                else:
                    del acc[code]

    def apply_coproduct(self, slot):
        """Delta on slot i (1-based); arity grows by one."""
        if not 1 <= slot <= self.arity:
            raise ValueError("slot %d out of range for arity %d" % (slot, self.arity))
        table = self.parent.iterated_coproduct_code
        return self.substitute(slot, lambda code: table(code, 1), 2)

    def apply_counit(self, slot):
        """eps on slot i (1-based); arity shrinks by one."""
        if not 1 <= slot <= self.arity:
            raise ValueError("slot %d out of range for arity %d" % (slot, self.arity))
        table = self.parent.iterated_coproduct_code
        return self.substitute(slot, lambda code: table(code, -1), 0)

    def nonunit_part(self):
        """The terms of this element with no unit slot (no slot code 0)."""
        codec = self.parent.codec
        shifts = range(0, self.arity * codec.width, codec.width)
        mask = codec.mask
        out = {code: n for code, n in self.codes.items()
               if all(code >> at & mask for at in shifts)}
        return self._like(out, self.den)

    def permute(self, sigma):
        """Right action (u . sigma)_i = u_{sigma(i)}; sigma is a 1-based tuple."""
        if sorted(sigma) != list(range(1, self.arity + 1)):
            raise ValueError("%r is not a permutation of 1..%d" % (sigma, self.arity))
        width, mask = self.parent.codec.width, self.parent.codec.mask
        moves = [((s - 1) * width, i * width) for i, s in enumerate(sigma)]
        out = {}
        for code, n in self.codes.items():
            out[sum((code >> src & mask) << dst for src, dst in moves)] = n
        return self._like(out, self.den)

    def scalar_value(self):
        """The Fraction carried by an arity-0 element."""
        if self.arity != 0:
            raise ValueError("not an arity-0 element")
        return Fraction(self.codes.get(0, 0), self.den)

    def map_keys_linear(self, images, target=None):
        """Apply phi@...@phi slotwise, phi given on basis keys by `images`.

        `images(key)` must return an arity-1 element over `target` (defaults
        to this element's parent).  The terms are added term by term, each
        as the outer product of its slots' images (first slot slowest).
        """
        target = target or self.parent
        decode, width = self.parent.codec.decode, target.codec.width
        shifts = range(0, self.arity * width, width)
        parts = [(n, [images(k) for k in decode(code, self.arity)])
                 for code, n in self.codes.items()]
        den = lcm(*[prod(e.den for e in factors) for _, factors in parts])
        acc = {}
        for n, factors in parts:
            n *= den // prod(e.den for e in factors)
            for combo in itertools.product(*(e.codes.items() for e in factors)):
                code, x = 0, n
                for at, (c, m) in zip(shifts, combo):
                    code |= c << at
                    x *= m
                add_term(acc, code, x)
        return target.zero(self.arity)._like(acc, self.den * den)

    def degree(self):
        """Largest total internal degree over the support."""
        B = self.parent
        decode = B.codec.decode
        return max(
            (sum(map(B.degree, decode(code, self.arity))) for code in self.codes),
            default=0,
        )
