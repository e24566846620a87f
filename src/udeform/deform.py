"""Module-algebra actions, twisted products, and infinitesimal (non)triviality.

A bialgebra B acts on an algebra A through operators attached to its
generators: commuting derivations for polynomial-primitive B, arbitrary
derivations for tensor-primitive B, unital algebra endomorphisms for monoid
B.  A twisting element F then deforms the product of A by

    a * b = mu_A( F (a @ b) ),

computed order by order in t.  There is one action layer, `KeyAction`: a
B-basis key b = g * rest acts on a basis element a of the target A as
g(rest . a), each (b, a) is computed once and tabulated, and every action
is the linear extension over that table.  The binary `ModuleAction` here
and the ternary action of the `generalized` module share it, and each owns
its target as `A`.  Every twisted product (`TwistedProduct`, binary or
ternary) is a contraction over its structure constants C_l(k1..km) =
mu(T_l (b_k1 @ ... @ b_km)), one per tuple of basis keys and t-order l,
held in one packed table per (twist, action) pair: basis keys get integer
codes, and each constant is a row of integer numerators on codes over one
denominator, computed on first use and only for an order the truncation
reaches; one past a cutoff raises at the first argument term that reaches
it, cancelling or not.  Algebra elements are packed on their basis keys,
so a row is formed in integers too: the action table's entries are packed
rows, and each target kind multiplies packed rows with its `multiply_rows`
(over `product_row` for the binary kinds, in the pAss quotient for the
ternary one), so a twisted product needs only its twist and its action.
Products sum rows in integers and recode the sum to an element once at
the end.  The associativity sweeps (`check_associativity` here,
`check_partial_assoc` for ternary products) decide each basis tuple on the
rows alone: both sides of an identity are contracted per t-order, inner
product first, into one integer sum, and elements are recoded only for a
witness.  `check_module_algebra` compares b.(xy) with the sum of b1.x b2.y
over B's packed Delta table the same way.

The infinitesimal layer reads the t^1 Hochschild 2-cochain mu_1 of a
deformation off the C_1 rows, decides coboundary-ness inside a declared
finite search space, and computes the wedge obstruction for pairs of
derivations on free polynomial algebras.  mu_1 is a cocycle exactly when
mu_0 + t mu_1 is associative mod t^2, and the t^1 slot of the associator
(x*y)*z - x*(y*z) is -delta(mu_1)(x, y, z), so `infinitesimal_cocycle`
decides it on the rows of the twist truncated at t^1 with the associator
that `check_associativity` contracts.

The coboundary search is one `linalg.solve` over candidate 1-cochains g,
each column the values delta(g)(x, y) = x g(y) - g(xy) + g(x) y on the
degree-bounded basis pairs, stacked into one packed vector on (pair, key)
and formed in integers; the target stacks the cochain's values the same
way.  The kind picks the candidates: the elementary maps src -> dst of a
finite-dimensional basis, whose columns are read from `product_row`, or the
operators m * d^alpha (deg m <= cutoff, |alpha| <= search bound) of a
truncated polynomial algebra.  There g of a monomial is at most one term,
and the three terms of delta(g)(x, y) fall on one monomial, so each pair
adds one integer to a column; a product past the cutoff is an entry like
any other, as in the untruncated polynomial ring.  Elements are built only
for the witness g.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .bialgebra import CutoffError
from .kernel import (
    Monomial,
    ONE_MONOMIAL,
    Polynomial,
    QQ,
    SparseElement,
    TruncSeries,
    add_rational,
    as_scalar,
    bounded_product,
    clean_terms,
    combine,
    monomials,
    pack,
)
from .linalg import solve as linalg_solve
from .reports import CheckReport, first_witness
from .twist import UDF


# ---------------------------------------------------------------------------
# algebra presentations
# ---------------------------------------------------------------------------

class AlgebraSpec:
    """Base for the two target-algebra kinds."""

    def unit_key(self):
        raise NotImplementedError

    def degree(self, key):
        raise NotImplementedError

    def product_row(self, k1, k2):
        """The product of two basis keys as a packed row ({key: numerator},
        den), which callers share and only read; a bialgebra's
        `product_keys` is a plain {key: 1} instead."""
        raise NotImplementedError

    def basis_keys(self, max_degree=None):
        raise NotImplementedError

    def key_str(self, key):
        raise NotImplementedError

    def multiply_rows(self, x, y):
        """The product of two packed rows x = ({key: numerator}, den) and y
        as a packed row that is not reduced: the rows of the key pairs, x's
        keys outermost, summed with `add_rational`.  A pair past a cutoff
        raises CutoffError in that order."""
        pairs = list(y[0].items())
        slot = [1, {}]
        for k1, n1 in x[0].items():
            for k2, n2 in pairs:
                row, den = self.product_row(k1, k2)
                add_rational(slot, row, n1 * n2, den)
        return slot[1], slot[0] * x[1] * y[1]

    def generator_elements(self):
        """Elements generating A as an algebra: the basis, unless a kind
        knows a smaller set."""
        return [self.element({k: QQ(1)}) for k in self.basis_keys()]

    def zero(self):
        return AlgebraElement(self, {})

    def one(self):
        return AlgebraElement(self, {self.unit_key(): QQ(1)})

    def element(self, terms):
        return AlgebraElement(self, terms)


class PolynomialTruncatedAlgebra(AlgebraSpec):
    """k[x1,...,xv] hard-truncated at a total degree; overflow is an error."""

    kind = "polynomial-truncated"

    def __init__(self, variables, degree_cutoff):
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        if degree_cutoff < 1:
            raise ValueError("degree cutoff must be >= 1")
        self.variables = list(variables)
        self.cutoff = degree_cutoff
        self._products = {}  # (k1, k2) -> row, for products inside the cutoff

    def unit_key(self):
        return ONE_MONOMIAL

    def degree(self, key):
        return key.degree

    def product_row(self, k1, k2):
        row = self._products.get((k1, k2))
        if row is None:
            key = k1 * k2
            if key.degree > self.cutoff:
                raise CutoffError(
                    "product %s exceeds the degree cutoff %d" % (key, self.cutoff)
                )
            row = self._products[k1, k2] = {key: 1}, 1
        return row

    def basis_keys(self, max_degree=None):
        top = self.cutoff if max_degree is None else min(max_degree, self.cutoff)
        return sorted(monomials(self.variables, top), key=Monomial.sort_key)

    def key_str(self, key):
        return repr(key)

    def generator_elements(self):
        return [self.variable(v) for v in self.variables]

    def variable(self, name):
        if name not in self.variables:
            raise KeyError("unknown variable %r" % (name,))
        return self.element({Monomial({name: 1}): QQ(1)})

    def __repr__(self):
        return "<k[%s] truncated at %d>" % (",".join(self.variables), self.cutoff)


class FiniteDimensionalAlgebra(AlgebraSpec):
    """Explicit basis and structure constants; associativity is asserted."""

    kind = "finite-dimensional"
    cutoff = None  # no degree truncation

    def __init__(self, basis, unit, products):
        """products maps (x, y) -> dict name -> coefficient; missing pairs
        multiply to zero; products with the unit are implied, and a declared
        one must agree (`check_unit_product`); a pair naming a non-basis
        element is a ValueError."""
        if len(set(basis)) != len(basis):
            raise ValueError("duplicate basis names")
        if unit not in basis:
            raise ValueError("unit %r is not a basis element" % (unit,))
        for name in itertools.chain.from_iterable(products):
            if name not in basis:
                raise ValueError("unknown basis element %r" % (name,))
        for (x, y), row in products.items():
            self.check_unit_product(basis, unit, x, y, row)
        self.basis = list(basis)
        self.unit = unit
        self._table = {}
        for x in basis:
            for y in basis:
                if x == unit:
                    row = {y: 1}
                elif y == unit:
                    row = {x: 1}
                else:
                    row = products.get((x, y), {})
                    for name in row:
                        if name not in basis:
                            raise ValueError("structure constant hits unknown %r" % name)
                self._table[(x, y)] = pack(clean_terms(row))
        e = {x: self.element({x: 1}) for x in basis}
        for x, y, z in itertools.product(basis, repeat=3):
            if (e[x] * e[y]) * e[z] != e[x] * (e[y] * e[z]):
                raise ValueError(
                    "structure constants are not associative at (%s,%s,%s)"
                    % (x, y, z)
                )

    @staticmethod
    def check_unit_product(basis, unit, x, y, row):
        """A declared product x*y of basis elements with x or y the unit
        must be the other factor; anything else is a ValueError."""
        if unit not in (x, y) or x not in basis or y not in basis:
            return
        implied = y if x == unit else x
        if {name: c for name, c in row.items() if as_scalar(c)} != {implied: 1}:
            raise ValueError(
                "declared product %s*%s contradicts the unit: it must be %s"
                % (x, y, implied)
            )

    def unit_key(self):
        return self.unit

    def degree(self, key):
        return 0

    def product_row(self, k1, k2):
        return self._table[(k1, k2)]

    def basis_keys(self, max_degree=None):
        return list(self.basis)

    def key_str(self, key):
        return key

    def __repr__(self):
        return "<finite-dimensional algebra on {%s}>" % ",".join(self.basis)


class AlgebraElement(SparseElement):
    """Sparse element of an AlgebraSpec; its codes are its basis keys."""

    __slots__ = ("parent",)

    def __init__(self, parent, terms):
        self.parent = parent
        self.codes, self.den = pack(clean_terms(terms))

    def _like(self, codes, den=1):
        e = AlgebraElement.__new__(AlgebraElement)
        e.parent = self.parent
        return e._packed(codes, den)

    def _space(self):
        return self.parent

    def _order(self, key):
        return self.parent.degree(key), self.parent.key_str(key)

    def _key_text(self, key):
        name = self.parent.key_str(key)
        return "" if name == "1" and key == self.parent.unit_key() else name

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self._like(*self.parent.multiply_rows(
            (self.codes, self.den), (other.codes, other.den)))

    def one_like(self):
        return self.parent.one()

    def to_polynomial(self):
        return Polynomial()._like(self.codes, self.den)


# ---------------------------------------------------------------------------
# operators: derivations and endomorphisms
# ---------------------------------------------------------------------------

def _as_element(A, x):
    return x if isinstance(x, AlgebraElement) else A.element(x)


def _require_variables(A, names, monomials=()):
    """ValueError unless every name, and every variable of the monomials,
    is a variable of the polynomial algebra A."""
    variables = (v for mono in monomials for v, _ in mono)
    for name in itertools.chain(names, variables):
        if name not in A.variables:
            raise ValueError("unknown variable %r" % (name,))


def _monomial_image(key, images, target):
    """The image of the monomial `key` under the unital algebra morphism
    into `target` that sends each variable `name` to images[name]."""
    if key == ONE_MONOMIAL:
        return target.one()
    name, rest = key.split()
    return _monomial_image(rest, images, target) * images[name]


def _basis_images(A, data):
    """Images of every basis element of a finite-dimensional A as elements;
    zero where `data` names none.  A name outside the basis, as an argument
    or inside an image, is a ValueError."""
    for name, img in data.items():
        named = () if isinstance(img, AlgebraElement) else img
        for key in itertools.chain((name,), named):
            if key not in A.basis:
                raise ValueError("unknown basis element %r" % (key,))
    return {name: _as_element(A, data.get(name, A.zero())) for name in A.basis}


class Operator:
    """A linear operator on an algebra (`parent`), applied by `apply`.

    Derivations and endomorphisms are fixed by their values on generators,
    and so is the commutator of two of them, so commutation is tested on
    the generators only.
    """

    def commutes_with(self, other):
        """Exact commutation test on the generators of the algebra."""
        return all(
            self.apply(other.apply(x)) == other.apply(self.apply(x))
            for x in self.parent.generator_elements()
        )


def require_commuting(ops, message):
    """Raise ValueError(message) unless the operators commute pairwise."""
    for op1, op2 in itertools.combinations(ops, 2):
        if not op1.commutes_with(op2):
            raise ValueError(message)


class Derivation(Operator):
    """A derivation of A; the Leibniz rule is verified at construction.

    Polynomial kind: a polynomial coefficient per partial derivative
    (theta = sum_v coeff_v d/dv).  Finite-dimensional kind: images of the
    basis elements.
    """

    def __init__(self, A, data):
        self.parent = A
        if isinstance(A, PolynomialTruncatedAlgebra):
            self.kind = "polynomial"
            self.coeffs = {}
            for name, poly in data.items():
                if isinstance(poly, AlgebraElement):
                    poly = poly.to_polynomial()
                if not isinstance(poly, Polynomial):
                    poly = Polynomial.constant(poly)
                _require_variables(A, (name,), poly.codes)
                if poly:
                    self.coeffs[name] = poly
        elif isinstance(A, FiniteDimensionalAlgebra):
            self.kind = "matrix"
            self.images = _basis_images(A, data)
            self._verify_leibniz()
        else:
            raise ValueError("unsupported algebra kind for derivations")

    def _verify_leibniz(self):
        A = self.parent
        for x, y in itertools.product(A.basis_keys(), repeat=2):
            ex, ey = A.element({x: QQ(1)}), A.element({y: QQ(1)})
            if self.apply(ex * ey) != self.apply(ex) * ey + ex * self.apply(ey):
                raise ValueError(
                    "Leibniz rule fails at (%s, %s)" % (A.key_str(x), A.key_str(y))
                )

    def apply_key(self, key):
        A = self.parent
        if self.kind != "polynomial":
            return self.images[key]
        single = Polynomial({key: 1})

        def image(name):
            out = self.coeffs[name] * single.partial(name)
            for mono in out.codes:
                if mono.degree > A.cutoff:
                    raise CutoffError(
                        "derivation output %s exceeds cutoff %d" % (mono, A.cutoff)
                    )
            return out

        return combine(A.zero(), ((1, image(name)) for name in self.coeffs))

    def apply(self, elem):
        return elem.map_terms(self.apply_key)


class AlgebraEndomorphism(Operator):
    """A unital algebra endomorphism of A, for monoid-bialgebra actions."""

    def __init__(self, A, data):
        self.parent = A
        if isinstance(A, PolynomialTruncatedAlgebra):
            self.kind = "polynomial"
            self.var_images = {}
            images = [_as_element(A, img) for img in data.values() if img is not None]
            _require_variables(A, data, (mono for img in images for mono in img.codes))
            for name in A.variables:
                img = data.get(name)
                self.var_images[name] = (
                    A.variable(name) if img is None else _as_element(A, img)
                )
        elif isinstance(A, FiniteDimensionalAlgebra):
            self.kind = "matrix"
            self.images = _basis_images(A, data)
            self._verify_morphism()
        else:
            raise ValueError("unsupported algebra kind for endomorphisms")

    def _verify_morphism(self):
        A = self.parent
        if self.apply(A.one()) != A.one():
            raise ValueError("endomorphism does not fix the unit")
        for x, y in itertools.product(A.basis_keys(), repeat=2):
            ex, ey = A.element({x: QQ(1)}), A.element({y: QQ(1)})
            if self.apply(ex * ey) != self.apply(ex) * self.apply(ey):
                raise ValueError(
                    "endomorphism is not multiplicative at (%s, %s)"
                    % (A.key_str(x), A.key_str(y))
                )

    def apply_key(self, key):
        if self.kind != "polynomial":
            return self.images[key]
        return _monomial_image(key, self.var_images, self.parent)

    def apply(self, elem):
        return elem.map_terms(self.apply_key)


# ---------------------------------------------------------------------------
# module actions
# ---------------------------------------------------------------------------

class KeyAction:
    """B acting on a target algebra A through one operator per generator of B.

    `images` maps each generator name of B (each element, for a finite
    monoid) to an operator with `apply`.  A basis key b = g * rest of B
    (`Bialgebra.split_key`) acts on a basis element a of A as
    images[g](rest . a); each (b, a) is computed on first use and kept in a
    table (`on_basis`), and the action on an element is the linear extension
    over it.  A is the one target every product over the action reads: its
    `zero()` builds the unit entries, and its `multiply_rows` multiplies
    packed rows.  Subclasses validate the images.
    """

    def __init__(self, B, A, images):
        self.B = B
        self.A = A
        self.images = images
        self._zero = A.zero()
        self._unit = B.unit_key
        self._table = {}

    def apply_key(self, bkey, elem):
        """Action of a single B-basis key on an element of A."""
        if bkey == self._unit:
            return elem
        return elem.map_terms(lambda akey: self.on_basis(bkey, akey))

    def on_basis(self, bkey, akey):
        """bkey . a for the basis element a of key akey: read from the
        table, or computed and kept there."""
        hit = self._table.get((bkey, akey))
        if hit is None:
            if bkey == self._unit:
                hit = self._zero._like({akey: 1})
            else:
                g, rest = self.B.split_key(bkey)
                hit = self.images[g].apply(self.on_basis(rest, akey))
            self._table[bkey, akey] = hit
        return hit

    def apply_element(self, belem, elem):
        """Action of an arity-1 tensor over B, extended linearly."""
        return belem.map_terms(lambda keys: self.apply_key(keys[0], elem), like=elem)


class ModuleAction(KeyAction):
    """Assignment of B-generators to operators on A, inducing all of B.

    Validation is kind-dependent: polynomial-primitive needs pairwise
    commuting derivations, tensor-primitive arbitrary derivations, monoid
    kinds unital algebra endomorphisms (commuting for the free commutative
    monoid, multiplicative against the table for finite monoids).
    """

    def __init__(self, B, A, images):
        super().__init__(B, A, dict(images))
        kind = B.spec.kind
        if kind in ("polynomial-primitive", "tensor-primitive"):
            for name, op in self.images.items():
                if not isinstance(op, Derivation):
                    raise ValueError("generator %r needs a derivation" % (name,))
            self._require_all_generators()
            if kind == "polynomial-primitive":
                require_commuting(
                    [self.images[n] for n in B.spec.generators],
                    "derivations must commute for a polynomial-primitive action",
                )
        elif kind == "monoid":
            for name, op in self.images.items():
                if not isinstance(op, AlgebraEndomorphism):
                    raise ValueError(
                        "monoid element %r needs a unital algebra endomorphism" % (name,)
                    )
            if B.spec.monoid_table is None:
                self._require_all_generators()
                require_commuting(
                    [self.images[n] for n in B.spec.generators],
                    "endomorphisms must commute for a commutative monoid",
                )
            else:
                for name in B.elements:
                    if name not in self.images:
                        raise ValueError("missing image for monoid element %r" % name)
                unit_op = self.images[B.unit_name]
                for x in A.basis_keys():
                    e = A.element({x: QQ(1)})
                    if unit_op.apply(e) != e:
                        raise ValueError("the monoid unit must act as the identity")
                ops = self.images
                for x, y, a in itertools.product(B.elements, B.elements, A.basis_keys()):
                    (z,) = B.product_keys(x, y)
                    e = A.element({a: QQ(1)})
                    if ops[x].apply(ops[y].apply(e)) != ops[z].apply(e):
                        raise ValueError(
                            "images are not multiplicative at (%s, %s)" % (x, y)
                        )
        else:
            raise ValueError("no action support for bialgebra kind %r" % (kind,))

    def _require_all_generators(self):
        for name in self.B.spec.generators:
            if name not in self.images:
                raise ValueError("missing image for generator %r" % (name,))


def action_from_derivations(B, A, images):
    """Wrap generator images (Derivations/endomorphisms or raw data) into a
    validated ModuleAction."""
    wrapped = {}
    for name, op in images.items():
        if isinstance(op, (Derivation, AlgebraEndomorphism)):
            wrapped[name] = op
        elif B.spec.kind == "monoid":
            wrapped[name] = AlgebraEndomorphism(A, op)
        else:
            wrapped[name] = Derivation(A, op)
    return ModuleAction(B, A, wrapped)


def _clamped(A, cutoff):
    """The degree bound of a basis sweep on A: A's cutoff (0 for a
    finite-dimensional A, whose keys all have degree 0) by default, and
    never past A's cutoff, since no tuple beyond it has a product in A."""
    if cutoff is None:
        return A.cutoff or 0
    return cutoff if A.cutoff is None else min(cutoff, A.cutoff)


def check_module_algebra(action, cutoff=None):
    """B-linearity of the product plus the unit condition, on basis data.

    b.(x y) = sum b1.x b2.y over Delta(b) is decided for each b and basis
    pair on packed rows read from A's `product_row` and `multiply_rows`,
    the action table (`KeyAction.on_basis`) and B's packed Delta table; both
    sides are compared in integers and become elements only for a witness.
    """
    B, A = action.B, action.A
    cutoff = _clamped(A, cutoff)
    report = CheckReport("module-algebra compatibility")
    bkeys = B.basis_keys(min(2, B.cutoff))
    akeys = A.basis_keys()

    pairs = list(bounded_product([akeys, akeys], A.degree, cutoff))
    act, zero = action.on_basis, A.zero()
    coproducts = {}
    for bk in bkeys:
        delta = B.iterated_coproduct_code(B.codec.slot(bk), 1)
        coproducts[bk] = [(*B.codec.decode(code, 2), n, delta.den)
                          for code, n in delta.codes.items()]

    def sides(bk, k1, k2):
        """b.(x y) and sum b1.x b2.y as packed slots [den, {key: numerator}]."""
        lhs, rhs = [1, {}], [1, {}]
        terms, den = A.product_row(k1, k2)
        for k, n in terms.items():
            x = act(bk, k)
            add_rational(lhs, x.codes, n, den * x.den)
        for b1, b2, n, den in coproducts[bk]:
            x, y = act(b1, k1), act(b2, k2)
            terms, d = A.multiply_rows((x.codes, x.den), (y.codes, y.den))
            add_rational(rhs, terms, n, den * d)
        return lhs, rhs

    def b_linear(bk, k1, k2):
        (dl, lhs), (dr, rhs) = sides(bk, k1, k2)
        if lhs.keys() != rhs.keys() or any(n * dr != rhs[k] * dl for k, n in lhs.items()):
            return {
                "b": B.key_str(bk),
                "pair": "%s , %s" % (A.key_str(k1), A.key_str(k2)),
                "lhs": zero._like(lhs, dl).render(),
                "rhs": zero._like(rhs, dr).render(),
            }

    def unital(bk):
        got = action.apply_key(bk, A.one())
        if got != A.one().scale(B.counit_key(bk)):
            return {"b": B.key_str(bk), "got": got.render()}

    bad, _ = first_witness(
        ((bk, k1, k2) for bk in bkeys for k1, k2 in pairs), b_linear
    )
    report.add("product is B-linear", bad is None, bad)
    bad, _ = first_witness(((bk,) for bk in bkeys), unital)
    report.add("unit condition b.1 = eps(b) 1", bad is None, bad)
    return report


# ---------------------------------------------------------------------------
# twisted products
# ---------------------------------------------------------------------------

class TwistedProduct:
    """mu(T (x1 @ ... @ xm)) for an arity-m twist series T = sum_l T_l t^l
    over B, acting on the target A = `action.A`, whose `multiply_rows` is
    its m-ary product on packed rows.  Subclasses check their twist and
    expose the product.

    The product is a contraction over the structure constants of the pair
    (T, action), held in one packed table.  A basis key of the target gets
    an integer code on first sight (`code`; `_keys` decodes), and `_rows`
    maps (codes, l), for a tuple of m codes, to the row C_l(codes) =
    mu(T_l (b_k1 @ ... @ b_km)) as (den, {code: integer numerator}).  A row
    is formed on first use (`row`), and only for an order l that the
    truncation reaches -- a higher twist order raises pAss leaf counts, so
    a row nothing needs could force quotient builds nothing else does.  A
    row is formed in integers too (`_form`): each twist term's factors are
    read from the action table and multiplied by A's `multiply_rows`.
    Sums of rows are accumulated per t-order over a running lcm
    (`kernel.add_rational`) and recoded to elements only at the end.
    """

    def __init__(self, twist, action):
        if twist.parent is not action.B:
            raise ValueError("twist and action disagree on the bialgebra")
        self.action = action
        self.order = twist.order
        self._zero = action.A.zero()
        # each twist coefficient as its terms in basis order
        self.terms = [c.sorted_terms() for c in twist.series.coeffs]
        self._codes = {}
        self._keys = []
        self._rows = {}

    def code(self, key):
        """The integer code of a basis key of the target."""
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = len(self._keys)
            self._keys.append(key)
        return code

    def _pack(self, x):
        """An element of the target as (den, {code: numerator})."""
        code = self.code
        return x.den, {code(k): n for k, n in x.codes.items()}

    def _element(self, slot):
        """The element of a packed (den, {code: numerator})."""
        den, terms = slot
        keys = self._keys
        return self._zero._like({keys[c]: n for c, n in terms.items()}, den)

    def row(self, codes, l):
        """The row C_l(codes) of a tuple of codes, formed on first use."""
        row = self._rows.get((codes, l))
        if row is None:
            row = self._rows[codes, l] = self._form(codes, l)
        return row

    def _form(self, codes, l):
        """C_l(codes) = mu(T_l (b_k1 @ ... @ b_km)), packed: per term of T_l,
        in basis order, the factors b_ki . a_i are read from the action
        table and multiplied by A's `multiply_rows` (a zero factor adds
        nothing), the products are summed with `add_rational`, and the sum
        is reduced as `_like` reduces an element."""
        act, multiply = self.action.on_basis, self.action.A.multiply_rows
        keys = [self._keys[c] for c in codes]
        slot = [1, {}]
        for bkeys, c in self.terms[l]:
            factors = [act(b, k) for b, k in zip(bkeys, keys)]
            if all(factors):
                terms, den = multiply(*[(x.codes, x.den) for x in factors])
                add_rational(slot, terms, c.numerator, c.denominator * den)
        return self._pack(self._zero._like(slot[1], slot[0]))

    def structure_constant(self, keys, l):
        """mu(T_l (b_k1 @ ... @ b_km)) for a tuple of basis keys, as an
        element, read from the table."""
        return self._element(self.row(tuple(map(self.code, keys)), l))

    def _composed(self, parts):
        """Per t-order, the packed sum over `parts` of sign * x(..., y, ...),
        each part (head, inner, tail, sign) of code tuples: the outer product
        of head, the series y = the product of inner, and tail, mod t^(N+1).

        The rows of `inner` are formed, then for each nonzero slot i of y
        and each code m of it in order, the rows of head + (m,) + tail up to
        order N - i: the order in which multiplying the basis elements
        inside out reaches them.  Returns [den, {code: numerator}] per order.
        """
        n = self.order
        row, get = self.row, self._rows.get
        acc = [[1, {}] for _ in range(n + 1)]
        for head, inner, tail, sign in parts:
            for i, (d1, terms1) in enumerate([row(inner, l) for l in range(n + 1)]):
                if not terms1:
                    continue
                for m, n1 in terms1.items():
                    codes = head + (m,) + tail
                    num = sign * n1
                    for l in range(n - i + 1):
                        d2, terms2 = get((codes, l)) or row(codes, l)
                        if terms2:
                            add_rational(acc[i + l], terms2, num, d1 * d2)
        return acc

    def _contract(self, *args):
        """The product of m element series (or elements) mod t^(N+1).

        For nonzero slots i_1..i_m of the arguments with i = i_1 + ... + i_m
        <= N, every choice of one term from each slot adds the product of
        their coefficients times the row C_l of their codes into slot i + l,
        l <= N - i.  A row past a cutoff raises CutoffError at the first
        term that reaches it, even where the argument terms would cancel.
        """
        n = self.order
        supports = []
        for x in args:
            if not isinstance(x, TruncSeries):
                supports.append([(0, self._pack(x))] if x else [])
                continue
            if x.order != n:
                raise ValueError("truncation orders differ")
            supports.append(
                [(i, self._pack(c)) for i, c in enumerate(x.coeffs) if c]
            )
        acc = [[1, {}] for _ in range(n + 1)]
        for combo in itertools.product(*supports):
            low = sum(i for i, _ in combo)
            if low > n:
                continue
            den = math.prod(d for _, (d, _) in combo)
            for chosen in itertools.product(*(t.items() for _, (_, t) in combo)):
                codes = tuple(c for c, _ in chosen)
                num = math.prod(a for _, a in chosen)
                for l in range(n - low + 1):
                    d2, terms2 = self.row(codes, l)
                    if terms2:
                        add_rational(acc[low + l], terms2, num, den * d2)
        return TruncSeries([self._element(slot) for slot in acc])


class StarProduct(TwistedProduct):
    """The deformed product of one (F, action) pair."""

    def __init__(self, F, action):
        if not isinstance(F, UDF):
            raise ValueError("twisted products need a UDF")
        super().__init__(F, action)
        self.F = F

    def star(self, sa, sb):
        """Deformed product of two algebra-element series."""
        return self._contract(sa, sb)


def _first_nonzero(acc, order):
    """The first t-order k <= order whose packed slot acc[k] is nonzero, or
    None."""
    for k in range(order + 1):
        if acc[k][1]:
            return k
    return None


def _associator(star, c1, c2, c3, signs=(1, -1)):
    """Per t-order, the packed sum [den, {code: numerator}] of
    s1 (x*y)*z + s2 x*(y*z) for the basis elements x, y, z of codes c1, c2,
    c3 and signs (s1, s2), contracted on the rows of `star`
    (`TwistedProduct._composed`): the associator by default."""
    parts = [((), (c1, c2), (c3,), signs[0]), ((c1,), (c2, c3), (), signs[1])]
    return star._composed([part for part in parts if part[3]])


def check_associativity(star, cutoff=None):
    """(a*b)*c = a*(b*c) for a `StarProduct` on basis triples within the
    cutoff, plus unitality.  A cutoff past the algebra's is clamped to it,
    as in `check_module_algebra`: no triple beyond it has a product in A.

    A triple (k1, k2, k3) is decided on the table's rows: per t-order,
    lhs = sum C_l1(k1, k2)[m] C_l2(m, k3) and rhs = sum C_l1(k2, k3)[m]
    C_l2(k1, m) over l1 + l2 = s, lhs - rhs summed in integers
    (`_associator`); both sides are decoded only for a witness.  Reports
    localize the first failing t-order and the witness triple.
    """
    A = star.action.A
    cutoff = _clamped(A, cutoff)
    report = CheckReport("twisted product associativity")
    keys = A.basis_keys()
    code, n = star.code, star.order

    def associative(k1, k2, k3):
        codes = code(k1), code(k2), code(k3)
        failing = _first_nonzero(_associator(star, *codes), n)
        if failing is not None:
            lhs, rhs = (
                star._element(_associator(star, *codes, signs)[failing]).render()
                for signs in ((1, 0), (0, 1))
            )
            return {
                "triple": "(%s, %s, %s)" % (A.key_str(k1), A.key_str(k2), A.key_str(k3)),
                "first_failing_order": failing,
                "lhs": lhs,
                "rhs": rhs,
            }

    unit = code(A.unit_key())

    def rows(codes):
        return [star.row(codes, l) for l in range(n + 1)]

    def unital(k):
        c = code(k)
        expect = [(1, {c: 1})] + [(1, {})] * n
        if rows((unit, c)) != expect or rows((c, unit)) != expect:
            return {"element": A.key_str(k)}

    bad, count = first_witness(
        bounded_product([keys] * 3, A.degree, cutoff), associative
    )
    report.add("associativity on %d basis triples" % count, bad is None, bad)
    bad, _ = first_witness(((k,) for k in keys), unital)
    report.add("1 is a unit for the twisted product", bad is None, bad)
    return report


# ---------------------------------------------------------------------------
# Hochschild layer
# ---------------------------------------------------------------------------

class HochschildCochain:
    """A multilinear map A^(@n) -> A, tabulated lazily on basis tuples."""

    def __init__(self, A, degree, fn):
        self.parent = A
        self.degree = degree
        self._fn = fn
        self._cache = {}

    def on_keys(self, *keys):
        if len(keys) != self.degree:
            raise ValueError("expected %d arguments" % self.degree)
        if keys not in self._cache:
            self._cache[keys] = self._fn(*keys)
        return self._cache[keys]

    def zero_witness(self, cutoff):
        A = self.parent

        def nonzero(*keys):
            val = self.on_keys(*keys)
            if val:
                return {"keys": [A.key_str(k) for k in keys], "value": val.render()}

        bad, _ = first_witness(
            bounded_product([A.basis_keys()] * self.degree, A.degree, cutoff),
            nonzero,
        )
        return bad is None, bad


def infinitesimal_cocycle(F, action, cutoff=None):
    """The t^1 Hochschild 2-cochain mu_1(a,b) = mu(F_1(a@b)) of a UDF.

    mu_1 is a cocycle exactly when mu_0 + t mu_1 is associative mod t^2:
    the t^1 slot of the associator of the product of F truncated at t^1 is
    -delta(mu_1)(x, y, z).  That slot is decided on basis triples within the
    cutoff, clamped as in `check_associativity`; a nonzero one means F is
    not a twist and raises ValueError with the triple and delta(mu_1) there.
    """
    if F.order < 1:
        raise ValueError("the order-t layer needs a twist of order >= 1")
    star = StarProduct(UDF(TruncSeries(F.series.coeffs[:2])), action)
    A, code = action.A, star.code

    def cocycle(*keys):
        den, terms = _associator(star, *map(code, keys))[1]
        if terms:
            delta = star._element((den, {c: -n for c, n in terms.items()}))
            return {"keys": [A.key_str(k) for k in keys], "value": delta.render()}

    bad, _ = first_witness(
        bounded_product([A.basis_keys()] * 3, A.degree, _clamped(A, cutoff)), cocycle
    )
    if bad is not None:
        raise ValueError(
            "the order-t layer of a UDF must be a Hochschild cocycle: %s" % bad
        )
    return HochschildCochain(A, 2, lambda x, y: star.structure_constant((x, y), 1))


# -- coboundary search -------------------------------------------------------

def _operator_value(A, mono, alpha, key):
    """(mono * d^alpha)(key) for a monomial key, untruncated: zero or the one
    term mono * key / v^alpha with coefficient the product of the falling
    factorials perm(e_v, k_v), for alpha = ((v, k_v), ...) and e_v the
    exponent of v in key."""
    exps, n = dict(key), 1
    for name, order in alpha:
        e = exps.get(name, 0)
        n *= math.perm(e, order)
        exps[name] = e - order
    return A.zero()._like({Monomial(exps) * mono: n} if n else {})


class PolynomialOperator1Cochain:
    """A differential operator regarded as a Hochschild 1-cochain."""

    def __init__(self, A, terms):
        self.parent = A
        self.terms = terms  # list of (coeff_monomial, alpha, coefficient)

    def describe(self):
        bits = []
        for mono, alpha, c in sorted(
            self.terms, key=lambda t: (t[1], t[0].sort_key())
        ):
            dpart = "*".join(
                "d%s" % name if order == 1 else "d%s^%d" % (name, order)
                for name, order in alpha
            )
            body = repr(mono) if not dpart else "%s*%s" % (repr(mono), dpart)
            bits.append("%s*%s" % (c, body))
        return " + ".join(bits) if bits else "0"


def _finite_columns(A, pairs, candidates):
    """delta(g) of each elementary map g = (src -> dst) on the basis pairs,
    a packed vector on (pair, key) read from `product_row`."""
    row = A.product_row
    products = [row(x, y) for x, y in pairs]
    columns = []
    for src, dst in candidates:
        col = [1, {}]
        for (x, y), (xy, den) in zip(pairs, products):
            value = [1, {}]
            if y == src:
                terms, d = row(x, dst)
                add_rational(value, terms, 1, d)
            if src in xy:
                add_rational(value, {dst: -xy[src]}, 1, den)
            if x == src:
                terms, d = row(dst, y)
                add_rational(value, terms, 1, d)
            add_rational(col, {((x, y), k): n for k, n in value[1].items()}, 1, value[0])
        columns.append((col[1], col[0]))
    return columns


def _operator_columns(A, pairs, alphas):
    """delta(g) of each operator g = m * d^alpha (alpha outer, m over the
    basis inner) on the basis pairs, a packed vector on (pair, key).

    For monomials x, y, m, the terms x g(y), g(xy) and g(x) y are all
    multiples of the one monomial m x y / v^alpha (v the variables), so each
    pair adds one integer perm(y) - perm(x y) + perm(x) (`_operator_value`),
    independent of m.  Monomials are coded as exponent vectors in base
    2 * cutoff + 1, where a product m x y of a basis key and a pair inside
    the cutoff never carries, so dividing and multiplying them adds codes;
    products past the cutoff are entries like any other."""
    names, width = A.variables, 2 * A.cutoff + 1
    place = {name: width ** i for i, name in enumerate(names)}
    keys = {}

    def code(mono):
        return sum(e * place[name] for name, e in mono)

    def key(c):
        mono = keys.get(c)
        if mono is None:
            mono = keys[c] = Monomial({name: c // p % width for name, p in place.items()})
        return mono

    basis = A.basis_keys()
    codes = {k: code(k) for k in basis}
    vectors = {k: [dict(k).get(name, 0) for name in names] for k in basis}
    columns = []
    for alpha in alphas:
        orders = [dict(alpha).get(name, 0) for name in names]

        def perm(exps):
            return math.prod(map(math.perm, exps, orders))

        entries, shift = [], code(alpha)
        for x, y in pairs:
            vx, vy = vectors[x], vectors[y]
            n = perm(vy) - perm(map(operator.add, vx, vy)) + perm(vx)
            if n:
                entries.append(((x, y), codes[x] + codes[y] - shift, n))
        for m in basis:
            cm = codes[m]
            columns.append(({(pair, key(c + cm)): n for pair, c, n in entries}, 1))
    return columns


def _coboundary_columns(A, pairs, search_bound):
    """(info, candidates, columns, value) of the coboundary search on A over
    the basis pairs: the searched space, the candidate 1-cochains, their
    columns delta(g) in order, and value(candidate, key), g(key) as an
    element, for the witness."""
    basis = A.basis_keys()
    if isinstance(A, FiniteDimensionalAlgebra):
        info = {"search_space": "all linear maps on the %d-dim basis" % len(basis)}
        candidates = list(itertools.product(basis, basis))

        def value(cand, key):
            return A.element({cand[1]: QQ(1)}) if key == cand[0] else A.zero()

        return info, candidates, _finite_columns(A, pairs, candidates), value
    if isinstance(A, PolynomialTruncatedAlgebra):
        info = {
            "search_space": "differential operators",
            "operator_order": search_bound,
            "coefficient_degree": A.cutoff,
        }
        alphas = monomials(A.variables, search_bound)
        candidates = [(mono, m) for m in alphas for mono in basis]

        def value(cand, key):
            return _operator_value(A, *cand, key)

        return info, candidates, _operator_columns(A, pairs, alphas), value
    raise ValueError("unsupported algebra kind for the coboundary search")


def is_hochschild_coboundary(A, cochain, search_bound=2):
    """Solve cochain = delta(g) over the kind's candidate 1-cochains with
    one `linalg.solve` (see the module docstring).

    Returns (g, info): g is a 1-cochain witness or None, info echoes the
    searched space (a negative verdict is only as strong as that space).
    """
    if cochain.degree != 2:
        raise ValueError("coboundary search is for 2-cochains")
    basis = A.basis_keys()
    pairs = list(bounded_product([basis, basis], A.degree, A.cutoff))
    info, candidates, columns, value = _coboundary_columns(A, pairs, search_bound)
    values = {pair: cochain.on_keys(*pair) for pair in pairs}
    den = math.lcm(*[v.den for v in values.values()])
    target = {(pair, k): n * (den // v.den)
              for pair, v in values.items() for k, n in v.codes.items()}, den
    sol = linalg_solve(columns, target)
    if sol is None:
        return None, info
    chosen = [(candidates[j], c) for j, c in sorted(sol.items())]

    def witness(key):
        return combine(A.zero(), ((c, value(cand, key)) for cand, c in chosen))

    found = HochschildCochain(A, 1, witness)
    if isinstance(A, PolynomialTruncatedAlgebra):
        found.operator = PolynomialOperator1Cochain(
            A, [(mono, alpha, c) for (mono, alpha), c in chosen]
        )
    return found, info


def wedge_over_A(theta1, theta2):
    """Antisymmetrized coefficient matrix of theta1 wedge theta2 over A.

    Only free polynomial Der-modules are supported: the coefficient on
    d_i wedge d_j (i < j) is the 2x2 minor of the coefficient columns;
    any nonzero entry certifies the wedge obstruction.
    """
    A = theta1.parent
    if not isinstance(A, PolynomialTruncatedAlgebra):
        raise ValueError("the wedge matrix needs a free polynomial Der module")
    if theta1.kind != "polynomial" or theta2.parent is not A:
        raise ValueError("both derivations must live on the same polynomial algebra")
    out = {}
    vs = A.variables
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            c1i = theta1.coeffs.get(vs[i], Polynomial())
            c1j = theta1.coeffs.get(vs[j], Polynomial())
            c2i = theta2.coeffs.get(vs[i], Polynomial())
            c2j = theta2.coeffs.get(vs[j], Polynomial())
            minor = c1i * c2j - c1j * c2i
            if minor:
                out[(vs[i], vs[j])] = minor
    return out
