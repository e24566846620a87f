"""Beyond binary associative targets: ternary twists, interchange, diagrams.

Three generalizations of the twisting machinery live here.

* Partially associative ternary algebras: a twisting element F induces an
  arity-3 twist H = F o_1 F, and a bialgebra acting by ternary derivations
  deforms the ternary product slotwise.  The relations of the free planar
  partially associative algebra keep the leaf word, so its quotient is
  eliminated once per leaf count over tree shapes (every leaf labeled 0), and
  a labeled tree reduces through its shape with its word carried along.  A
  pAss element holds integer numerators on its basis trees, and each word's
  residual is an integer one over a scale (`Echelon.reduce`).  The free
  symmetric one is zero from 5 leaves on, because the symmetric pAss operad
  vanishes in arity 5, and has no relation below that.

* Interchange algebras: a pair (F', F'') twists the two operations when the
  middle-interchange coherence identity holds in B^(@4); grouplike pairs in
  commutative monoid bialgebras are the standard solutions.

* Diagrams of module algebras: a single arrow carries an algebra morphism h
  and a bialgebra morphism phi (in the opposite direction) subject to
  b h(a) = h(phi(b) a); a twisting triple (F1, G, F2) deforms both nodes so
  that a -> h(G a) stays a morphism of the twisted algebras.  Whether its
  t^0 part is injective or surjective is decided by rank (`linalg.Echelon`).
"""

from __future__ import annotations

import functools
import itertools
import math

from .bialgebra import CutoffError, TensorElement
from .deform import (
    AlgebraElement,
    KeyAction,
    Operator,
    StarProduct,
    TwistedProduct,
    _first_nonzero,
    _monomial_image,
    _require_variables,
    check_module_algebra,
    require_commuting,
)
from .kernel import (
    QQ, SparseElement, TruncSeries, add_rational, add_term, bounded_product,
    clean_terms, pack, series_multilinear,
)
from .linalg import Echelon, ForwardSpan
from .operad import circ_B
from .reports import CheckReport, first_witness
from .twist import (
    UDF,
    GaugeElement,
    TensorSeries,
    add_series_identity,
    first_failing_difference,
    first_failing_order,
    gauge_transform,
    series_circ,
    series_outer,
    tensor_series,
)

MAX_PUBLIC_LEAVES = 7

TAU_1324 = (1, 3, 2, 4)

# trees are immutable tuples, so their leaf counts and sort keys are memoized;
# the bound keeps a long-lived process from growing without limit
TREE_CACHE_SIZE = 1 << 16


# ---------------------------------------------------------------------------
# ternary trees and the free partially associative algebra
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=TREE_CACHE_SIZE)
def _leaves(tree):
    if isinstance(tree, int):
        return 1
    return sum(_leaves(c) for c in tree)

@functools.lru_cache(maxsize=TREE_CACHE_SIZE)
def _tree_key(tree):
    if isinstance(tree, int):
        return (1, 0, tree)
    return (_leaves(tree), 1, tuple(_tree_key(c) for c in tree))

def _node(a, b, c, symmetric):
    children = (a, b, c)
    if symmetric:
        children = tuple(sorted(children, key=_tree_key))
    return children

def _relation(t1, t2, t3, t4, t5):
    """The three planar trees whose sum is one relation instance."""
    return ((t1, t2, (t3, t4, t5)), (t1, (t2, t3, t4), t5), ((t1, t2, t3), t4, t5))


@functools.lru_cache(maxsize=TREE_CACHE_SIZE)
def _split(tree):
    """(shape, word): the tree with every leaf labeled 0, and its leaf labels
    in planar order."""
    if isinstance(tree, int):
        return 0, (tree,)
    parts = [_split(c) for c in tree]
    return (
        tuple(shape for shape, _ in parts),
        tuple(itertools.chain.from_iterable(word for _, word in parts)),
    )

def _fill(shape, labels):
    """The tree of `shape` whose leaves take the labels of an iterator in
    planar order."""
    if isinstance(shape, int):
        return next(labels)
    return tuple(_fill(c, labels) for c in shape)


class FreePAssAlgebra:
    """Free (optionally symmetric) partially associative ternary algebra.

    Basis classes are canonical trees modulo the graded relation span

        (a,b,(c,d,e)) + (a,(b,c,d),e) + ((a,b,c),d,e) = 0.

    A relation keeps the leaf word, so the planar span is eliminated once per
    leaf count over shapes, trees whose leaves all carry label 0: a tree
    reduces as its shape with its word put back, and the basis is each basis
    shape filled with each word, S(P)(V) = sum_n P(n) @ V^(@n)
    (Loday-Vallette, Algebraic Operads, 5.2).  A symmetric algebra has no
    relation below 5 leaves and is zero from 5 leaves on: the 120 relation
    instances on five distinct leaves span all 10 two-node trees, so the
    symmetric operad, whose relations form an operadic ideal, vanishes in
    every arity >= 5.  The public basis stops at the construction cutoff,
    but the carrier extends itself on demand -- the twisted product raises
    leaf counts, and truncating silently would corrupt the relation checks.
    """

    def __init__(self, generators, leaf_cutoff, symmetric):
        if leaf_cutoff % 2 == 0:
            raise ValueError("leaf counts of ternary trees are odd")
        if leaf_cutoff > MAX_PUBLIC_LEAVES:
            raise ValueError(
                "leaf cutoff %d exceeds the resource guard %d"
                % (leaf_cutoff, MAX_PUBLIC_LEAVES)
            )
        if len(set(generators)) != len(generators):
            raise ValueError("duplicate generator names")
        self.generators = list(generators)
        self.leaf_cutoff = leaf_cutoff
        self.symmetric = bool(symmetric)
        self._shapes = {}     # leaf count -> sorted list of planar shapes
        self._span = {}       # leaf count -> ForwardSpan over shape indices
        self._index = {}      # leaf count -> dict shape -> column
        self._built = 0

    # -- construction ---------------------------------------------------------
    def _ensure(self, n):
        count = self._built
        while count < n:
            count += 2 if count else 1
            self._build_count(count)
            self._built = count

    def _build_count(self, n):
        if n == 1:
            shapes = [0]
        else:
            shapes = sorted(
                (
                    (a, b, c)
                    for split in _compositions(n, 3)
                    for a, b, c in itertools.product(*(self._shapes[m] for m in split))
                ),
                key=_tree_key,
            )
        self._shapes[n] = shapes
        index = self._index[n] = {s: i for i, s in enumerate(shapes)}
        span = self._span[n] = ForwardSpan()
        # direct relation instances on lower shapes; a planar instance has
        # three distinct trees, so it is never zero
        for split in _compositions(n, 5):
            for leaves in itertools.product(*(self._shapes[m] for m in split)):
                span.add({index[s]: 1 for s in _relation(*leaves)})
        # relation consequences wrapped one node deeper
        for m in range(5, n - 1, 2):
            lower = self._shapes[m]
            for u_leaves, v_leaves in _compositions(n - m, 2):
                for row in self._span[m].rows.values():
                    pairs = itertools.product(
                        self._shapes[u_leaves], self._shapes[v_leaves]
                    )
                    for uv, slot in itertools.product(pairs, range(3)):
                        span.add({
                            index[uv[:slot] + (lower[col],) + uv[slot:]]: c
                            for col, c in row.items()
                        })

    def _basis_shapes(self, n):
        """Quotient basis shapes at n leaves."""
        if n < 1 or n % 2 == 0:
            raise ValueError(
                "leaf counts of ternary trees are odd and positive, not %d" % n)
        if self.symmetric and n >= 5:
            return []
        self._ensure(n)
        span = self._span[n]
        return [s for i, s in enumerate(self._shapes[n]) if i not in span.rows]

    def _words(self, n):
        labels = range(len(self.generators))
        if self.symmetric:
            # a symmetric tree below 5 leaves is a generator or a multiset
            return itertools.combinations_with_replacement(labels, n)
        return itertools.product(labels, repeat=n)

    # -- public surface ---------------------------------------------------------
    def basis(self, leaf_count):
        """Canonical quotient basis trees at one leaf count."""
        shapes = self._basis_shapes(leaf_count)
        return sorted(
            (_fill(s, iter(w)) for s in shapes for w in self._words(leaf_count)),
            key=_tree_key,
        )

    def dimension(self, leaf_count):
        g, n = len(self.generators), leaf_count
        shapes = self._basis_shapes(n)
        return len(shapes) * (math.comb(g + n - 1, n) if self.symmetric else g ** n)

    def generator(self, name):
        return PAssElement(self, {self.generators.index(name): 1})

    def generator_elements(self):
        return [self.generator(name) for name in self.generators]

    def zero(self):
        return PAssElement(self, {})

    def element(self, coords):
        return PAssElement(self, clean_terms(coords, self.parse_tree))

    def parse_tree(self, tree):
        """Normalize a tree given by generator names or indices; children of
        symmetric nodes are put into canonical order."""
        if isinstance(tree, str):
            try:
                return self.generators.index(tree)
            except ValueError:
                raise KeyError("unknown generator %r" % (tree,))
        if isinstance(tree, int):
            if not 0 <= tree < len(self.generators):
                raise KeyError("generator index %d out of range" % (tree,))
            return tree
        if isinstance(tree, (tuple, list)) and len(tree) == 3:
            a, b, c = (self.parse_tree(x) for x in tree)
            return _node(a, b, c, self.symmetric)
        raise ValueError("a tree is a generator or a triple of trees: %r" % (tree,))

    def reduce_coords(self, codes, den):
        """Canonical quotient coordinates (codes, den) of the tree
        combination codes / den: each leaf count and word is reduced in the
        integers, and the residuals are summed over the lcm of their scales."""
        if self.symmetric:
            return {t: n for t, n in codes.items() if _leaves(t) < 5}, den
        by_word = {}
        for tree, c in codes.items():
            shape, word = _split(tree)
            by_word.setdefault((_leaves(tree), word), {})[shape] = c
        slot = [1, {}]
        for (n, word), part in by_word.items():
            self._ensure(n)
            index, shapes = self._index[n], self._shapes[n]
            res, scale = self._span[n].reduce(
                {index[s]: c for s, c in part.items()})
            add_rational(slot, {_fill(shapes[col], iter(word)): x
                                for col, x in res.items()}, 1, scale)
        return slot[1], slot[0] * den

    def multiply_rows(self, x, y, z):
        """The ternary product of three packed rows ({tree: numerator}, den)
        as quotient coordinates (codes, den), not reduced by their gcd."""
        coords = {}
        pairs_y, pairs_z = list(y[0].items()), list(z[0].items())
        for tx, nx in x[0].items():
            for ty, ny in pairs_y:
                for tz, nz in pairs_z:
                    add_term(coords, _node(tx, ty, tz, self.symmetric), nx * ny * nz)
        return self.reduce_coords(coords, x[1] * y[1] * z[1])

    def ternary(self, x, y, z):
        """The ternary product of three elements, reduced."""
        return x._like(*self.multiply_rows(
            (x.codes, x.den), (y.codes, y.den), (z.codes, z.den)))

    def tree_str(self, tree):
        if isinstance(tree, int):
            return self.generators[tree]
        return "(%s)" % ",".join(self.tree_str(c) for c in tree)

    def __repr__(self):
        flavor = "symmetric" if self.symmetric else "planar"
        return "<free %s pAss algebra on {%s}, leaf cutoff %d>" % (
            flavor,
            ",".join(self.generators),
            self.leaf_cutoff,
        )


def _compositions(total, parts):
    """Odd compositions of `total` into `parts` parts, each >= 1."""
    if parts == 1:
        return [(total,)] if total >= 1 and total % 2 == 1 else []
    out = []
    for first in range(1, total, 2):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


class PAssElement(SparseElement):
    """A reduced element of the free pAss quotient; its codes are its basis
    trees."""

    __slots__ = ("parent",)

    def __init__(self, parent, coords):
        self.parent = parent
        self._packed(*parent.reduce_coords(*pack(clean_terms(coords))))

    def _like(self, codes, den=1):
        el = PAssElement.__new__(PAssElement)
        el.parent = self.parent
        return el._packed(codes, den)

    def _space(self):
        return self.parent

    def _order(self, tree):
        return _tree_key(tree)

    def _key_text(self, tree):
        return self.parent.tree_str(tree)


# ---------------------------------------------------------------------------
# ternary derivations and module actions
# ---------------------------------------------------------------------------

class TernaryDerivation(Operator):
    """A derivation for the ternary product: the three-slot Leibniz rule

        theta((a,b,c)) = (theta a, b, c) + (a, theta b, c) + (a, b, theta c)

    is the defining recursion, so it holds by construction; commutation of
    action images is what gets checked separately."""

    def __init__(self, algebra, generator_images):
        self.parent = algebra
        self.images = {}
        for name, img in generator_images.items():
            idx = algebra.parse_tree(name)
            if not isinstance(img, PAssElement):
                img = algebra.element(img)
            self.images[idx] = img
        self._tree_cache = {}

    def apply_tree(self, tree):
        hit = self._tree_cache.get(tree)
        if hit is not None:
            return hit
        P = self.parent
        if isinstance(tree, int):
            out = self.images.get(tree, P.zero())
        else:
            a, b, c = tree
            ea, eb, ec = (P.element({t: 1}) for t in tree)
            out = (
                P.ternary(self.apply_tree(a), eb, ec)
                + P.ternary(ea, self.apply_tree(b), ec)
                + P.ternary(ea, eb, self.apply_tree(c))
            )
        self._tree_cache[tree] = out
        return out

    def apply(self, elem):
        return elem.map_terms(self.apply_tree)


class TernaryAction(KeyAction):
    """B-generators acting by ternary derivations on a free pAss algebra,
    the action's target `A`."""

    def __init__(self, B, algebra, images):
        if B.spec.kind != "polynomial-primitive":
            raise ValueError("ternary actions ship for polynomial-primitive B")
        super().__init__(B, algebra, {})
        for name in B.spec.generators:
            op = images.get(name)
            if op is None:
                raise ValueError("missing image for generator %r" % (name,))
            if not isinstance(op, TernaryDerivation):
                op = TernaryDerivation(algebra, op)
            self.images[name] = op
        require_commuting(
            [self.images[n] for n in B.spec.generators],
            "ternary derivations must commute",
        )


# ---------------------------------------------------------------------------
# the arity-3 twist
# ---------------------------------------------------------------------------

class TernaryTwist(TensorSeries):
    """H = F o_1 F: the arity-3 twist induced by an ordinary UDF."""

    arity = 3
    kind = "ternary twists"

    def __init__(self, series):
        super().__init__(series)
        if series.coeffs[0] != self.parent.one(3):
            raise ValueError("a ternary twist starts at 1@1@1")


def pass_udf(F):
    """The induced ternary twist H = F o_1 F, cross-checked against F o_2 F.

    The two composites agree exactly when F satisfies the cocycle identity,
    so their equality is asserted here, one t-order at a time: H is built
    in full, F o_2 F never is.
    """
    if not isinstance(F, UDF):
        raise ValueError("the ternary twist is induced by a UDF")
    s = F.series
    h1 = series_circ(s, 1, s)
    failing = first_failing_difference(F.order, [
        (lambda h: ((1, h),), h1),
        (lambda x, y: ((-1, circ_B(x, 2, y)),), s, s),
    ])
    if failing is not None:
        raise ValueError(
            "F o_1 F != F o_2 F at order %d; F is not a twisting element" % failing[0]
        )
    return TernaryTwist(h1)


class TwistedTernaryProduct(TwistedProduct):
    """The deformed ternary product (a,b,c) -> sum_i (H1_i a, H2_i b, H3_i c)."""

    def __init__(self, H, action):
        super().__init__(H, action)
        self.H = H

    def product(self, sa, sb, sc):
        """Deformed product of three element series, truncated."""
        return self._contract(sa, sb, sc)


def check_partial_assoc(product, cutoff, order=None):
    """The three-term partial associativity sum on basis 5-tuples.

    `product` is a TwistedTernaryProduct (take the trivial twist for the
    undeformed structure); 5-tuples run over quotient basis trees with
    total leaf count <= cutoff, checked mod t^(order+1), `order` at most the
    product's order.  A tuple (a, b, c, d, e) is decided on the product's
    rows: (a,b,(c,d,e)) + (a,(b,c,d),e) + ((a,b,c),d,e) is summed per
    t-order in integers (`TwistedProduct._composed`), inner products first,
    and decoded only for a witness.
    """
    P = product.action.A
    if order is None:
        order = product.order
    elif order > product.order:
        raise ValueError(
            "order %d exceeds the order %d of the twisted product"
            % (order, product.order)
        )
    report = CheckReport("partial associativity")
    pools = {n: P.basis(n) for n in range(1, cutoff + 1, 2)}
    code = product.code

    def relation(*trees):
        a, b, c, d, e = map(code, trees)
        total = product._composed([
            ((a, b), (c, d, e), (), 1),
            ((a,), (b, c, d), (e,), 1),
            ((), (a, b, c), (d, e), 1),
        ])
        failing = _first_nonzero(total, order)
        if failing is not None:
            return {
                "tuple": [P.tree_str(t) for t in trees],
                "first_failing_order": failing,
                "value": product._element(total[failing]).render(),
            }

    bad, count = first_witness(
        itertools.chain.from_iterable(
            itertools.product(*(pools[m] for m in split))
            for split in _compositions5_upto(cutoff)
        ),
        relation,
    )
    report.add(
        "relation on %d basis 5-tuples (mod t^%d)" % (count, order + 1),
        bad is None,
        bad,
    )
    return report


def _compositions5_upto(cutoff):
    out = []
    for total in range(5, cutoff + 1, 2):
        out.extend(_compositions(total, 5))
    return out


# ---------------------------------------------------------------------------
# interchange twists
# ---------------------------------------------------------------------------

def interchange_check(F1, F2):
    """The middle-interchange coherence identity for a pair of twists:

        tau_1324 [ (Delta@Delta)(F') (F''@F'') ] = (Delta@Delta)(F'') (F'@F')

    in B^(@4), exactly or order by order for series.  Each side is a double
    composition in the operad of B: (Delta@Delta)(a) (b@b) = (a o_2 b) o_1 b.
    The inner compositions a o_2 b are built in full, the outer ones one
    t-order at a time (`twist.first_failing_difference`).
    """
    s1, s2 = tensor_series(F1), tensor_series(F2)
    report = CheckReport("interchange coherence")
    add_series_identity(report, "tau_1324 identity in B^4", s1.order, [
        (lambda x, y: ((1, circ_B(x, 1, y).permute(TAU_1324)),), series_circ(s1, 2, s2), s2),
        (lambda x, y: ((-1, circ_B(x, 1, y)),), series_circ(s2, 2, s1), s1),
    ])
    return report


# ---------------------------------------------------------------------------
# diagrams of module algebras (single arrows and finite shapes)
# ---------------------------------------------------------------------------

class AlgebraMorphism:
    """A unital algebra morphism between truncated polynomial algebras,
    given by variable images (substitution is automatically multiplicative).
    A variable of an image outside the target is a ValueError."""

    def __init__(self, source, target, var_images):
        self.source = source
        self.target = target
        self.images = {}
        for name in source.variables:
            img = var_images.get(name)
            if img is None:
                raise ValueError("missing image for variable %r" % (name,))
            if not isinstance(img, AlgebraElement):
                img = target.element(img)
            self.images[name] = img
        _require_variables(
            target, (), (mono for img in self.images.values() for mono in img.codes)
        )

    def apply_key(self, key):
        return _monomial_image(key, self.images, self.target)

    def apply(self, elem):
        return elem.map_terms(self.apply_key, like=self.target.zero())


class BialgebraMorphism:
    """A bialgebra morphism given on generators; the coalgebra conditions
    Delta(phi g) = (phi@phi)(Delta g) and eps(phi g) = eps(g) are verified."""

    def __init__(self, source, target, gen_images):
        if source.spec.kind not in ("polynomial-primitive", "monoid", "tensor-primitive"):
            raise ValueError("unsupported source kind %r" % (source.spec.kind,))
        if source.spec.kind == "monoid" and source.spec.monoid_table is not None:
            raise ValueError("finite-monoid sources are not supported here")
        self.source = source
        self.target = target
        self.images = {}
        for name in source.spec.generators:
            img = gen_images.get(name)
            if img is None:
                raise ValueError("missing image for generator %r" % (name,))
            if not isinstance(img, TensorElement):
                img = target.element(img)
            self.images[name] = img
        for name, img in self.images.items():
            lhs = img.apply_coproduct(1)
            g = source.generator(name)
            rhs = g.apply_coproduct(1).map_keys_linear(self.apply_key, target)
            if lhs != rhs:
                raise ValueError("images do not intertwine the coproducts at %r" % name)
            if source.counital and target.counital:
                if img.apply_counit(1).scalar_value() != source.counit_key(
                    source.generator_key(name)
                ):
                    raise ValueError("images do not intertwine the counits at %r" % name)

    def apply_key(self, key):
        if key == self.source.unit_key:
            return self.target.one(1)
        name, rest = self.source.split_key(key)
        return self.images[name] * self.apply_key(rest)

    def apply_tensor(self, T):
        return T.map_keys_linear(self.apply_key, self.target)

    def apply_tensor_series(self, s):
        return s.map_coeffs(self.apply_tensor)


class DiagramNode:
    def __init__(self, name, bialgebra, algebra, action):
        if action.B is not bialgebra or action.A is not algebra:
            raise ValueError("node action must bind the node's own B and A")
        self.name = name
        self.bialgebra = bialgebra
        self.algebra = algebra
        self.action = action


class DiagramArrow:
    """An arrow r: src -> dst with h: A_src -> A_dst and phi: B_dst -> B_src."""

    def __init__(self, src, dst, h, phi):
        self.src = src
        self.dst = dst
        self.h = h
        self.phi = phi


class DiagramSpec:
    """A finite diagram of module algebras with explicit nodes and arrows."""

    def __init__(self, nodes, arrows):
        self.nodes = {}
        for node in nodes:
            if node.name in self.nodes:
                raise ValueError("duplicate node name %r" % (node.name,))
            self.nodes[node.name] = node
        self.arrows = []
        for arrow in arrows:
            if arrow.src not in self.nodes or arrow.dst not in self.nodes:
                raise ValueError("arrow endpoints must be declared nodes")
            src, dst = self.nodes[arrow.src], self.nodes[arrow.dst]
            if arrow.h.source is not src.algebra or arrow.h.target is not dst.algebra:
                raise ValueError("h must map the source algebra to the target algebra")
            if (
                arrow.phi.source is not dst.bialgebra
                or arrow.phi.target is not src.bialgebra
            ):
                raise ValueError("phi must map the target bialgebra back to the source")
            self.arrows.append(arrow)


def diagram_compat_check(D, cutoff=None):
    """Per arrow: b h(a) = h(phi(b) a) on generators of B_dst and the basis
    of A_src; per node, module-algebra validity is delegated."""
    report = CheckReport("diagram compatibility")
    for name, node in D.nodes.items():
        label = "node %s is a module algebra" % name
        try:
            sub = check_module_algebra(node.action, cutoff)
        except CutoffError as exc:
            report.add(label, False, {"error": str(exc)})
            continue
        report.add(
            label,
            sub.passed,
            None if sub.passed else {"detail": [e.label for e in sub.failures]},
        )
    for idx, arrow in enumerate(D.arrows):
        src, dst = D.nodes[arrow.src], D.nodes[arrow.dst]

        def compatible(gname, akey):
            bkey = dst.bialgebra.generator_key(gname)
            phi_b = arrow.phi.apply_key(bkey)
            a = src.algebra.element({akey: QQ(1)})
            where = {"generator": gname, "a": src.algebra.key_str(akey)}
            try:
                lhs = dst.action.apply_key(bkey, arrow.h.apply(a))
                rhs = arrow.h.apply(src.action.apply_element(phi_b, a))
            except CutoffError as exc:
                return dict(where, error=str(exc))
            if lhs != rhs:
                return dict(where, lhs=lhs.render(), rhs=rhs.render())

        bad, _ = first_witness(
            itertools.product(
                dst.bialgebra.spec.generators, src.algebra.basis_keys()
            ),
            compatible,
        )
        report.add(
            "arrow %d (%s -> %s): b h(a) = h(phi(b) a)"
            % (idx, arrow.src, arrow.dst),
            bad is None,
            bad,
        )
    return report


class TwistTriple:
    """(F1, G, F2) for a single arrow; G is an arity-1 series over B_src."""

    def __init__(self, F1, G, F2):
        self.F1 = F1
        self.G = G  # TruncSeries of arity-1 tensors
        self.F2 = F2


def diagram_twist_check(D, triple):
    """All conditions of a twisting triple on the diagram's first arrow, to
    F1's order, plus the deformed morphism property and (for invertible G)
    the gauge reduction."""
    arrow = D.arrows[0]
    src, dst = D.nodes[arrow.src], D.nodes[arrow.dst]
    F1, G, F2 = triple.F1, triple.G, triple.F2
    order = F1.order
    report = CheckReport("twisting triple on arrow %s -> %s" % (arrow.src, arrow.dst))

    report.add(
        "F1 is a twisting element",
        F1.check().passed,
    )
    report.add(
        "F2 is a twisting element",
        F2.check().passed,
    )

    add_series_identity(
        report, "triple condition Delta(G) F1 = (phi@phi)(F2) (G@G)", F1.order, [
            (lambda g, f: ((1, circ_B(g, 1, f)),), G, F1.series),
            (lambda f, gg: ((-1, f * gg),),
             arrow.phi.apply_tensor_series(F2.series), series_outer(G, G)),
        ],
    )

    star1 = StarProduct(F1, src.action)
    star2 = StarProduct(F2, dst.action)

    def h_twisted(a):
        return h_twisted_series(TruncSeries.constant(a, order), arrow, src, G, order)

    A = src.algebra
    keys = A.basis_keys()

    def morphism(k1, k2):
        a, b = A.element({k1: QQ(1)}), A.element({k2: QQ(1)})
        pair = "%s , %s" % (A.key_str(k1), A.key_str(k2))
        try:
            left = h_twisted_series(star1.star(a, b), arrow, src, G, order)
            right = star2.star(h_twisted(a), h_twisted(b))
        except CutoffError as exc:
            return {"pair": pair, "error": str(exc)}
        if left != right:
            return {"pair": pair, "first_failing_order": first_failing_order(left, right)}

    bad, _ = first_witness(
        bounded_product([keys, keys], A.degree, A.cutoff),
        morphism,
    )
    report.add("h(G .) is a morphism of twisted algebras", bad is None, bad)

    if G.coeffs[0] == src.bialgebra.one(1):
        gauge = GaugeElement(G)
        reduced_F1 = gauge_transform(F1, gauge)
        lhs2 = reduced_F1.series
        rhs2 = arrow.phi.apply_tensor_series(F2.series)
        k = first_failing_order(lhs2, rhs2)
        report.add(
            "gauge-reduced triple (F1', 1, F2) satisfies the condition",
            k is None,
            None if k is None else {"first_failing_order": k},
        )
    return report


def h_twisted_series(sa, arrow, src, G, order):
    """h(G .) applied to an algebra-element series of the given order."""
    if sa.order != order:
        raise ValueError("series of order %d, expected %d" % (sa.order, order))
    return series_multilinear(
        lambda g, x: arrow.h.apply(src.action.apply_element(g, x)), G, sa
    )


def morphism_image_check(D, triple, degree):
    """Whether a -> h(G_0 a), along the diagram's first arrow, is injective
    on the source basis (its images are independent) and surjective onto the
    target basis of degree <= `degree` (each such key reduces to zero modulo
    the span of the images), both decided by rank (`linalg.Echelon`)."""
    arrow = D.arrows[0]
    src, target = D.nodes[arrow.src], arrow.h.target
    column = {k: j for j, k in enumerate(target.basis_keys())}
    keys = src.algebra.basis_keys()
    span = Echelon()
    for key in keys:
        a = src.algebra.element({key: 1})
        image = arrow.h.apply(src.action.apply_element(triple.G.coeffs[0], a))
        span.add({column[k]: n for k, n in image.codes.items()})
    return {
        "injective": span.rank == len(keys),
        "surjective": not any(
            span.reduce({j: 1})[0] for k, j in column.items() if target.degree(k) <= degree
        ),
    }
