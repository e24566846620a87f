"""Checker reports on failing inputs, byte for byte.

Every basis-sweep checker decides which tuples it visits and where it stops
through `kernel.bounded_product` and `reports.first_witness`.  This pins the
reports those checkers give, witnesses, labels and counts included, on
deliberately broken inputs (an overridden coproduct, a non-twist F, a broken
action, a tampered moduli block) and on a few passing ones, against output
recorded from the hand-written loops they replaced.
"""

import json

from udeform import cobar
from udeform.bialgebra import BialgebraSpec, construct_bialgebra
from udeform.deform import (
    FiniteDimensionalAlgebra,
    HochschildCochain,
    PolynomialTruncatedAlgebra,
    StarProduct,
    action_from_derivations,
    check_associativity,
    check_module_algebra,
    is_hochschild_coboundary,
)
from udeform.generalized import (
    FreePAssAlgebra,
    TernaryAction,
    TernaryTwist,
    TwistTriple,
    TwistedTernaryProduct,
    check_partial_assoc,
    diagram_compat_check,
    diagram_twist_check,
    interchange_check,
    pass_udf,
)
from udeform.kernel import Polynomial, QQ, TruncSeries
from udeform.operad import (
    FLAVOR_ADDITIVE,
    FLAVOR_MULTIPLICATIVE,
    check_assoc_cases,
    check_equivariance,
    check_unit,
    reconstruct_bialgebra_check,
)
from udeform.twist import (
    UDF, check_functional_equation, make_exp_udf,
    series_from_orders,
)

from conftest import antisym, check_axioms, check_cocommutative
from coproduct_override import with_coproduct_override, with_identity_override
from test_generalized import power_map_diagram


def _bialgebra(kind, generators, cutoff):
    return construct_bialgebra(BialgebraSpec(kind, generators), cutoff)


def _bialgebra_reports():
    B1 = _bialgebra("polynomial-primitive", ["p"], 6)
    p, p2, one = B1.generator_key("p"), B1.parse_key("p^2"), B1.unit_key
    grouplike = with_coproduct_override(B1, {p: {(p, p): QQ(1)}})
    skewed = with_coproduct_override(
        B1, {p: {(p, one): QQ(1), (one, p): QQ(1), (one, p2): QQ(1)}}
    )
    fat_unit = with_coproduct_override(
        B1, {one: {(one, one): QQ(1), (p, p): QQ(1)}}
    )
    doubled_identity = with_identity_override(B1, {p: {p: QQ(2)}})
    tensorB = _bialgebra("tensor-primitive", ["e1", "e2"], 4)
    matrixB = construct_bialgebra(BialgebraSpec("matrix-coordinate"), 3)
    return {
        "axioms/grouplike": check_axioms(grouplike, 3).to_json(),
        "axioms/skewed": check_axioms(skewed, 3).to_json(),
        "axioms/fat-unit": check_axioms(fat_unit, 2).to_json(),
        "commutative/tensor": tensorB.is_commutative(),
        "commutative/matrix": matrixB.is_commutative(),
        "cocommutative/matrix": list(check_cocommutative(matrixB)),
        "cocommutative/skewed": list(check_cocommutative(skewed)),
        "assoc/skewed-mult": check_assoc_cases(
            FLAVOR_MULTIPLICATIVE, skewed, samples=20, seed=0).to_json(),
        "assoc/skewed-add": check_assoc_cases(
            FLAVOR_ADDITIVE, skewed, samples=20, seed=1).to_json(),
        "assoc/matrix-cutoff": check_assoc_cases(
            FLAVOR_MULTIPLICATIVE, matrixB, samples=5, seed=2).to_json(),
        "equivariance/matrix": check_equivariance(matrixB, samples=10).to_json(),
        "equivariance/skewed": check_equivariance(skewed, samples=6, seed=3).to_json(),
        "unit/fat-unit": check_unit(FLAVOR_MULTIPLICATIVE, fat_unit, samples=8).to_json(),
        "unit/skewed-add": check_unit(FLAVOR_ADDITIVE, skewed, samples=8).to_json(),
        "unit/doubled-identity": check_unit(
            FLAVOR_MULTIPLICATIVE, doubled_identity, samples=4).to_json(),
        "reconstruct/skewed": reconstruct_bialgebra_check(skewed).to_json(),
        "reconstruct/fat-unit": reconstruct_bialgebra_check(fat_unit).to_json(),
    }


def _deform_reports():
    B2 = _bialgebra("polynomial-primitive", ["p1", "p2"], 6)
    plane = PolynomialTruncatedAlgebra(["p", "q"], 4)
    derivations = {"p1": {"p": 1}, "p2": {"q": 1}}
    moyal = make_exp_udf(antisym(B2).scale(QQ(1, 2)), order=3)
    action = action_from_derivations(B2, plane, derivations)
    p1 = B2.generator_key("p1")
    grouplike = with_coproduct_override(B2, {p1: {(p1, p1): QQ(1)}})
    broken = action_from_derivations(grouplike, plane, derivations)
    square_zero = FiniteDimensionalAlgebra(
        ["1", "p", "q"], "1",
        {("p", "p"): {}, ("p", "q"): {}, ("q", "p"): {}, ("q", "q"): {}},
    )
    broken_fd = action_from_derivations(
        grouplike, square_zero, {"p1": {"p": {"p": 1}}, "p2": {"q": {"q": 1}}}
    )
    coeffs = list(moyal.series.coeffs)
    no_t2 = UDF(TruncSeries(coeffs[:2] + [B2.zero(2)] + coeffs[3:]))
    square = B2.generator("p1") * B2.generator("p1")
    not_a_twist = UDF(
        series_from_orders(B2, 2, 1, {0: B2.one(2), 1: square.outer(B2.one(1))})
    )

    def product_cochain(x, y):
        return plane.element({x * y: QQ(1)}) if 2 <= (x * y).degree <= 4 else plane.zero()

    nonzero = HochschildCochain(plane, 2, product_cochain)
    product = HochschildCochain(
        plane, 2,
        lambda x, y: plane.element({x: QQ(1)}) * plane.element({y: QQ(1)}),
    )

    def coboundary(cochain):
        g, info = is_hochschild_coboundary(plane, cochain, search_bound=1)
        return [None if g is None else g.operator.describe(), info]

    return {
        "module-algebra/broken": check_module_algebra(broken).to_json(),
        "module-algebra/broken-cutoff": check_module_algebra(broken, 2).to_json(),
        "module-algebra/finite": check_module_algebra(broken_fd).to_json(),
        "module-algebra/ok": check_module_algebra(action).to_json(),
        "associativity/no-t2": check_associativity(
            StarProduct(no_t2, action), cutoff=4).to_json(),
        "associativity/not-a-twist": check_associativity(
            StarProduct(not_a_twist, action), cutoff=3).to_json(),
        "zero-witness/nonzero": list(nonzero.zero_witness(3)),
        "zero-witness/low": list(nonzero.zero_witness(1)),
        "coboundary/nonzero": coboundary(nonzero),
        "coboundary/product": coboundary(product),
    }


def _generalized_reports():
    ternaryB = _bialgebra("polynomial-primitive", ["p1", "p2"], 4)
    P = FreePAssAlgebra(["p", "q"], 5, symmetric=False)
    action = TernaryAction(ternaryB, P, {"p1": {"p": {"p": 1}}, "p2": {"q": {"q": 1}}})
    H = pass_udf(make_exp_udf(antisym(ternaryB), order=1))
    gp1, gp2 = ternaryB.generator("p1"), ternaryB.generator("p2")
    one = ternaryB.one(1)
    corrupted = H.series.coeffs[1] - gp1.outer(one).outer(gp2)
    bad = TernaryTwist(
        series_from_orders(ternaryB, 3, 1, {0: ternaryB.one(3), 1: corrupted})
    )
    prod = TwistedTernaryProduct(bad, action)

    B2 = _bialgebra("polynomial-primitive", ["p1", "p2"], 6)
    p1, p2 = B2.generator("p1"), B2.generator("p2")
    perturbed = series_from_orders(B2, 2, 2, {0: B2.one(2), 1: p1.outer(p2)})
    trivial = TruncSeries.constant(B2.one(2), 2)

    B, literal = power_map_diagram(2, 3, order=4, corrected=False)
    _, tight = power_map_diagram(2, 3, order=4, corrected=True, a2_cutoff=5)
    Bc, corrected = power_map_diagram(2, 3, order=2, corrected=True)
    F = make_exp_udf(antisym(Bc), order=2)
    half = make_exp_udf(antisym(Bc).scale(QQ(1, 2)), order=2)
    G = TruncSeries.constant(Bc.one(1), 2)
    Bs, small = power_map_diagram(2, 3, order=2, corrected=True, a2_cutoff=5)
    Fs = make_exp_udf(antisym(Bs), order=2)
    Gs = TruncSeries.constant(Bs.one(1), 2)
    return {
        "partial-assoc/corrupted": check_partial_assoc(prod, cutoff=5, order=1).to_json(),
        "partial-assoc/order0": check_partial_assoc(prod, cutoff=5, order=0).to_json(),
        "interchange/perturbed": interchange_check(perturbed, trivial).to_json(),
        "compat/literal": diagram_compat_check(literal, cutoff=1).to_json(),
        "compat/tight": diagram_compat_check(tight).to_json(),
        "twist/mismatch": diagram_twist_check(
            corrected, 0, TwistTriple(F, G, half), order=2).to_json(),
        "twist/cutoff": diagram_twist_check(
            small, 0, TwistTriple(Fs, Gs, Fs), order=2).to_json(),
    }


def _twist_reports():
    u1, u2 = Polynomial.variable("u1"), Polynomial.variable("u2")
    F = TruncSeries([Polynomial.constant(1), u1, u2 * u2])
    return {"functional/non-twist": check_functional_equation(F).to_json()}


def _cobar_reports():
    B2 = _bialgebra("polynomial-primitive", ["p1", "p2"], 4)
    original = cobar.twi_direct

    def tampered(B, cutoff):
        blocks = original(B, cutoff)
        for blk in blocks:
            if blk.dim:
                blk.representatives = [blk.representatives[0].scale(QQ(0))]
                break
        last = blocks[-1]
        last.solutions = last.solutions + [B.one(2) + B.generator("p1").outer(B.one(1))]
        return blocks

    out = {"oracle/ok": cobar.check_oracle_agreement(B2, 3)[0].to_json()}
    cobar.twi_direct = tampered
    try:
        out["oracle/tampered"] = cobar.check_oracle_agreement(B2, 3)[0].to_json()
    finally:
        cobar.twi_direct = original
    return out


def collect():
    out = {}
    for part in (
        _bialgebra_reports, _deform_reports, _generalized_reports,
        _twist_reports, _cobar_reports,
    ):
        out.update(part())
    return json.loads(json.dumps(out, sort_keys=True))



# Recorded from the loops these checkers used before the shared helpers.
EXPECTED = {'assoc/matrix-cutoff': {'entries': [{'label': 'associativity case 1 (1480 instances)',
                                      'ok': True},
                                     {'label': 'associativity case 2 (5042 instances)',
                                      'ok': True},
                                     {'label': 'associativity case 3 (1480 instances)',
                                      'ok': True}],
                         'name': 'operad associativity (multiplicative over '
                                 'matrix-coordinate)',
                         'passed': True},
 'assoc/skewed-add': {'entries': [{'label': 'associativity case 1 (93 instances)',
                                   'ok': True},
                                  {'label': 'associativity case 2 (405 instances)',
                                   'ok': False,
                                   'witness': {'case': 2,
                                               'i': 2,
                                               'j': 1,
                                               'lhs': '-1@1@p@p@p^2 - 2*1@1@p^2@p@p^2 '
                                                      '- 1@p@1@p@p^2 - 2*1@p@p@p@p^2 - '
                                                      '2*1@p@p^2@1@1 - 1@p^2@1@p@p^2 - '
                                                      'p@1@1@p@p^2 + 2*p^2@1@1@1@1',
                                               'rhs': '-1@1@p@p@p^2 - 1@1@p^2@p@p^2 - '
                                                      '1@p@1@p@p^2 - 2*1@p@p^2@1@1 - '
                                                      '1@p^2@1@p@p^2 - p@1@1@p@p^2 + '
                                                      '2*p^2@1@1@1@1',
                                               'u': '-p@p@p^2',
                                               'v': '2*p^2@1',
                                               'w': '-2*p@p^2'}},
                                  {'label': 'associativity case 3 (93 instances)',
                                   'ok': True}],
                      'name': 'operad associativity (additive over '
                              'polynomial-primitive)',
                      'passed': False},
 'assoc/skewed-mult': {'entries': [{'label': 'associativity case 1 (150 instances)',
                                    'ok': True},
                                   {'label': 'associativity case 2 (500 instances)',
                                    'ok': False,
                                    'witness': {'case': 2,
                                                'i': 1,
                                                'j': 1,
                                                'lhs': '-1@p^4@p@1@1@1 + '
                                                       '2*1@p^4@p@p@p@1 + '
                                                       '2*1@p^4@p@p^2@p@1 + '
                                                       '2*1@p^4@p^2@1@p@1 + '
                                                       '2*1@p^4@p^3@1@p@1 + '
                                                       '2*1@p^5@p@1@p@1 - '
                                                       '2*p@p^3@p@1@1@1 + '
                                                       '4*p@p^3@p@p@p@1 + '
                                                       '4*p@p^3@p@p^2@p@1 + '
                                                       '4*p@p^3@p^2@1@p@1 + '
                                                       '4*p@p^3@p^3@1@p@1 + '
                                                       '6*p@p^4@p@1@p@1 - '
                                                       '2*p^2@p^2@p@1@1@1 + '
                                                       '4*p^2@p^2@p@p@p@1 + '
                                                       '4*p^2@p^2@p@p^2@p@1 + '
                                                       '4*p^2@p^2@p^2@1@p@1 + '
                                                       '4*p^2@p^2@p^3@1@p@1 + '
                                                       '8*p^2@p^3@p@1@p@1 - '
                                                       '2*p^3@p@p@1@1@1 + '
                                                       '4*p^3@p@p@p@p@1 + '
                                                       '4*p^3@p@p@p^2@p@1 + '
                                                       '4*p^3@p@p^2@1@p@1 + '
                                                       '4*p^3@p@p^3@1@p@1 + '
                                                       '8*p^3@p^2@p@1@p@1 - '
                                                       'p^4@1@p@1@1@1 + '
                                                       '2*p^4@1@p@p@p@1 + '
                                                       '2*p^4@1@p@p^2@p@1 + '
                                                       '2*p^4@1@p^2@1@p@1 + '
                                                       '2*p^4@1@p^3@1@p@1 + '
                                                       '6*p^4@p@p@1@p@1 + '
                                                       '2*p^5@1@p@1@p@1',
                                                'rhs': '-1@p^4@p@1@1@1 + '
                                                       '2*1@p^4@p@p@p@1 + '
                                                       '2*1@p^4@p@p^2@p@1 + '
                                                       '2*1@p^4@p^2@1@p@1 + '
                                                       '2*1@p^4@p^3@1@p@1 + '
                                                       '2*1@p^5@p@1@p@1 + '
                                                       '2*1@p^6@p@1@p@1 - '
                                                       '2*p@p^3@p@1@1@1 + '
                                                       '4*p@p^3@p@p@p@1 + '
                                                       '4*p@p^3@p@p^2@p@1 + '
                                                       '4*p@p^3@p^2@1@p@1 + '
                                                       '4*p@p^3@p^3@1@p@1 + '
                                                       '6*p@p^4@p@1@p@1 + '
                                                       '4*p@p^5@p@1@p@1 - '
                                                       '2*p^2@p^2@p@1@1@1 + '
                                                       '4*p^2@p^2@p@p@p@1 + '
                                                       '4*p^2@p^2@p@p^2@p@1 + '
                                                       '4*p^2@p^2@p^2@1@p@1 + '
                                                       '4*p^2@p^2@p^3@1@p@1 + '
                                                       '8*p^2@p^3@p@1@p@1 + '
                                                       '4*p^2@p^4@p@1@p@1 - '
                                                       '2*p^3@p@p@1@1@1 + '
                                                       '4*p^3@p@p@p@p@1 + '
                                                       '4*p^3@p@p@p^2@p@1 + '
                                                       '4*p^3@p@p^2@1@p@1 + '
                                                       '4*p^3@p@p^3@1@p@1 + '
                                                       '8*p^3@p^2@p@1@p@1 + '
                                                       '4*p^3@p^3@p@1@p@1 - '
                                                       'p^4@1@p@1@1@1 + '
                                                       '2*p^4@1@p@p@p@1 + '
                                                       '2*p^4@1@p@p^2@p@1 + '
                                                       '2*p^4@1@p^2@1@p@1 + '
                                                       '2*p^4@1@p^3@1@p@1 + '
                                                       '6*p^4@p@p@1@p@1 + '
                                                       '2*p^4@p^2@p@1@p@1 + '
                                                       '2*p^5@1@p@1@p@1',
                                                'u': '1@1@1 - 2*p@p@1',
                                                'v': 'p^2@p@1',
                                                'w': '-1@p^2 - p^2@1'}},
                                   {'label': 'associativity case 3 (150 instances)',
                                    'ok': True}],
                       'name': 'operad associativity (multiplicative over '
                               'polynomial-primitive)',
                       'passed': False},
 'associativity/no-t2': {'entries': [{'label': 'associativity on 86 basis triples',
                                      'ok': False,
                                      'witness': {'first_failing_order': 2,
                                                  'lhs': '0',
                                                  'rhs': '1/2',
                                                  'triple': '(p, p, q^2)'}},
                                     {'label': '1 is a unit for the twisted product',
                                      'ok': True}],
                         'name': 'twisted product associativity',
                         'passed': False},
 'associativity/not-a-twist': {'entries': [{'label': 'associativity on 42 basis '
                                                     'triples',
                                            'ok': False,
                                            'witness': {'first_failing_order': 1,
                                                        'lhs': '2',
                                                        'rhs': '0',
                                                        'triple': '(p, p, 1)'}},
                                           {'label': '1 is a unit for the twisted '
                                                     'product',
                                            'ok': False,
                                            'witness': {'element': 'p^2'}}],
                               'name': 'twisted product associativity',
                               'passed': False},
 'axioms/fat-unit': {'entries': [{'label': 'coassociativity',
                                  'ok': False,
                                  'witness': {'element': 'p^2',
                                              'lhs': '1@1@p^2 + 2*1@p@p + 1@p^2@1 + '
                                                     '2*p@1@p + 2*p@p@1 + p@p@p^2 + '
                                                     'p^2@1@1',
                                              'rhs': '1@1@p^2 + 2*1@p@p + 1@p^2@1 + '
                                                     '2*p@1@p + 2*p@p@1 + p^2@1@1 + '
                                                     'p^2@p@p'}},
                                 {'label': 'counit law', 'ok': True},
                                 {'label': 'coproduct is an algebra morphism',
                                  'ok': False,
                                  'witness': {'lhs': '1@1 + p@p',
                                              'pair': '1 , 1',
                                              'rhs': '1@1 + 2*p@p + p^2@p^2'}},
                                 {'label': 'counit is an algebra morphism',
                                  'ok': True}],
                     'name': 'bialgebra axioms (polynomial-primitive)',
                     'passed': False},
 'axioms/grouplike': {'entries': [{'label': 'coassociativity',
                                   'ok': False,
                                   'witness': {'element': 'p^2',
                                               'lhs': '1@1@p^2 + 1@p^2@1 + 2*p@p@1 + '
                                                      '2*p@p@p + p^2@1@1',
                                               'rhs': '1@1@p^2 + 2*1@p@p + 1@p^2@1 + '
                                                      '2*p@p@p + p^2@1@1'}},
                                  {'label': 'counit law',
                                   'ok': False,
                                   'witness': {'element': 'p'}},
                                  {'label': 'coproduct is an algebra morphism',
                                   'ok': False,
                                   'witness': {'lhs': '1@p^2 + 2*p@p + p^2@1',
                                               'pair': 'p , p',
                                               'rhs': 'p^2@p^2'}},
                                  {'label': 'counit is an algebra morphism',
                                   'ok': True}],
                      'name': 'bialgebra axioms (polynomial-primitive)',
                      'passed': False},
 'axioms/skewed': {'entries': [{'label': 'coassociativity',
                                'ok': False,
                                'witness': {'element': 'p',
                                            'lhs': '1@1@p + 1@1@p^2 + 1@p@1 + 1@p^2@1 '
                                                   '+ p@1@1',
                                            'rhs': '1@1@p + 2*1@1@p^2 + 1@p@1 + '
                                                   '2*1@p@p + 1@p^2@1 + p@1@1'}},
                               {'label': 'counit law',
                                'ok': False,
                                'witness': {'element': 'p'}},
                               {'label': 'coproduct is an algebra morphism',
                                'ok': False,
                                'witness': {'lhs': '1@p^2 + 2*p@p + p^2@1',
                                            'pair': 'p , p',
                                            'rhs': '1@p^2 + 2*1@p^3 + 1@p^4 + 2*p@p + '
                                                   '2*p@p^2 + p^2@1'}},
                               {'label': 'counit is an algebra morphism', 'ok': True}],
                   'name': 'bialgebra axioms (polynomial-primitive)',
                   'passed': False},
 'coboundary/nonzero': [None,
                        {'coefficient_degree': 4,
                         'operator_order': 1,
                         'search_space': 'differential operators'}],
 'coboundary/product': ['1*1',
                        {'coefficient_degree': 4,
                         'operator_order': 1,
                         'search_space': 'differential operators'}],
 'cocommutative/matrix': [False, 'a'],
 'cocommutative/skewed': [False, 'p'],
 'commutative/matrix': True,
 'commutative/tensor': False,
 'compat/literal': {'entries': [{'label': 'node v1 is a module algebra', 'ok': True},
                                {'label': 'node v2 is a module algebra', 'ok': True},
                                {'label': 'arrow 0 (v1 -> v2): b h(a) = h(phi(b) a)',
                                 'ok': False,
                                 'witness': {'a': 'p',
                                             'generator': 'p1',
                                             'lhs': 'p^3',
                                             'rhs': 'p^2'}}],
                    'name': 'diagram compatibility',
                    'passed': False},
 'compat/tight': {'entries': [{'label': 'node v1 is a module algebra', 'ok': True},
                              {'label': 'node v2 is a module algebra', 'ok': True},
                              {'label': 'arrow 0 (v1 -> v2): b h(a) = h(phi(b) a)',
                               'ok': False,
                               'witness': {'a': 'q^2',
                                           'error': 'product q^6 exceeds the degree '
                                                    'cutoff 5',
                                           'generator': 'p1'}}],
                  'name': 'diagram compatibility',
                  'passed': False},
 'equivariance/matrix': {'entries': [{'label': 'inner equivariance u o (v.tau)',
                                      'ok': False,
                                      'witness': {'i': 1,
                                                  'lhs': '2*a@d@b + 2*a*c@a*d@b + '
                                                         '2*a*d@c*d@b',
                                                  'rhs': '2*a@d@b + 2*a*c@d^2@b + '
                                                         '2*a^2@c*d@b',
                                                  'tau': [2, 1],
                                                  'u': '2*1@b + 2*c@b',
                                                  'v': 'd@a'}},
                                     {'label': 'outer equivariance (u.sigma) o v',
                                      'ok': True}],
                         'name': 'operad equivariance (matrix-coordinate)',
                         'passed': False},
 'equivariance/skewed': {'entries': [{'label': 'inner equivariance u o (v.tau)',
                                      'ok': False,
                                      'witness': {'i': 1,
                                                  'lhs': '2*1@p^2@p^2 + 2*1@p^2@p^3 + '
                                                         '2*1@p^3@p + 2*1@p^4@p + '
                                                         '2*p@p^2@p',
                                                  'rhs': '2*1@p^2@p^2 + 2*1@p^2@p^3 + '
                                                         '2*1@p^3@p + 2*p@p^2@p + '
                                                         '2*p^2@p^2@p',
                                                  'tau': [2, 1, 3],
                                                  'u': '2*p',
                                                  'v': 'p^2@1@p'}},
                                     {'label': 'outer equivariance (u.sigma) o v',
                                      'ok': True}],
                         'name': 'operad equivariance (polynomial-primitive)',
                         'passed': False},
 'functional/non-twist': {'entries': [{'label': 'three-variable identity',
                                       'ok': False,
                                       'witness': {'difference': 'u1',
                                                   'first_failing_order': 1,
                                                   'monomial': 'u1'}},
                                      {'label': 'boundary condition F(0,u) = F(u,0) = '
                                                '1',
                                       'ok': False}],
                          'name': 'functional equation',
                          'passed': False},
 'interchange/perturbed': {'entries': [{'label': 'tau_1324 identity in B^4',
                                        'ok': False,
                                        'witness': {'difference': '1@p2@p1@1 + '
                                                                  'p1@1@1@p2',
                                                    'first_failing_order': 1}}],
                           'name': 'interchange coherence',
                           'passed': False},
 'module-algebra/broken': {'entries': [{'label': 'product is B-linear',
                                        'ok': False,
                                        'witness': {'b': 'p1',
                                                    'lhs': '1',
                                                    'pair': '1 , p',
                                                    'rhs': '0'}},
                                       {'label': 'unit condition b.1 = eps(b) 1',
                                        'ok': True}],
                           'name': 'module-algebra compatibility',
                           'passed': False},
 'module-algebra/broken-cutoff': {'entries': [{'label': 'product is B-linear',
                                               'ok': False,
                                               'witness': {'b': 'p1',
                                                           'lhs': '1',
                                                           'pair': '1 , p',
                                                           'rhs': '0'}},
                                              {'label': 'unit condition b.1 = eps(b) 1',
                                               'ok': True}],
                                  'name': 'module-algebra compatibility',
                                  'passed': False},
 'module-algebra/finite': {'entries': [{'label': 'product is B-linear',
                                        'ok': False,
                                        'witness': {'b': 'p1',
                                                    'lhs': 'p',
                                                    'pair': '1 , p',
                                                    'rhs': '0'}},
                                       {'label': 'unit condition b.1 = eps(b) 1',
                                        'ok': True}],
                           'name': 'module-algebra compatibility',
                           'passed': False},
 'module-algebra/ok': {'entries': [{'label': 'product is B-linear', 'ok': True},
                                   {'label': 'unit condition b.1 = eps(b) 1',
                                    'ok': True}],
                       'name': 'module-algebra compatibility',
                       'passed': True},
 'oracle/ok': {'entries': [{'label': 'graded dimension profiles are identical',
                            'ok': True,
                            'witness': {'h2': [[0, 0], [1, 0], [2, 1], [3, 0]],
                                        'twi': [[0, 0], [1, 0], [2, 1], [3, 0]]}},
                           {'label': 'representatives are gauge-equivalent',
                            'ok': True},
                           {'label': 'corner components of solutions are multiples of '
                                     '1@1',
                            'ok': True}],
               'name': 'moduli oracle agreement (polynomial-primitive)',
               'passed': True},
 'oracle/tampered': {'entries': [{'label': 'graded dimension profiles are identical',
                                  'ok': True,
                                  'witness': {'h2': [[0, 0], [1, 0], [2, 1], [3, 0]],
                                              'twi': [[0, 0], [1, 0], [2, 1], [3, 0]]}},
                                 {'label': 'representatives are gauge-equivalent',
                                  'ok': False,
                                  'witness': {'degree': 2}},
                                 {'label': 'corner components of solutions are '
                                           'multiples of 1@1',
                                  'ok': False,
                                  'witness': {'degree': 3, 'term': '1@1 + p1@1'}}],
                     'name': 'moduli oracle agreement (polynomial-primitive)',
                     'passed': False},
 'partial-assoc/corrupted': {'entries': [{'label': 'relation on 2 basis 5-tuples (mod '
                                                   't^2)',
                                          'ok': False,
                                          'witness': {'first_failing_order': 1,
                                                      'tuple': ['p',
                                                                'p',
                                                                'p',
                                                                'p',
                                                                'q'],
                                                      'value': '(p,(p,p,p),q) - '
                                                               '((p,p,p),p,q)'}}],
                             'name': 'partial associativity',
                             'passed': False},
 'partial-assoc/order0': {'entries': [{'label': 'relation on 32 basis 5-tuples (mod '
                                                't^1)',
                                       'ok': True}],
                          'name': 'partial associativity',
                          'passed': True},
 'reconstruct/fat-unit': {'entries': [{'label': 'product recovered by o_1', 'ok': True},
                                      {'label': 'coproduct recovered by b o_1 (1@1)',
                                       'ok': True},
                                      {'label': 'counit recovered by the arity-0 slot',
                                       'ok': True}],
                          'name': 'bialgebra reconstruction from the operad '
                                  '(polynomial-primitive)',
                          'passed': True},
 'reconstruct/skewed': {'entries': [{'label': 'product recovered by o_1', 'ok': True},
                                    {'label': 'coproduct recovered by b o_1 (1@1)',
                                     'ok': True},
                                    {'label': 'counit recovered by the arity-0 slot',
                                     'ok': True}],
                        'name': 'bialgebra reconstruction from the operad '
                                '(polynomial-primitive)',
                        'passed': True},
 'twist/cutoff': {'entries': [{'label': 'F1 is a twisting element', 'ok': True},
                              {'label': 'F2 is a twisting element', 'ok': True},
                              {'label': 'triple condition Delta(G) F1 = (phi@phi)(F2) '
                                        '(G@G)',
                               'ok': True},
                              {'label': 'h(G .) is a morphism of twisted algebras',
                               'ok': False,
                               'witness': {'error': 'product q^6 exceeds the degree '
                                                    'cutoff 5',
                                           'pair': '1 , q^2'}},
                              {'label': "gauge-reduced triple (F1', 1, F2) satisfies "
                                        'the condition',
                               'ok': True}],
                  'name': 'twisting triple on arrow v1 -> v2',
                  'passed': False},
 'twist/mismatch': {'entries': [{'label': 'F1 is a twisting element', 'ok': True},
                                {'label': 'F2 is a twisting element', 'ok': True},
                                {'label': 'triple condition Delta(G) F1 = '
                                          '(phi@phi)(F2) (G@G)',
                                 'ok': False,
                                 'witness': {'difference': '1/2*p1@p2 - 1/2*p2@p1',
                                             'first_failing_order': 1}},
                                {'label': 'h(G .) is a morphism of twisted algebras',
                                 'ok': False,
                                 'witness': {'first_failing_order': 1,
                                             'pair': 'p , q'}},
                                {'label': "gauge-reduced triple (F1', 1, F2) satisfies "
                                          'the condition',
                                 'ok': False,
                                 'witness': {'first_failing_order': 1}}],
                    'name': 'twisting triple on arrow v1 -> v2',
                    'passed': False},
 'unit/doubled-identity': {'entries': [{'label': 'unit o_1 v = v', 'ok': True},
                                       {'label': 'u o_i unit = u',
                                        'ok': False,
                                        'witness': {'got': '2*1@p + 4*p@p',
                                                    'i': 1,
                                                    'u': '2*1@p + 2*p@p'}}],
                           'name': 'operad unit laws (multiplicative over '
                                   'polynomial-primitive)',
                           'passed': False},
 'unit/fat-unit': {'entries': [{'label': 'unit o_1 v = v',
                                'ok': False,
                                'witness': {'got': '2*1@p + 2*p@p + 2*p@p^2 + '
                                                   '2*p^2@p^2',
                                            'v': '2*1@p + 2*p@p'}},
                               {'label': 'u o_i unit = u', 'ok': True}],
                   'name': 'operad unit laws (multiplicative over '
                           'polynomial-primitive)',
                   'passed': False},
 'unit/skewed-add': {'entries': [{'label': 'unit o_1 v = v', 'ok': True},
                                 {'label': 'u o_i unit = u', 'ok': True}],
                     'name': 'operad unit laws (additive over polynomial-primitive)',
                     'passed': True},
 'zero-witness/low': [True, None],
 'zero-witness/nonzero': [False, {'keys': ['1', 'p*q'], 'value': 'p*q'}]}


def test_checker_reports_are_byte_identical():
    got = collect()
    assert sorted(got) == sorted(EXPECTED)
    for name, want in EXPECTED.items():
        assert json.dumps(got[name], sort_keys=True) == json.dumps(
            want, sort_keys=True
        ), name

