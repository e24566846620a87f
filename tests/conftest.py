import importlib.util
import itertools
from pathlib import Path

import pytest

from udeform.kernel import QQ, Polynomial
from udeform.bialgebra import BialgebraSpec, construct_bialgebra
from udeform.twist import make_exp_udf
from udeform.deform import PolynomialTruncatedAlgebra, action_from_derivations

BENCH = Path(__file__).resolve().parent.parent / "bench"


Z2_TABLE = {
    "elements": ["1", "g"],
    "unit": "1",
    "table": [["1", "g"], ["g", "1"]],
}

IDEMPOTENT_TABLE = {
    "elements": ["1", "e"],
    "unit": "1",
    "table": [["1", "e"], ["e", "e"]],
}


@pytest.fixture(scope="session")
def B1():
    return construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p"]), 6)


@pytest.fixture(scope="session")
def B2():
    return construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p1", "p2"]), 6)


@pytest.fixture(scope="session")
def B2_wide():
    return construct_bialgebra(BialgebraSpec("polynomial-primitive", ["p1", "p2"]), 8)


@pytest.fixture(scope="session")
def B3():
    return construct_bialgebra(
        BialgebraSpec("polynomial-primitive", ["p1", "p2", "p3"]), 6
    )


@pytest.fixture(scope="session")
def tensorB():
    return construct_bialgebra(BialgebraSpec("tensor-primitive", ["e1", "e2"]), 4)


@pytest.fixture(scope="session")
def matrixB():
    return construct_bialgebra(BialgebraSpec("matrix-coordinate"), 3)


@pytest.fixture(scope="session")
def monoid_free():
    return construct_bialgebra(BialgebraSpec("monoid", ["a", "b", "c", "d"]), 4)


@pytest.fixture(scope="session")
def monoid_z2():
    return construct_bialgebra(
        BialgebraSpec("monoid", monoid_table=Z2_TABLE), 1
    )


@pytest.fixture(scope="session")
def monoid_idem():
    return construct_bialgebra(
        BialgebraSpec("monoid", monoid_table=IDEMPOTENT_TABLE), 1
    )


def antisym(B):
    """p1 @ p2 - p2 @ p1 over a two-generator bialgebra."""
    p1, p2 = B.generator("p1"), B.generator("p2")
    return p1.outer(p2) - p2.outer(p1)


@pytest.fixture(scope="session")
def moyal_udf(B2):
    return make_exp_udf(antisym(B2).scale(QQ(1, 2)), order=6)


@pytest.fixture(scope="session")
def plane():
    return PolynomialTruncatedAlgebra(["p", "q"], 4)


@pytest.fixture(scope="session")
def moyal_action(B2, plane):
    return action_from_derivations(
        B2, plane, {"p1": {"p": 1}, "p2": {"q": 1}}
    )


@pytest.fixture(scope="session")
def euler_action(B2, plane):
    return action_from_derivations(
        B2,
        plane,
        {"p1": {"p": Polynomial.variable("p")}, "p2": {"q": Polynomial.variable("q")}},
    )


def raw_tree_count(generators, leaf_count, symmetric):
    """Ternary trees on `generators` with `leaf_count` leaves, before the
    pAss relation, counted apart from the library: a planar tree is a triple
    of trees, a symmetric one a multiset of three."""
    trees = {1: set(generators)}
    for n in range(3, leaf_count + 1, 2):
        level = set()
        for a in range(1, n - 1, 2):
            for b in range(1, n - a, 2):
                for t in itertools.product(trees[a], trees[b], trees[n - a - b]):
                    level.add(tuple(sorted(t, key=repr)) if symmetric else t)
        trees[n] = level
    return len(trees[leaf_count])


def bench_job(name):
    """The document of one benchmark job, as `bench/jobs.py` builds it."""
    spec = importlib.util.spec_from_file_location("bench_jobs", BENCH / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    for workload in jobs.WORKLOADS.values():
        for job in workload(0):
            if job.name == name:
                return job.doc
    raise KeyError(name)
