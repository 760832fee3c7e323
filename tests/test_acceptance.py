"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; without -s pytest shows them only for failures.  Every test also
enforces its wall-clock budget.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from pairpack.algebra import CycloInt, ZZ, cyclotomic_poly, is_basis
from pairpack.conjectures import (prime_nonzero_certificate,
                                  permanent2_coefficient, permanent_coefficient,
                                  scan_conjecture, units_mod)
from pairpack.dyson import (dyson_bruteforce, dyson_formula,
                            dyson_via_evaluation, packing_coefficient)
from pairpack.nullstellensatz import (GridSpec, cn_coefficient,
                                      integral_over_field,
                                      odd_residue_polynomial,
                                      partition_polynomial)
from pairpack.poly import MultiPoly
from pairpack.algebra import ModRing
from pairpack.solvers import (Infeasible, InvalidInstance, PackingInstance,
                              PartitionInstance, VectorPartitionInstance,
                              check_packing_hypotheses, packing_to_partition,
                              partition_as_packing, solve_pair_partition,
                              solve_translate_packing, solve_vector_partition,
                              verify_solution)
from pairpack.sumsets import beta, verify_cd_bound

SEED = 20260823
JOBS = min(4, os.cpu_count() or 1)


@contextmanager
def criterion(num, label, budget):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if elapsed >= budget:
            raise AssertionError(
                f"criterion {num} took {elapsed:.1f}s, budget {budget}s")
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        verdict = "PASS" if ok else "FAIL"
        print(f"criterion {num:2d} ({label}): {verdict} [{elapsed:.1f}s]")


def test_criterion_01_constant_term_three_ways():
    """All exponent vectors with n <= 4 entries and expansion degree
    sum_{i<j}(a_i + a_j) at most 16; single entries capped at 20."""
    with criterion(1, "constant term, three routes", 60):
        vectors = [(a,) for a in range(1, 21)]
        vectors += [(a, b) for a in range(1, 16) for b in range(1, 16)
                    if a + b <= 16]
        vectors += [v for v in itertools.product(range(1, 7), repeat=3)
                    if 2 * sum(v) <= 16]
        vectors += [v for v in itertools.product(range(1, 3), repeat=4)
                    if 3 * sum(v) <= 16]
        assert len(vectors) > 150
        for a in vectors:
            want = dyson_formula(a)
            assert dyson_bruteforce(a, max_degree=16) == want
            assert dyson_via_evaluation(a) == want


def test_criterion_02_fourth_power_difference_coefficient():
    with criterion(2, "fourth-power difference coefficient", 30):
        for m in (1, 2, 3):
            expanded = MultiPoly.one(ZZ, m)    # prod_{i<j} (x_i - x_j)^4
            for i, j in itertools.combinations(range(m), 2):
                binomial = []
                for t in range(5):
                    exps = [0] * m
                    exps[i], exps[j] = 4 - t, t
                    binomial.append((exps, (-1) ** t * math.comb(4, t)))
                expanded = expanded * MultiPoly(ZZ, m, binomial)
            got = expanded.coefficient(((2 * m - 2),) * m)
            assert got == math.factorial(2 * m) // 2 ** m
            assert got == packing_coefficient(m, 2)
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            m = (p - 1) // 2
            assert packing_coefficient(m, 2) % p != 0


def test_criterion_03_exhaustive_small_prime_partitions():
    with criterion(3, "all difference vectors, p in {3,5,7,11}", 300):
        for p in (3, 5, 7, 11):
            m = (p - 1) // 2
            for d in itertools.product(range(1, p), repeat=m):
                inst = PartitionInstance(p, d)
                res = solve_pair_partition(inst)
                assert not isinstance(res, Infeasible), (p, d)
                assert verify_solution(inst, res), (p, d)


def test_criterion_04_certified_counterexamples():
    with criterion(4, "certified infeasible instances", 10):
        res = solve_pair_partition(PartitionInstance(9, (3,) * 4))
        assert isinstance(res, Infeasible) and res.nodes > 0
        res = solve_pair_partition(PartitionInstance(15, (5,) * 7))
        assert isinstance(res, Infeasible) and res.nodes > 0
        forced = (((1, 0), (1, 0)),) * 4
        try:
            VectorPartitionInstance(3, 2, forced)
            raise AssertionError("degenerate bases must fail validation")
        except InvalidInstance:
            pass
        inst = VectorPartitionInstance(3, 2, forced, check=False)
        res = solve_vector_partition(inst)
        assert isinstance(res, Infeasible) and res.nodes > 0


def test_criterion_05_random_basis_systems():
    with criterion(5, "1000 random basis 4-tuples, p=3 k=2", 120):
        rng = random.Random(SEED)

        def draw_basis():
            while True:
                cand = tuple(tuple(rng.randrange(3) for _ in range(2))
                             for _ in range(2))
                if is_basis(cand, 3, 2):
                    return cand

        for _ in range(1000):
            inst = VectorPartitionInstance(
                3, 2, tuple(draw_basis() for _ in range(4)))
            res = solve_vector_partition(inst)
            assert not isinstance(res, Infeasible), inst.bases
            assert verify_solution(inst, res)


def test_criterion_06_hypothesis_satisfying_packings():
    """Random packings built to satisfy every sufficient condition, plus
    the pair-partition encoding for p in {5, 7}."""
    with criterion(6, "10^4 guaranteed packings + encoding", 300):
        rng = random.Random(SEED + 1)
        primes = (3, 5, 7, 11, 13)
        for _ in range(10 ** 4):
            while True:
                p = rng.choice(primes)
                d = rng.randrange(1, 4)
                m = rng.randrange(2, 5)
                if m * d < p:
                    break
            X = []
            for _ in range(m):
                base = rng.randrange(p)
                width = rng.randrange(1, d + 1)
                pick = sorted(rng.sample(range(d), width))
                X.append(tuple((base + x) % p for x in pick))
            T = []
            for _ in range(m):
                size = rng.randrange((m - 1) * d + 1, p + 1)
                T.append(tuple(rng.sample(range(p), size)))
            inst = PackingInstance(p, tuple(X), tuple(T), d)
            assert check_packing_hypotheses(inst).main_hypotheses
            t = solve_translate_packing(inst)
            assert not isinstance(t, Infeasible), inst.to_json()
            assert verify_solution(inst, t)

        for p in (5, 7):
            m = (p - 1) // 2
            for d in itertools.product(range(1, p), repeat=m):
                inst = PartitionInstance(p, d)
                enc = partition_as_packing(inst)
                assert check_packing_hypotheses(enc).main_hypotheses
                t = solve_translate_packing(enc)
                assert not isinstance(t, Infeasible), (p, d)
                assert verify_solution(inst, packing_to_partition(inst, t))


def test_criterion_07_full_field_sums_match():
    with criterion(7, "full-field sums agree and are nonzero", 120):
        rng = random.Random(SEED + 2)
        for p in (5, 7):
            target = integral_over_field(odd_residue_polynomial(p))
            assert target != 0
            m = (p - 1) // 2
            for _ in range(100):
                d = tuple(rng.randrange(1, p) for _ in range(m))
                assert integral_over_field(partition_polynomial(p, d)) \
                    == target, (p, d)


def test_criterion_08_interpolation_coefficient():
    with criterion(8, "200 random grid coefficient extractions", 30):
        rng = random.Random(SEED + 3)
        for case in range(200):
            ring = ZZ if case % 2 else ModRing(rng.choice((5, 7, 11, 13)))
            span = 12 if ring is ZZ else ring.n
            arity = rng.randrange(1, 4)
            while True:
                sizes = [rng.randrange(2, 6) for _ in range(arity)]
                if sum(sizes) - arity <= 9:
                    break
            grid = GridSpec(tuple(tuple(sorted(rng.sample(range(span), s)))
                                  for s in sizes))
            c = grid.target_exponents
            budget = sum(c)

            def sparse():
                terms = []
                for _ in range(rng.randrange(1, 6)):
                    while True:
                        e = tuple(rng.randrange(budget + 1)
                                  for _ in range(arity))
                        if sum(e) <= budget:
                            break
                    terms.append((e, rng.randrange(-9, 10)))
                return MultiPoly(ring, arity, terms)

            f = sparse()
            if case % 3 == 0:
                # a product expanded through polynomial multiplication
                g = sparse()
                if f.total_degree() + g.total_degree() <= budget:
                    f = f * g
            assert cn_coefficient(f, grid) == f.coefficient(c)


def test_criterion_09_root_of_unity_sums():
    with criterion(9, "bijection sums over roots of unity", 120):
        rng = random.Random(SEED + 4)
        for n in range(3, 10):
            m = (n - 1) // 2 if n % 2 else n // 2
            units = units_mod(n)
            for _ in range(20):
                d = tuple(rng.choice(units) for _ in range(m))
                lhs = permanent_coefficient(n, d)
                rhs = permanent2_coefficient(n, d)
                for di in d:
                    rhs = rhs * (CycloInt.from_int(n, 1)
                                 - CycloInt.root_power(n, di))
                assert lhs == rhs, (n, d)
        for p in (3, 5, 7):
            m = (p - 1) // 2
            expect = math.factorial(m) * math.prod(range(1, 2 * m, 2))
            for d in itertools.product(range(1, p), repeat=m):
                value, nonzero = prime_nonzero_certificate(p, d)
                assert value == expect and nonzero, (p, d)
                assert permanent2_coefficient(p, d).eval_at_one() == expect
        # certificate cross-check: the sums themselves never vanish
        for p in (3, 5):
            m = (p - 1) // 2
            for d in itertools.product(range(1, p), repeat=m):
                assert not permanent2_coefficient(p, d).is_zero()
        for _ in range(30):
            d = tuple(rng.randrange(1, 7) for _ in range(3))
            assert not permanent2_coefficient(7, d).is_zero()


def test_criterion_10_conjecture_scans():
    with criterion(10, "exhaustive unit-difference scans + n=24 sample", 900):
        for n in range(3, 16, 2):
            rep = scan_conjecture(n, jobs=JOBS if n >= 13 else None)
            assert rep.instances_total == len(units_mod(n)) ** ((n - 1) // 2)
            assert rep.instances_feasible == rep.instances_total, \
                (n, rep.failures)
        for n in range(4, 15, 2):
            rep = scan_conjecture(n, jobs=JOBS if n >= 13 else None)
            assert rep.instances_total == len(units_mod(n)) ** (n // 2)
            assert rep.instances_feasible == rep.instances_total, \
                (n, rep.failures)
        rep = scan_conjecture(24, sample=10 ** 5, seed=SEED, jobs=JOBS)
        assert rep.instances_total == 10 ** 5
        assert rep.instances_feasible == rep.instances_total, \
            rep.failures[:5]


def test_criterion_11_sumset_bound_sweeps():
    with criterion(11, "sumset bound sweeps over Z/(p^alpha)", 300):
        expected_tight = {(2, 2): 193, (2, 3): 32609, (3, 2): 122125}
        for (p, alpha), tight in expected_tight.items():
            rep = verify_cd_bound(p, alpha, jobs=JOBS)
            assert rep.pairs == (2 ** (p ** alpha) - 1) ** 2
            assert rep.violations == ()
            assert rep.tight_count == tight
        assert beta(5, 2, 2) == 3
        assert beta(2, 2, 2) == 2


def test_criterion_12_property_suites():
    with criterion(12, "round-trips, lemma fuzz, byte determinism", 300):
        rng = random.Random(SEED + 5)

        # solver soundness and JSON round-trips
        for _ in range(300):
            n = rng.randrange(3, 16)
            universe = "nonzero" if n % 2 else "full"
            m = (n - 1) // 2 if n % 2 else n // 2
            inst = PartitionInstance(
                n, tuple(rng.randrange(1, n) for _ in range(m)), universe)
            assert PartitionInstance.from_json(inst.to_json()) == inst
            res = solve_pair_partition(inst)
            if isinstance(res, Infeasible):
                assert verify_solution(inst, res) is False
            else:
                assert verify_solution(inst, res)
                doc = res.to_json()
                assert doc["result"] == "feasible"
                assert len(doc["pairs"]) == m
        for _ in range(50):
            p = rng.choice((5, 7, 11))
            m = rng.randrange(2, 4)
            X = tuple(tuple({rng.randrange(p) for _ in range(2)})
                      for _ in range(m))
            T = tuple(tuple({rng.randrange(p) for _ in range(4)})
                      for _ in range(m))
            inst = PackingInstance(p, X, T, rng.randrange(1, 3))
            assert PackingInstance.from_json(inst.to_json()) == inst
            t = solve_translate_packing(inst)
            if not isinstance(t, Infeasible):
                assert verify_solution(inst, t)

        # every product with the right cyclotomic factor vanishes, and its
        # value at 1 is then divisible by p
        for _ in range(1000):
            p = rng.choice((2, 3, 5, 7, 11, 13))
            phi = cyclotomic_poly(p)
            g = [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 7))]
            prod = [0] * (len(phi) + len(g) - 1)
            for i, a in enumerate(phi):
                for j, b in enumerate(g):
                    prod[i + j] += a * b
            assert CycloInt(p, prod).is_zero()
            assert CycloInt(p, prod).eval_at_one() % p == 0

        # identical invocations give identical bytes
        for argv in (["partition", "--n", "5", "--d", "1,2"],
                     ["conjecture-scan", "--n", "9", "--sample", "100",
                      "--seed", "5"],
                     ["sumset", "--p", "2", "--alpha", "2"]):
            runs = [subprocess.run([sys.executable, "-m", "pairpack.cli"]
                                   + argv, capture_output=True, check=True)
                    for _ in range(2)]
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stdout.strip()
            json.loads(runs[0].stdout)
