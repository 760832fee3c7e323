"""Backtracking solvers: pair partitions, vector pairings, translate packings."""

import hashlib
import itertools
import json
import math
import random
from collections import Counter

import pytest

from pairpack import solvers
from pairpack.algebra import is_basis
from pairpack.dyson import packing_coefficient
from pairpack.solvers import (Infeasible, InvalidInstance, PackingInstance,
                              PairPartition, PartitionInstance,
                              VectorPartitionInstance, check_packing_hypotheses,
                              find_pair_partition, packing_to_partition,
                              partition_as_packing, solve_pair_partition,
                              solve_translate_packing, solve_vector_partition,
                              verify_solution)


def exists_by_enumeration(inst):
    """Blind oracle: walk every perfect matching of the universe, then try
    to orient its pairs so the differences hit the required multiset."""
    elems = list(range(inst.universe == "nonzero", inst.n))
    target = Counter(inst.d)

    def orient(pairs, remaining):
        if not pairs:
            return not +remaining
        a, b = pairs[0]
        for dv in {(b - a) % inst.n, (a - b) % inst.n}:
            if remaining[dv]:
                remaining[dv] -= 1
                if orient(pairs[1:], remaining):
                    remaining[dv] += 1
                    return True
                remaining[dv] += 1
        return False

    def matchings(rest):
        if not rest:
            yield []
            return
        a = rest[0]
        for t in range(1, len(rest)):
            b = rest[t]
            tail = rest[1:t] + rest[t + 1:]
            for m in matchings(tail):
                yield [(a, b)] + m

    return any(orient(m, Counter(target)) for m in matchings(elems))


def test_partition_instance_validation():
    with pytest.raises(InvalidInstance):
        PartitionInstance(1, ())
    with pytest.raises(InvalidInstance):
        PartitionInstance(5, (5, 1))            # reduces to zero
    # the universe follows from n: even n pairs all of Z/(n)
    assert PartitionInstance(4, (1, 1)) == PartitionInstance(4, (1, 1), "full")
    assert PartitionInstance(4, (1, 1)).universe == "full"
    with pytest.raises(InvalidInstance,
                       match="^universe 'nonzero' needs an odd modulus$"):
        PartitionInstance(4, (1, 1), "nonzero")     # even n, nonzero universe
    with pytest.raises(InvalidInstance):
        PartitionInstance(5, (1, 1), "full")    # odd n, full universe
    with pytest.raises(InvalidInstance, match="^unknown universe ''$"):
        PartitionInstance(9, (1, 2, 3, 4), "")
    with pytest.raises(InvalidInstance):
        PartitionInstance(5, (1,))              # wrong count
    with pytest.raises(InvalidInstance):
        PartitionInstance(5, (1, 2), "everything")
    inst = PartitionInstance(7, (8, 2, 3))
    assert inst.d == (1, 2, 3)
    assert inst.m == 3


def test_partition_json_round_trip():
    inst = PartitionInstance(9, (3, 3, 3, 3))
    assert PartitionInstance.from_json(inst.to_json()) == inst
    # universe inferred from the parity of n when absent
    assert PartitionInstance.from_json({"n": 9, "d": [1] * 4}).universe == "nonzero"
    assert PartitionInstance.from_json({"n": 4, "d": [1, 1]}).universe == "full"


def _field_id(value):
    """A (field, error) case is named by its field."""
    return value[0] if type(value) is tuple and type(value[0]) is str else None


@pytest.mark.parametrize("cls, doc, fault", [
    (PartitionInstance, {"n": 5, "d": [1, 2.5]},
     ("d", r"^difference 2\.5 is not an int$")),
    (PartitionInstance, {"n": "5", "d": "12"},
     ("n", r"^modulus '5' is not an int >= 2$")),
    (PartitionInstance, {"n": 5, "d": "12"},
     ("d", r"^differences '12' are not a sequence of ints$")),
    (PartitionInstance, {"n": 5.9, "d": [1, 2]},
     ("n", r"^modulus 5\.9 is not an int >= 2$")),
    (PartitionInstance, {"n": True, "d": [1, 2]},
     ("n", r"^modulus True is not an int >= 2$")),
    (PartitionInstance, {"n": 5, "d": [True, 2]},
     ("d", r"^difference True is not an int$")),
    (VectorPartitionInstance, {"p": 3, "k": 1.5, "bases": [[[1]]]},
     ("k", r"^k 1\.5 is not an int >= 1$")),
    (VectorPartitionInstance, {"p": "3", "k": 1, "bases": [[[1]]]},
     ("p", r"^p '3' is not an int >= 2$")),
    (VectorPartitionInstance, {"p": 3, "k": 1, "bases": [[[1.0]]]},
     ("bases", r"^coordinate 1\.0 is not an int$")),
    (VectorPartitionInstance,
     {"p": 3, "k": 1, "bases": [[[1]]], "check": 1},
     ("check", r"\bcheck must be a JSON")),
    (VectorPartitionInstance,
     {"p": 3, "k": 1, "bases": [[[1]]], "check": "false"},
     ("check", r"\bcheck must be a JSON")),
    (PackingInstance, {"n": 7, "X": [[0]], "T": [[0]], "d": 1.7},
     ("d", r"^packing parameter 1\.7 is not an int >= 1$")),
    (PackingInstance, {"n": "7", "X": [[0]], "T": [[0]], "d": 1},
     ("n", r"^modulus '7' is not an int >= 2$")),
    (PackingInstance, {"n": 7.0, "X": [[0]], "T": [[0]], "d": 1},
     ("n", r"^modulus 7\.0 is not an int >= 2$")),
    (PackingInstance, {"n": 7, "X": [[0.5]], "T": [[0]], "d": 1},
     ("X", r"^element 0\.5 is not an int$")),
    (PackingInstance, {"n": 7, "X": [[0]], "T": [["0"]], "d": 1},
     ("T", r"^element '0' is not an int$")),
], ids=_field_id)
def test_from_json_takes_only_json_integers(cls, doc, fault):
    # a float, bool or string in an integer field used to be truncated or
    # reinterpreted (d = [1, 2.5] solved d = (1, 2)); now the error names
    # the field by its library name
    _, error = fault
    with pytest.raises(InvalidInstance, match=error):
        cls.from_json(doc)


@pytest.mark.parametrize("universe", [0, False, [], None, 5, ["nonzero"]])
def test_from_json_takes_a_present_universe_only_as_a_string(universe):
    # a falsy universe used to be read as absent, and solved as "nonzero"
    doc = {"n": 9, "d": [1, 2, 3, 4], "universe": universe}
    with pytest.raises(InvalidInstance, match=r"\buniverse must be a JSON"):
        PartitionInstance.from_json(doc)
    # a string is the universe, and a wrong one is refused by name
    with pytest.raises(InvalidInstance, match="unknown universe ''"):
        PartitionInstance.from_json({**doc, "universe": ""})
    assert PartitionInstance.from_json({**doc, "universe": "nonzero"}) == \
        PartitionInstance(9, (1, 2, 3, 4))


def test_from_json_keeps_integers_ambient_and_check_flag():
    inst = PackingInstance.from_json({"n": "integers", "X": [[0, 2]],
                                      "T": [[0]], "d": 1})
    assert inst.modulus is None
    doc = {"p": 3, "k": 1, "bases": [[[0]]], "check": False}
    assert VectorPartitionInstance.from_json(doc).bases == (((0,),),)
    with pytest.raises(InvalidInstance):
        VectorPartitionInstance.from_json({**doc, "check": True})


def test_solver_known_answers():
    assert solve_pair_partition(PartitionInstance(3, (1,))).pairs == ((1, 2),)
    assert solve_pair_partition(PartitionInstance(5, (1, 2))).pairs == \
        ((2, 3), (4, 1))
    assert solve_pair_partition(PartitionInstance(4, (1, 1), "full")).pairs == \
        ((0, 1), (2, 3))


def test_solver_counterexample_with_node_count():
    res = solve_pair_partition(PartitionInstance(9, (3, 3, 3, 3)))
    assert isinstance(res, Infeasible)
    assert res.nodes == 11
    assert res.to_json() == {"result": "infeasible", "nodes": 11}


def test_half_modulus_difference():
    # d = n/2 pairs each element with its antipode; both orientations agree
    res = solve_pair_partition(PartitionInstance(4, (2, 2), "full"))
    assert res.pairs == ((0, 2), (1, 3))


def test_pairs_line_up_with_instance_order():
    inst = PartitionInstance(9, (4, 1, 2, 1))
    res = solve_pair_partition(inst)
    assert isinstance(res, PairPartition)
    for (x, y), dv in zip(res.pairs, inst.d):
        assert (y - x) % 9 == dv
    assert verify_solution(inst, res)


def test_solver_against_enumeration():
    rng = random.Random(17)
    cases = []
    for n in (3, 5):
        m = (n - 1) // 2
        cases += [PartitionInstance(n, d)
                  for d in itertools.product(range(1, n), repeat=m)]
    for _ in range(60):
        n = rng.choice((7, 9))
        d = tuple(rng.randrange(1, n) for _ in range((n - 1) // 2))
        cases.append(PartitionInstance(n, d))
    for _ in range(40):
        n = rng.choice((4, 6, 8))
        d = tuple(rng.randrange(1, n) for _ in range(n // 2))
        cases.append(PartitionInstance(n, d, "full"))
    for inst in cases:
        res = solve_pair_partition(inst)
        feasible = not isinstance(res, Infeasible)
        assert feasible == exists_by_enumeration(inst)
        if feasible:
            assert verify_solution(inst, res)


def test_vector_instance_validation():
    std = (((1, 0), (0, 1)),) * 4
    with pytest.raises(InvalidInstance):
        VectorPartitionInstance(3, 2, std[:3])
    with pytest.raises(InvalidInstance):
        VectorPartitionInstance(9, 2, (((1, 0), (0, 1)),) * 40)
    degenerate = (((1, 0), (2, 0)),) + std[:3]
    with pytest.raises(InvalidInstance):
        VectorPartitionInstance(3, 2, degenerate)
    # unchecked construction lets the broken system through
    VectorPartitionInstance(3, 2, degenerate, check=False)
    with pytest.raises(InvalidInstance):
        VectorPartitionInstance(3, 2, (((1, 0, 0), (0, 1, 0)),) * 4)


def test_vector_instance_refuses_a_huge_k_before_building_p_to_the_k():
    """p^k has at least k (bits of p - 1) bits; from 2^20 on the count
    is refused unbuilt, and below it the message names (p^k - 1)/2."""
    with pytest.raises(InvalidInstance,
                       match=r"^need \(3\^9223372036854775808 - 1\)/2 bases, "
                             r"got 1$"):
        VectorPartitionInstance(3, 2 ** 63, (((1, 0), (0, 1)),))
    with pytest.raises(InvalidInstance,
                       match=r"^need \(5\^1048576 - 1\)/2 bases, got 4$"):
        VectorPartitionInstance(5, 2 ** 20, (((1, 0), (0, 1)),) * 4)
    with pytest.raises(InvalidInstance,
                       match=f"^need {(3 ** 100 - 1) // 2} bases, got 4$"):
        VectorPartitionInstance(3, 100, (((1, 0), (0, 1)),) * 4)


def test_vector_solver_standard_bases():
    inst = VectorPartitionInstance(3, 2, (((1, 0), (0, 1)),) * 4)
    pairs, g = solve_vector_partition(inst)
    assert pairs == (((0, 1), (1, 1)), ((0, 2), (1, 2)),
                     ((1, 0), (2, 0)), ((2, 1), (2, 2)))
    assert g == (0, 0, 0, 1)
    assert verify_solution(inst, (pairs, g))


def test_vector_solver_random_bases():
    rng = random.Random(18)
    from pairpack.algebra import is_basis
    for _ in range(20):
        bases = []
        while len(bases) < 4:
            cand = tuple(tuple(rng.randrange(3) for _ in range(2))
                         for _ in range(2))
            if is_basis(cand, 3, 2):
                bases.append(cand)
        inst = VectorPartitionInstance(3, 2, tuple(bases))
        res = solve_vector_partition(inst)
        assert not isinstance(res, Infeasible)
        assert verify_solution(inst, res)


def test_vector_solver_infeasible_when_forced_to_one_direction():
    # every slot restricted to multiples of e_1: differences stay in a line
    inst = VectorPartitionInstance(3, 2, (((1, 0), (1, 0)),) * 4, check=False)
    res = solve_vector_partition(inst)
    assert isinstance(res, Infeasible)
    assert res.nodes == 977


def test_vector_solver_never_pairs_a_vector_with_itself():
    """A zero basis vector names e as its own partner; the search passes
    it over, as it passes over the zero vector."""
    one = VectorPartitionInstance(3, 1, (((0,),),), check=False)
    assert solve_vector_partition(one) == Infeasible(1)
    line = VectorPartitionInstance(3, 2, (((0, 0), (1, 0)),) * 4, check=False)
    assert solve_vector_partition(line) == Infeasible(153)
    mixed = VectorPartitionInstance(3, 2, (((0, 0), (0, 1)), ((1, 0), (0, 0)),
                                           ((1, 1), (0, 0)), ((1, 2), (0, 0))),
                                    check=False)
    pairs, g = solve_vector_partition(mixed)
    assert pairs == (((0, 1), (0, 2)), ((1, 0), (2, 0)),
                     ((1, 1), (2, 2)), ((1, 2), (2, 1)))
    assert g == (1, 0, 0, 0)
    assert verify_solution(mixed, (pairs, g))


def test_packing_instance_validation():
    with pytest.raises(InvalidInstance):
        PackingInstance(1, ((0,),), ((0,),), 1)
    with pytest.raises(InvalidInstance):
        PackingInstance(7, (), (), 1)
    with pytest.raises(InvalidInstance):
        PackingInstance(7, ((0,),), ((0,), (1,)), 1)
    with pytest.raises(InvalidInstance):
        PackingInstance(7, ((0,),), ((),), 1)
    with pytest.raises(InvalidInstance):
        PackingInstance(7, ((0,),), ((0,),), 0)
    inst = PackingInstance(7, ((8, 1, 1),), ((0,),), 1)
    assert inst.X == ((1,),)
    assert PackingInstance.from_json(inst.to_json()) == inst


def test_packing_solver_known():
    inst = PackingInstance(7, ((0,), (0, 1)), ((0, 1), (0, 1)), 1)
    assert solve_translate_packing(inst) == (0, 1)
    assert verify_solution(inst, (0, 1))


def test_packing_solver_integers_ambient():
    inst = PackingInstance("integers", ((0, 2), (0, 1)), ((0, 1, 4), (0, 2, 3)),
                           2)
    t = solve_translate_packing(inst)
    assert t == (0, 3)
    assert verify_solution(inst, t)


def test_packing_solver_infeasible():
    inst = PackingInstance(3, ((0, 1), (0, 1)), ((0, 1, 2), (0, 1, 2)), 1)
    res = solve_translate_packing(inst)
    assert isinstance(res, Infeasible)
    assert res.nodes > 0
    assert verify_solution(inst, res) is False


def test_hypothesis_report_flags():
    # m = 2, d = 1 over F_7: 2!/(1!)^2 = 2 != 0; diff sets small; T big
    good = PackingInstance(7, ((0,), (0, 1)), (tuple(range(7)),) * 2, 1)
    rep = check_packing_hypotheses(good)
    assert rep.factorial_nonzero and rep.difference_bound and rep.translate_bound
    assert rep.main_hypotheses
    assert rep.squares_bound is True      # 1 + 2 < 7 with full translate sets
    assert rep.guarantees == ("main", "squares")

    # factorial (2*2)!/(2!)^2 = 6 = 0 mod 3
    bad_fact = PackingInstance(3, ((0,), (0,)), ((0, 1, 2), (0, 1, 2)), 2)
    rep = check_packing_hypotheses(bad_fact)
    assert not rep.factorial_nonzero and not rep.main_hypotheses

    # wide difference set: |X_1 - X_2| = 4 > 2d = 2
    wide = PackingInstance(11, ((0, 5), (0, 1)), (tuple(range(11)),) * 2, 1)
    rep = check_packing_hypotheses(wide)
    assert not rep.difference_bound

    # small translate sets: need (m-1)d + 1 = 2
    tiny = PackingInstance(7, ((0,), (0,)), ((0,), (1,)), 1)
    rep = check_packing_hypotheses(tiny)
    assert not rep.translate_bound
    assert rep.squares_bound is None      # T_i not the whole field

    # composite modulus or integer ambient: squares test never applies
    assert check_packing_hypotheses(
        PackingInstance(9, ((0,),), ((0, 1, 2),), 1)).squares_bound is None
    assert check_packing_hypotheses(
        PackingInstance("integers", ((0,),), ((0, 1),), 1)).squares_bound is None


def test_factorial_hypothesis_matches_multinomial():
    # (md)! / (d!)^m is a multinomial, hence integral
    for m in range(1, 6):
        for d in range(1, 4):
            exact = math.factorial(m * d) // math.factorial(d) ** m
            assert abs(packing_coefficient(m, d)) == exact
            for n in (2, 3, 5, 7, 9):
                inst = PackingInstance(n, ((0,),) * m, ((0,),) * m, d)
                assert check_packing_hypotheses(inst).factorial_nonzero == \
                    (exact % n != 0)


def test_reduction_round_trip():
    inst = PartitionInstance(5, (1, 2))
    enc = partition_as_packing(inst)
    assert enc.X == ((0, 1), (0, 2))
    assert enc.d == 2
    for ts, dv in zip(enc.T, inst.d):
        assert 0 not in ts and (5 - dv) % 5 not in ts
    t = solve_translate_packing(enc)
    assert t == (2, 4)
    pairs = packing_to_partition(inst, t)
    assert pairs.pairs == ((2, 3), (4, 1))
    assert verify_solution(inst, pairs)
    with pytest.raises(InvalidInstance):
        partition_as_packing(PartitionInstance(4, (1, 1), "full"))


def test_reduction_agrees_with_direct_search():
    for p in (5, 7):
        m = (p - 1) // 2
        for d in itertools.product(range(1, p), repeat=m):
            inst = PartitionInstance(p, d)
            direct = solve_pair_partition(inst)
            t = solve_translate_packing(partition_as_packing(inst))
            assert isinstance(direct, Infeasible) == isinstance(t, Infeasible)
            if not isinstance(t, Infeasible):
                assert verify_solution(inst, packing_to_partition(inst, t))


def test_verify_rejects_tampering():
    inst = PartitionInstance(5, (1, 2))
    good = solve_pair_partition(inst)
    assert verify_solution(inst, good)
    assert not verify_solution(inst, PairPartition(((2, 3), (4, 2))))
    assert not verify_solution(inst, PairPartition(((2, 3), (1, 4))))
    assert not verify_solution(inst, PairPartition(((0, 1), (2, 4))))
    assert not verify_solution(inst, [(1, 2), (1, 3)])      # 1 twice
    assert not verify_solution(inst, [(1, 2), (0, 2)])      # 0 not in it
    assert verify_solution(inst, [(7, 8), (-1, 6)])         # ends mod 5
    # the first pair's wrong difference ends the check before the bad end
    assert not verify_solution(inst, [(1, 3), (2, "x")])
    assert not verify_solution(inst, [(1, 2)])               # too few pairs
    assert verify_solution(inst, Infeasible(3)) is False
    with pytest.raises(TypeError):
        verify_solution(object(), good)

    vinst = VectorPartitionInstance(3, 2, (((1, 0), (0, 1)),) * 4)
    pairs, g = solve_vector_partition(vinst)
    assert not verify_solution(vinst, (pairs, (1, 0, 0, 1)))
    swapped = (pairs[1],) + (pairs[0],) + pairs[2:]
    assert verify_solution(vinst, (swapped, g))  # same slots, same bases
    line = VectorPartitionInstance(3, 1, (((1,),),))
    assert verify_solution(line, ([((1,), (2,))], [0]))
    for bad in (5,                                # no (pairs, choices)
                ([((1,), (2,))], [0, 0]),         # a choice too many
                ([((1,), (2,))], [1]),            # basis index past k
                ([((1, 0), (2, 0))], [0])):       # vectors not of length k
        assert not verify_solution(line, bad)

    pinst = PackingInstance(7, ((0,), (0, 1)), ((0, 1), (0, 1)), 1)
    assert not verify_solution(pinst, (0, 6))    # 6 not in T_2
    assert not verify_solution(pinst, (0, 0))    # translates collide
    pinst = PackingInstance(7, [(0, 1), (0, 2)], [(0, 1, 2), (3, 4)], 1)
    assert verify_solution(pinst, (0, 3))
    assert not verify_solution(pinst, (0,))      # a translate too few


def test_verify_rejects_malformed_pairs():
    inst = PartitionInstance(5, (1, 2))
    vinst = VectorPartitionInstance(3, 1, (((1,),),))
    for bad in ([[2, "3"], [4, 1]], [[2, 3, 4], [4, 1]], [[2], [4, 1]],
                [2, [4, 1]]):
        with pytest.raises(InvalidInstance):
            verify_solution(inst, bad)
        with pytest.raises(InvalidInstance):
            verify_solution(inst, PairPartition(tuple(bad)))
    for pair in (((1,), ("2",)), ((1,), (2,), (0,)), ((1,),), (1, 2)):
        with pytest.raises(InvalidInstance):
            verify_solution(vinst, ((pair,), (0,)))
    for bad in (5, PairPartition(5)):
        with pytest.raises(InvalidInstance):
            verify_solution(inst, bad)
    # a malformed pair raises where it is met, here before any good one
    with pytest.raises(InvalidInstance, match=r"^malformed pair \('x', 2\)$"):
        verify_solution(inst, [("x", 2), (1, 2)])
    for bad in ((5, (0,)), ([((0,), (1,))], 7)):
        with pytest.raises(InvalidInstance):
            verify_solution(vinst, bad)
    with pytest.raises(InvalidInstance):
        verify_solution(vinst, ((((1,), (2,)),), ("0",)))
    with pytest.raises(InvalidInstance):
        verify_solution(PackingInstance(5, ((0,),), ((0, 1),), 1), 5)
    assert verify_solution(vinst, ((((1,), (2,)),), (0,)))


def test_verify_refuses_bools_in_a_solution():
    """A bool is no int here either: (True, 2) and basis choice False used
    to pass as (1, 2) and 0, and translate True as 1."""
    with pytest.raises(InvalidInstance, match=r"^malformed pair \(True, 2\)$"):
        verify_solution(PartitionInstance(3, (1,)), [(True, 2)])
    assert verify_solution(PartitionInstance(3, (1,)), [(1, 2)])
    vinst = VectorPartitionInstance(3, 1, (((1,),),))
    with pytest.raises(InvalidInstance, match=r"^malformed basis choice \(False,\)$"):
        verify_solution(vinst, ((((1,), (2,)),), (False,)))
    with pytest.raises(InvalidInstance, match="^malformed pair "):
        verify_solution(vinst, ((((True,), (2,)),), (0,)))
    pinst = PackingInstance(7, ((0,), (0, 1)), ((0, 1), (0, 3)), 1)
    assert verify_solution(pinst, (1, 3))
    for t in ((True, 3), (1, 3.0), (1, "3")):
        with pytest.raises(InvalidInstance, match="^malformed solution "):
            verify_solution(pinst, t)


# ---------------------------------------------------------------------------
# search depth and branch order


def test_deep_partition_search():
    inst = PartitionInstance(4001, (1,) * 2000)
    assert verify_solution(inst, solve_pair_partition(inst))


def test_deep_vector_search():
    identity = tuple(tuple(int(i == j) for j in range(7)) for i in range(7))
    inst = VectorPartitionInstance(3, 7, (identity,) * 1093)
    assert verify_solution(inst, solve_vector_partition(inst))


def test_deep_packing_search():
    m = 1500
    inst = PackingInstance("integers", ((0, 1),) * m,
                           tuple((2 * i,) for i in range(m)), 1)
    assert verify_solution(inst, solve_translate_packing(inst))


def _branch_order_cases():
    rng = random.Random(2012)
    cases = []
    for _ in range(120):
        n = rng.choice((3, 5, 7, 9, 11, 13, 15, 17, 21, 25))
        cases.append(PartitionInstance(
            n, tuple(rng.randrange(1, n) for _ in range((n - 1) // 2))))
    for n in (9, 15):       # mostly infeasible: differences share a factor 3
        for _ in range(10):
            cases.append(PartitionInstance(
                n, tuple(rng.choice((3, 6, n // 3))
                         for _ in range((n - 1) // 2))))
    for _ in range(40):
        n = rng.choice((4, 6, 8, 10, 12))
        cases.append(PartitionInstance(
            n, tuple(rng.randrange(1, n) for _ in range(n // 2)), "full"))
    for _ in range(60):
        p, k = rng.choice(((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)))
        m = (p ** k - 1) // 2
        cases.append(VectorPartitionInstance(p, k, tuple(
            tuple(tuple(rng.randrange(p) for _ in range(k)) for _ in range(k))
            for _ in range(m)), check=False))
    for _ in range(60):
        amb = rng.choice((5, 7, 8, 11, 12, "integers"))
        span = amb if isinstance(amb, int) else 9
        m = rng.randrange(1, 5)
        X = tuple(tuple(rng.sample(range(span), rng.randrange(1, 3)))
                  for _ in range(m))
        T = tuple(tuple(rng.sample(range(span), rng.randrange(1, 5)))
                  for _ in range(m))
        cases.append(PackingInstance(amb, X, T, 1))
    return cases


def test_branch_order_is_pinned():
    """Every solver's first solution and every node count on 300 seeded
    instances (55 of them infeasible), hashed.  A change of branch order
    or of node counting changes the digest."""
    solve = {PartitionInstance: solve_pair_partition,
             VectorPartitionInstance: solve_vector_partition,
             PackingInstance: solve_translate_packing}
    results = []
    for inst in _branch_order_cases():
        res = solve[type(inst)](inst)
        results.append(res.to_json() if hasattr(res, "to_json") else res)
    digest = hashlib.sha256(
        json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert digest == \
        "055027e46c1a6c003af5ec9bfa2854e1a4431b46dc285b935de574de218baa4e"


def plain_canonical_search(inst):
    """The canonical branch order as a plain recursion that walks every
    state, dead or not: the smallest uncovered element e, each remaining
    difference value ascending, partner e + d before e - d.  Returns the
    pairs dealt to the instance's indices, or the number of states."""
    n, m = inst.n, len(inst.d)
    left = Counter(inst.d)
    dvals = sorted(left)
    used = [False] * n
    used[0] = inst.universe == "nonzero"
    path = []
    nodes = 0

    def walk():
        nonlocal nodes
        nodes += 1
        if len(path) == m:
            return True
        e = used.index(False)
        used[e] = True
        for dv in dvals:
            if not left[dv]:
                continue
            up, down = (e + dv) % n, (e - dv) % n
            for x, y in [(e, up)] if up == down else [(e, up), (down, e)]:
                partner = y if x == e else x
                if used[partner]:
                    continue
                used[partner] = True
                left[dv] -= 1
                path.append((x, y, dv))
                if walk():
                    return True
                path.pop()
                left[dv] += 1
                used[partner] = False
        used[e] = False
        return False

    if not walk():
        return nodes
    pairs = {dv: [(x, y) for x, y, d in path if d == dv] for dv in dvals}
    return tuple(pairs[dv].pop(0) for dv in inst.d)


def test_canonical_search_matches_a_plain_recursion():
    """Skipping dead states already seen changes neither the first
    solution nor any node count (101 of the 300 are infeasible)."""
    rng = random.Random(1970)
    cases = []
    for _ in range(240):
        n = rng.choice((9, 10, 11, 12, 13, 14, 15, 21, 25))
        cases.append((n, [rng.randrange(1, n) for _ in range(n // 2)]))
    for _ in range(60):     # a factor g of n dividing every d: mostly dead
        n, g = rng.choice(((9, 3), (12, 3), (15, 3), (15, 5), (16, 2)))
        cases.append((n, [g * rng.randrange(1, n // g) for _ in range(n // 2)]))
    infeasible = 0
    for n, d in cases:
        inst = PartitionInstance(n, d, "nonzero" if n % 2 else "full")
        res, want = solve_pair_partition(inst), plain_canonical_search(inst)
        if isinstance(want, int):
            infeasible += 1
            assert res == Infeasible(want), (n, d)
        else:
            assert res.pairs == want, (n, d)
    assert infeasible == 101


def test_prime_cut_search_keeps_the_canonical_first_solution(monkeypatch):
    """On an odd prime the cut search runs first, and its cuts never move
    the canonical first solution (sizes the test above does not draw)."""
    cut_search, found = solvers._cut_search, []

    def spy(inst, pick):
        found.append(cut_search(inst, pick))
        return found[-1]

    monkeypatch.setattr(solvers, "_cut_search", spy)
    rng = random.Random(1729)
    for p in (17, 19, 23):
        for _ in range(100):
            inst = PartitionInstance(
                p, tuple(rng.randrange(1, p) for _ in range(p // 2)))
            assert solve_pair_partition(inst).pairs == \
                plain_canonical_search(inst), (p, inst.d)
    assert len(found) == 300
    assert all(isinstance(res, PairPartition) for res in found)


def test_prime_falls_back_to_the_whole_tree(monkeypatch):
    """Should the cut search find nothing on a prime, the table search
    still gives the canonical first solution."""
    calls = []
    monkeypatch.setattr(solvers, "_cut_search",
                        lambda inst, pick: calls.append(inst) or Infeasible(1))
    rng = random.Random(1801)
    cases = [PartitionInstance(3, (1,)), PartitionInstance(5, (1, 2))]
    for p in (7, 11, 13, 17, 19):
        for _ in range(10):
            cases.append(PartitionInstance(
                p, tuple(rng.randrange(1, p) for _ in range(p // 2))))
    for inst in cases:
        assert solve_pair_partition(inst).pairs == \
            plain_canonical_search(inst), (inst.n, inst.d)
    assert calls == cases


def test_every_odd_modulus_runs_the_cut_search_first(monkeypatch):
    """Odd n, prime or not, runs the cut search once with the canonical
    pick, and the table search (a second _differences) only when that
    finds nothing; even n, and odd n with gcd(n, d_1, ..., d_m) > 1 (no
    partition), run the table search alone.  Either way the answer is
    the plain recursion's, pairs or whole-tree node count."""
    log = []
    cut_search, differences = solvers._cut_search, solvers._differences

    def spy(inst, pick):
        assert pick(0b10110, ()) == 0b10110     # all of free: lowest e first
        log.append("cut")
        res = cut_search(inst, pick)
        log.append(type(res).__name__)
        return res

    monkeypatch.setattr(solvers, "_cut_search", spy)
    monkeypatch.setattr(solvers, "_differences", lambda inst:
                        log.append("differences") or differences(inst))
    rng = random.Random(2501)
    cases = []
    for n in (9, 15, 21, 25, 27):
        for _ in range(24):
            cases.append((n, [rng.randrange(1, n) for _ in range(n // 2)]))
    # a factor g of n dividing every d: all dead, the table counts the tree
    # (g = 3 at n = 21, 27 or g = 5 at n = 25 grows 10^5..10^6 states,
    # seconds of the plain recursion each)
    for _ in range(30):
        n, g = rng.choice(((9, 3), (15, 3), (15, 5), (21, 7)))
        cases.append((n, [g * rng.randrange(1, n // g) for _ in range(n // 2)]))
    for n in range(4, 15, 2):
        for _ in range(10):
            cases.append((n, [rng.randrange(1, n) for _ in range(n // 2)]))
    infeasible = Counter()
    for n, d in cases:
        inst = PartitionInstance(n, d, "nonzero" if n % 2 else "full")
        log.clear()
        res, want = solve_pair_partition(inst), plain_canonical_search(inst)
        if n % 2 == 0 or math.gcd(n, *d) > 1:
            assert log == ["differences"], (n, d)
        elif isinstance(res, PairPartition):
            assert log == ["cut", "differences", "PairPartition"], (n, d)
        else:
            assert log == ["cut", "differences", "Infeasible",
                           "differences"], (n, d)
        if isinstance(want, int):
            infeasible[n % 2] += 1
            assert res == Infeasible(want), (n, d)
        else:
            assert res.pairs == want, (n, d)
    assert infeasible == {1: 30, 0: 28}


def test_clearing_the_dead_state_table_keeps_every_count(monkeypatch):
    monkeypatch.setattr(solvers, "DEAD_STATES", 8)
    test_branch_order_is_pinned()
    inst = PartitionInstance(16, (3, 4, 6, 7, 9, 11, 12, 13), "full")
    assert solve_pair_partition(inst) == Infeasible(232123)


def test_find_pair_partition_is_pinned():
    """The scans' search: its partition or node count on 200 seeded
    instances (75 of them infeasible), hashed.  A change of its pick, its
    cuts or its branch order changes the digest."""
    rng = random.Random(2022)
    cases = []
    for _ in range(140):
        n = rng.choice((9, 10, 12, 14, 15, 16, 21, 23, 25, 29))
        cases.append((n, [rng.randrange(1, n) for _ in range(n // 2)]))
    for _ in range(60):     # a factor g of n dividing every d: mostly dead
        n = rng.choice((9, 10, 12, 14, 15, 16))
        g = rng.choice([f for f in range(2, n) if n % f == 0])
        cases.append((n, [g * rng.randrange(1, n // g) for _ in range(n // 2)]))
    results = [find_pair_partition(PartitionInstance(
        n, d, "nonzero" if n % 2 else "full")).to_json() for n, d in cases]
    assert sum(res["result"] == "infeasible" for res in results) == 75
    digest = hashlib.sha256(
        json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert digest == \
        "23ef061d7dfd5ded1483d020d76bb4fc05d4f114f5b7098b839ccf8dbdb6b959"


def _vector_cases():
    rng = random.Random(1997)

    def vec(p, k):
        return tuple(rng.randrange(p) for _ in range(k))

    def line_system(stray):
        u = rng.choice(((0, 1), (1, 0), (1, 1), (1, 2)))

        def draw():
            if stray and rng.randrange(stray) == 0:
                return vec(3, 2)
            c = rng.randrange(3)
            return (c * u[0] % 3, c * u[1] % 3)

        return VectorPartitionInstance(
            3, 2, tuple((draw(), draw()) for _ in range(4)), check=False)

    cases = []
    for p in (3, 5):
        for _ in range(50):
            bases = []
            while len(bases) < (p * p - 1) // 2:
                basis = (vec(p, 2), vec(p, 2))
                if is_basis(basis, p, 2):
                    bases.append(basis)
            cases.append(VectorPartitionInstance(p, 2, tuple(bases)))
    # unchecked p = 3 systems whose vectors, zero included, lie on one line
    # through 0 (infeasible: the line's cosets hold 2 or 3 nonzero
    # vectors), and on one line but for a random vector in about 1 of 4
    cases += [line_system(0) for _ in range(40)]
    cases += [line_system(4) for _ in range(30)]
    for _ in range(30):
        p = rng.choice((3, 5, 7))
        cases.append(VectorPartitionInstance(
            p, 1, tuple((vec(p, 1),) for _ in range((p - 1) // 2)),
            check=False))
    return cases


def test_vector_partition_is_pinned():
    """solve_vector_partition's first solution or node count on 200 seeded
    instances (65 of them infeasible), hashed: checked bases at p = 3 and
    p = 5, unchecked systems with zero and collinear vectors at p = 3, and
    unchecked k = 1 systems.  A change of branch order or of node counting
    changes the digest."""
    results = []
    for inst in _vector_cases():
        res = solve_vector_partition(inst)
        results.append(res.to_json() if isinstance(res, Infeasible) else res)
    assert sum(isinstance(res, dict) for res in results) == 65
    digest = hashlib.sha256(
        json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert digest == \
        "5ac7e016f6bdc60e959ea97d4e0d875ea2d44d05fe9ad2f725b42785d6deefb3"


def test_clearing_the_vector_move_table_keeps_every_answer(monkeypatch):
    monkeypatch.setattr(solvers, "DEAD_STATES", 4)
    test_vector_partition_is_pinned()


def test_packing_coefficient_divisibility_matches_the_exact_multinomial():
    """Legendre's formula per prime of n decides what the exact
    multinomial (md)!/(d!)^m mod n decides, on all 5,070 cases with
    n < 80, m <= 5 and d <= 13."""
    for n in range(2, 80):
        for m in range(1, 6):
            for d in range(1, 14):
                exact = math.factorial(m * d) // math.factorial(d) ** m
                assert solvers._divides_packing_coefficient(n, m, d) == \
                    (exact % n == 0), (n, m, d)


def test_packing_hypotheses_with_a_huge_d():
    """m * d = 2 * 10^12 used to build the exact multinomial.  By Kummer,
    7 divides (2d)!/(d!)^2 exactly when adding d + d in base 7 carries;
    a prime modulus past the trial-divisor bound with m * d above it is
    refused."""
    d = 10 ** 12
    carries = carry = 0
    x = d
    while x:
        x, digit = divmod(x, 7)
        carry = 2 * digit + carry >= 7
        carries += carry
    inst = PackingInstance(7, ((0, 1), (0, 2)), ((0, 1), (2, 3)), d)
    assert check_packing_hypotheses(inst).factorial_nonzero == (carries == 0)
    with pytest.raises(InvalidInstance, match=r"trial divisors up to "
                                              rf"{solvers.MAX_TRIAL_DIVISOR}$"):
        check_packing_hypotheses(PackingInstance(
            (1 << 61) - 1, ((0,), (0,)), ((0,), (1,)), d))
