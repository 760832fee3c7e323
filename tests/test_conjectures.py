"""Feasibility scans over unit differences and the root-of-unity sums."""

import hashlib
import itertools
import json
import math
import random
from collections import Counter

import pytest

from pairpack.algebra import CycloInt
from pairpack import conjectures
from pairpack.conjectures import (ScanReport, _permanent,
                                  double_factorial_odd,
                                  permanent2_coefficient, permanent_coefficient,
                                  prime_nonzero_certificate, scan_conjecture,
                                  units_mod)
from pairpack.solvers import (Infeasible, InvalidInstance, PairPartition,
                              PartitionInstance, find_pair_partition,
                              solve_pair_partition, verify_solution)


def test_units_mod():
    assert units_mod(9) == (1, 2, 4, 5, 7, 8)
    assert units_mod(7) == (1, 2, 3, 4, 5, 6)
    assert units_mod(12) == (1, 5, 7, 11)


def test_scan_exhaustive_small_odd():
    rep = scan_conjecture(5)
    assert rep.universe == "nonzero"
    assert rep.instances_total == 4 ** 2
    assert rep.instances_feasible == rep.instances_total
    assert rep.failures == ()
    rep = scan_conjecture(9)
    assert rep.instances_total == 6 ** 4
    assert rep.instances_feasible == rep.instances_total


def test_scan_exhaustive_small_even():
    rep = scan_conjecture(4)
    assert rep.universe == "full"
    assert rep.instances_total == 2 ** 2
    assert rep.instances_feasible == rep.instances_total
    rep = scan_conjecture(6)
    assert rep.instances_total == 2 ** 3
    assert rep.instances_feasible == rep.instances_total


def test_scan_report_json():
    rep = ScanReport(5, "nonzero", 16, 16, ())
    doc = rep.to_json()
    assert doc == {"n": 5, "universe": "nonzero", "total": 16,
                   "feasible": 16, "failures": []}


def test_scan_sample_mode():
    a = scan_conjecture(9, sample=200, seed=42)
    b = scan_conjecture(9, sample=200, seed=42)
    assert a.to_json() == b.to_json()
    assert a.instances_total == 200
    assert a.instances_feasible == a.instances_total
    c = scan_conjecture(9, sample=200, seed=43)
    assert c.instances_total == 200
    with pytest.raises(InvalidInstance):
        scan_conjecture(9, sample=10)
    with pytest.raises(InvalidInstance):
        scan_conjecture(2)
    for size in (0, -5):
        with pytest.raises(InvalidInstance):
            scan_conjecture(9, sample=size, seed=1)


@pytest.mark.parametrize("sample", [2.5, True, "3"])
def test_scan_refuses_a_sample_that_is_not_an_int(sample):
    """2.5 used to raise a bare TypeError from range()."""
    with pytest.raises(InvalidInstance, match="is not an int"):
        scan_conjecture(7, sample=sample, seed=1)


def test_scan_seed_needs_sample():
    with pytest.raises(InvalidInstance):
        scan_conjecture(7, seed=5)


def test_scan_sample_rejects_checkpoint(tmp_path):
    path = tmp_path / "scan.jsonl"
    with pytest.raises(InvalidInstance):
        scan_conjecture(9, sample=20, seed=1, checkpoint=str(path))
    assert not path.exists()


def test_identical_scans_give_equal_reports():
    assert scan_conjecture(11) == scan_conjecture(11)


def test_scan_accepts_and_ignores_jobs():
    a = scan_conjecture(11, sample=300, seed=7)
    b = scan_conjecture(11, sample=300, seed=7, jobs=2)
    assert a.to_json() == b.to_json()


def test_scan_checkpoint_resume(tmp_path):
    path = tmp_path / "scan.jsonl"
    want = scan_conjecture(7).to_json()
    first = scan_conjecture(7, checkpoint=str(path))
    assert first.to_json() == want
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(units_mod(7))
    for line in lines:
        rec = json.loads(line)
        assert rec["n"] == 7 and rec["universe"] == "nonzero"

    # drop the tail, rerun: skipped shards come from the file
    path.write_text("\n".join(lines[:3]) + "\n")
    resumed = scan_conjecture(7, checkpoint=str(path))
    assert resumed.to_json() == want
    assert len(path.read_text().strip().splitlines()) == len(lines)

    # records for other runs in the same file are ignored
    path.write_text(json.dumps({"n": 99, "universe": "nonzero", "shard": 1,
                                "total": 5, "feasible": 0, "failures": []})
                    + "\n")
    assert scan_conjecture(7, checkpoint=str(path)).to_json() == want


def _tear(path):
    """Cut the last line of a file in half, as a crash in the middle of an
    append leaves it."""
    data = path.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    path.write_bytes(data[:last + (len(data) - last) // 2])


def test_scan_checkpoint_torn_tail(tmp_path):
    path = tmp_path / "scan.jsonl"
    want = scan_conjecture(11).to_json()
    scan_conjecture(11, checkpoint=str(path))
    shards = len(units_mod(11))
    _tear(path)
    assert not path.read_bytes().endswith(b"\n")
    for _ in range(2):
        assert scan_conjecture(11, checkpoint=str(path)).to_json() == want
        lines = path.read_text().splitlines()
        assert len(lines) == shards
        assert sorted(json.loads(line)["shard"] for line in lines) == \
            list(units_mod(11))

    # only the last line may be torn; a broken line before it is an error
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0][:10]] + lines[1:]) + "\n")
    with pytest.raises(json.JSONDecodeError):
        scan_conjecture(11, checkpoint=str(path))


def _orderings(key):
    return math.factorial(len(key)) // math.prod(
        math.factorial(c) for c in Counter(key).values())


def direct_scan(n, sample=None, seed=None):
    """The scan's JSON with no symmetry: every sorted multiset of units
    (or every drawn one) solved on its own."""
    universe = "nonzero" if n % 2 else "full"
    m = (n - 1) // 2 if n % 2 else n // 2
    units = units_mod(n)
    if sample is None:
        draws = {key: _orderings(key)
                 for key in itertools.combinations_with_replacement(units, m)}
    else:
        rng = random.Random(seed)
        draws = Counter(tuple(sorted(rng.choice(units) for _ in range(m)))
                        for _ in range(sample))
    failures = [key for key in sorted(draws) if isinstance(
        solve_pair_partition(PartitionInstance(n, key, universe)), Infeasible)]
    total = sum(draws.values())
    return {"n": n, "universe": universe, "total": total,
            "feasible": total - sum(draws[key] for key in failures),
            "failures": [list(key) for key in failures]}


def test_fewest_live_partners_search_agrees_with_canonical():
    """The scans' search against the canonical one on arbitrary nonzero
    differences (non-units, repeats, n/2 at even n), which folded unit
    scans never feed it: same verdicts, and every partition verifies.
    Drawing all differences from the multiples of one divisor g of n
    makes infeasible instances common at odd n too."""
    rng = random.Random(13)
    seen = Counter()
    for _ in range(400):
        n = rng.randrange(3, 17)
        universe = "nonzero" if n % 2 else "full"
        g = rng.choice([g for g in range(1, n) if n % g == 0])
        d = [g * rng.randrange(1, n // g) for _ in range(n // 2)]
        inst = PartitionInstance(n, d, universe)
        found = find_pair_partition(inst)
        infeasible = isinstance(found, Infeasible)
        assert infeasible == isinstance(solve_pair_partition(inst), Infeasible)
        assert infeasible or verify_solution(inst, found)
        seen[infeasible, n % 2 or n // 2 in d] += 1
        seen[infeasible, universe] += 1
    assert all(seen[infeasible, kind] for infeasible in (False, True)
               for kind in (False, True, "nonzero", "full"))


@pytest.mark.parametrize("n", range(3, 11))
def test_fewest_live_partners_search_on_every_multiset(n):
    """Every multiset of nonzero differences mod n, non-units and n/2
    included: the scans' search and the canonical one give the same
    verdict, and every partition found verifies."""
    universe = "nonzero" if n % 2 else "full"
    for d in itertools.combinations_with_replacement(range(1, n), n // 2):
        inst = PartitionInstance(n, d, universe)
        found = find_pair_partition(inst)
        infeasible = isinstance(found, Infeasible)
        assert infeasible == isinstance(solve_pair_partition(inst),
                                        Infeasible), d
        assert infeasible or verify_solution(inst, found), d


@pytest.mark.parametrize("n", range(3, 16))
def test_orbit_scan_matches_direct_scan(n):
    assert scan_conjecture(n).to_json() == direct_scan(n)


@pytest.mark.parametrize("seed", [1, 2])
def test_orbit_sample_matches_direct_scan(seed):
    assert scan_conjecture(24, sample=2000, seed=seed).to_json() == \
        direct_scan(24, sample=2000, seed=seed)


def _verified_multisets(monkeypatch):
    """Record the difference multiset of every verify_solution call a
    scan makes."""
    verified = Counter()
    verify = conjectures.verify_solution

    def spy(inst, solution):
        verified[inst.d] += 1
        return verify(inst, solution)

    monkeypatch.setattr(conjectures, "verify_solution", spy)
    return verified


def test_sample_verifies_each_folded_multiset_once(monkeypatch):
    """2,000 draws mod 24 repeat folded multisets (every one of them is
    feasible); each distinct one is verified exactly once."""
    verified = _verified_multisets(monkeypatch)
    n, m = 24, 12
    rng, units = random.Random(3), units_mod(n)
    keys = {tuple(sorted(rng.choice(units) for _ in range(m)))
            for _ in range(2000)}
    folded = {tuple(sorted(min(k, n - k) for k in key)) for key in keys}
    assert len(folded) < len(keys)
    assert scan_conjecture(n, sample=2000, seed=3).failures == ()
    assert verified == Counter(dict.fromkeys(folded, 1))


def test_exhaustive_scan_verifies_each_folded_multiset_once(monkeypatch):
    verified = _verified_multisets(monkeypatch)
    n = 13
    assert scan_conjecture(n).failures == ()
    assert verified == Counter(dict.fromkeys(
        itertools.combinations_with_replacement(range(1, 7), 6), 1))


def test_infeasible_orbit_fails_every_member(monkeypatch):
    """One infeasible representative fails its whole orbit: every
    multiset reached by scaling with a unit and flipping signs."""
    n, d = 11, (1, 2, 2, 3, 7)
    orbit = {tuple(sorted(s * u * x % n for s, x in zip(signs, d)))
             for u in units_mod(n)
             for signs in itertools.product((1, -1), repeat=len(d))}
    seen = []
    solve = conjectures.find_pair_partition

    def patched(inst):
        if inst.d in orbit:
            seen.append(inst.d)
            return Infeasible(0)
        return solve(inst)

    monkeypatch.setattr(conjectures, "find_pair_partition", patched)
    rep = scan_conjecture(n)
    assert len(seen) == 1
    assert rep.failures == tuple(sorted(orbit))
    assert rep.instances_total == 10 ** 5
    assert rep.instances_feasible == \
        10 ** 5 - sum(_orderings(key) for key in orbit)


def test_sampled_infeasible_orbit_fails_its_drawn_keys(monkeypatch):
    """Sample mode: every drawn key whose folded multiset lies in an
    infeasible orbit fails, with all its draws, and no other does."""
    n, m, d = 11, 5, (1, 2, 2, 3, 7)
    orbit = {tuple(sorted(s * u * x % n for s, x in zip(signs, d)))
             for u in units_mod(n)
             for signs in itertools.product((1, -1), repeat=len(d))}
    solve = conjectures.find_pair_partition
    monkeypatch.setattr(conjectures, "find_pair_partition", lambda inst:
                        Infeasible(0) if inst.d in orbit else solve(inst))
    rng = random.Random(5)
    draws = Counter(tuple(sorted(rng.choice(units_mod(n)) for _ in range(m)))
                    for _ in range(3000))
    failing = sorted(key for key in draws if key in orbit)
    rep = scan_conjecture(n, sample=3000, seed=5)
    assert len(failing) > 1 and rep.failures == tuple(failing)
    assert rep.instances_feasible == 3000 - sum(draws[k] for k in failing)


def test_scan_rejects_unverified_partition(monkeypatch):
    """A feasible verdict counts only once its partition verifies."""
    monkeypatch.setattr(conjectures, "find_pair_partition",
                        lambda inst: PairPartition(((1, 2),) * inst.m))
    with pytest.raises(ArithmeticError):
        scan_conjecture(5, jobs=None)


def coefficient_rows(mat):
    """A matrix of CycloInts as _permanent takes it: coefficient rows."""
    return [[e.coeffs for e in row] for row in mat]


def test_permanent_matches_inclusion_exclusion():
    """Glynn's formula, in one packed pass, against the permanent's
    definition: a sum over all permutations of products of one entry per
    row, over Z[w] and over the integers."""
    rng = random.Random(29)
    order = 7

    def by_definition(mat, zero):
        want = zero
        for perm in itertools.permutations(range(len(mat))):
            term = zero + 1
            for row, col in enumerate(perm):
                term = term * mat[row][col]
            want = want + term
        return want

    for m in (1, 2, 3, 4, 5):
        mat = [[CycloInt(order, [rng.randrange(-2, 3) for _ in range(order)])
                for _ in range(m)] for _ in range(m)]
        want = by_definition(mat, CycloInt(order))
        got = _permanent(coefficient_rows(mat), order)
        # both are exact in Z[x]/(x^n - 1), so even the representatives agree
        assert tuple(got) == want.coeffs
    assert _permanent([], 5) == [1, 0, 0, 0, 0]
    for m in range(6):
        mat = [[rng.randrange(-9, 10) for _ in range(m)] for _ in range(m)]
        assert _permanent([[(e,) for e in row] for row in mat], 1) == \
            [by_definition(mat, 0)]
    # a lone coefficient is the whole bound B, at +B and at -B; an all-zero
    # matrix has B = 0, the fewest bits per packed digit
    for c in (1, 7, 8, -1, -8, 2 ** 40, -2 ** 40):
        for t in (0, order - 1):
            entry = CycloInt.from_int(order, c) * CycloInt.root_power(order, t)
            assert tuple(_permanent([[entry.coeffs]], order)) == entry.coeffs
        assert _permanent([[(c,)]], 1) == [c]
    for m in (3, 4, 5):
        assert _permanent([[(0,)] * m for _ in range(m)], 1) == [0]


def test_permanent_exact_beyond_one_prime():
    """Entries so large that the coefficient bound needs digits of about
    160 bits, far past one machine word, and a zero row, whose bound 0
    gives the narrowest digits (b = 2)."""
    rng = random.Random(37)
    order = 6
    big = 10 ** 15
    mat = [[CycloInt(order, [rng.randrange(-big, big) for _ in range(order)])
            for _ in range(3)] for _ in range(3)]
    want = CycloInt(order)
    for perm in itertools.permutations(range(3)):
        want = want + mat[0][perm[0]] * mat[1][perm[1]] * mat[2][perm[2]]
    assert tuple(_permanent(coefficient_rows(mat), order)) == want.coeffs
    mat[1] = [CycloInt(order)] * 3
    assert _permanent(coefficient_rows(mat), order) == [0] * order


def test_bijection_sums_pinned():
    """The coefficient vectors of both forms on a seeded set with n <= 19
    and m <= 9, even and composite n included, pinned as one digest.  The
    representatives in Z[x]/(x^n - 1) are not canonical, so this pins more
    than the elements of Z[w]: it pins the vectors the sums over
    permutations give."""
    rng = random.Random(47)
    rows = []
    for n in range(2, 20):
        units = units_mod(n)
        for m in (rng.randrange(6), min(n // 2, 9)):
            d = [rng.choice(units) for _ in range(m)]
            rows.append([n, d, permanent_coefficient(n, d).coeffs,
                         permanent2_coefficient(n, d).coeffs])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == ("6b03c2d3305137fdc3d943d51b26fa2e"
                      "99d001d8ad47bf68330f2d2cdc8e1cc0")


def test_two_forms_at_n23_m11():
    """Both forms at m = 11: the pairing form is the geometric form times
    prod_i (1 - w_i), and the geometric form is m! (2m-1)!! at w = 1."""
    n, m = 23, 11
    rng = random.Random(23)
    d = tuple(rng.choice(units_mod(n)) for _ in range(m))
    lhs = permanent_coefficient(n, d)
    rhs = permanent2_coefficient(n, d)
    assert rhs.eval_at_one() == \
        math.factorial(m) * double_factorial_odd(2 * m - 1)
    for di in d:
        rhs = rhs * (CycloInt.from_int(n, 1) - CycloInt.root_power(n, di))
    assert (lhs - rhs).is_zero()


def test_bijection_sum_smallest_case():
    assert permanent2_coefficient(3, (1,)) == CycloInt.from_int(3, 1)
    w = CycloInt.root_power(3, 1)
    assert permanent_coefficient(3, (1,)) == CycloInt.from_int(3, 1) - w


def test_two_forms_differ_by_unit_product():
    """pairing form = geometric form * prod_i (1 - w^(d_i))"""
    for n, d in ((3, (1,)), (5, (1, 2)), (7, (1, 2, 3)), (9, (1, 2, 4, 5)),
                 (9, (5, 5, 7, 8))):
        lhs = permanent_coefficient(n, d)
        rhs = permanent2_coefficient(n, d)
        for di in d:
            rhs = rhs * (CycloInt.from_int(n, 1) - CycloInt.root_power(n, di))
        assert lhs == rhs


def test_nonunit_differences_rejected():
    with pytest.raises(InvalidInstance):
        permanent2_coefficient(9, (3, 1, 1, 1))
    with pytest.raises(InvalidInstance):
        permanent_coefficient(5, (0, 1))


def test_double_factorial():
    assert [double_factorial_odd(k) for k in (-1, 1, 3, 5, 7)] == \
        [1, 1, 3, 15, 105]


def test_certificates():
    for p, want in ((3, 1), (5, 6), (7, 90)):
        m = (p - 1) // 2
        value, nonzero = prime_nonzero_certificate(p, (1,) * m)
        assert value == want
        assert nonzero
    # the value at 1 does not depend on the chosen differences
    for d in ((1, 2), (3, 3), (2, 4)):
        assert prime_nonzero_certificate(5, d) == (6, True)
    with pytest.raises(InvalidInstance):
        prime_nonzero_certificate(9, (1, 2, 4, 5))
    with pytest.raises(InvalidInstance):
        prime_nonzero_certificate(5, (1,))
    with pytest.raises(InvalidInstance):
        prime_nonzero_certificate(7, (1, 7, 2))     # 7 is not a unit mod 7


def test_divisibility_lemma():
    from pairpack.algebra import cyclotomic_poly
    for p in (3, 5, 7):
        phi = CycloInt(p, cyclotomic_poly(p))
        assert phi.is_zero() and phi.eval_at_one() % p == 0
        f = CycloInt(p, (1, 2, 3))                      # no vanishing: vacuous
        assert not f.is_zero() or f.eval_at_one() % p == 0
    rng = random.Random(31)
    for _ in range(50):
        p = rng.choice((3, 5, 7, 11))
        phi = list(cyclotomic_poly(p))
        g = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 6))]
        prod = [0] * (len(phi) + len(g) - 1)
        for i, a in enumerate(phi):
            for j, b in enumerate(g):
                prod[i + j] += a * b
        assert CycloInt(p, prod).is_zero()
        assert CycloInt(p, prod).eval_at_one() % p == 0


@pytest.mark.parametrize("n", [16, 20])
def test_folded_scan_matches_direct_scan(n):
    assert scan_conjecture(n).to_json() == direct_scan(n)


@pytest.mark.parametrize("n", range(3, 17))
def test_sign_variants_cover_every_key_once(n):
    """The sign variants of the folded multisets are the sorted keys, each
    once, and a multiset's 2^m * multinomial weight is the ordered count
    of its variants; so the weights sum to phi(n)^m."""
    units, m = units_mod(n), n // 2
    seen = []
    weights = 0
    for folded in itertools.combinations_with_replacement(
            units[:len(units) // 2], m):
        variants = conjectures._sign_variants(folded, n)
        assert all(tuple(sorted(min(k, n - k) for k in key)) == folded
                   for key in variants)
        weight = 2 ** m * _orderings(folded)
        assert sum(map(_orderings, variants)) == weight
        seen += variants
        weights += weight
    assert sorted(seen) == list(
        itertools.combinations_with_replacement(units, m))
    assert weights == len(units) ** m


def key_by_key_checkpoint(n, feasible):
    """The checkpoint text of a scan that walks the sorted keys shard by
    shard (shard u: the keys whose smallest entry is u), weighing each key
    by its orderings and asking feasible(key) for its verdict."""
    universe = "nonzero" if n % 2 else "full"
    units, m = units_mod(n), n // 2
    lines = []
    for u in units:
        total = good = 0
        failures = []
        for rest in itertools.combinations_with_replacement(
                [v for v in units if v >= u], m - 1):
            key = (u,) + rest
            total += _orderings(key)
            if feasible(key):
                good += _orderings(key)
            else:
                failures.append(key)
        lines.append(json.dumps({"n": n, "universe": universe, "shard": u,
                                 "total": total, "feasible": good,
                                 "failures": failures}, sort_keys=True))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("n", [7, 11, 13])
def test_checkpoint_matches_key_by_key_shards(tmp_path, n):
    path = tmp_path / "scan.jsonl"
    universe = "nonzero" if n % 2 else "full"
    scan_conjecture(n, checkpoint=str(path))
    assert path.read_text() == key_by_key_checkpoint(
        n, lambda key: not isinstance(solve_pair_partition(
            PartitionInstance(n, key, universe)), Infeasible))
    units = units_mod(n)
    for i, line in enumerate(path.read_text().splitlines()):
        a = len(units) - i
        assert json.loads(line)["total"] == a ** (n // 2) - (a - 1) ** (n // 2)


def test_infeasible_orbit_even_modulus_checkpoint(tmp_path, monkeypatch):
    """An infeasible orbit at an even modulus: each failing key lands in
    the shard of its smallest entry, fresh and resumed checkpoints hold
    the key-by-key text, and the reports equal a run without one."""
    n, d = 14, (1, 3, 3, 5, 9, 11, 13)
    orbit = {tuple(sorted(s * u * x % n for s, x in zip(signs, d)))
             for u in units_mod(n)
             for signs in itertools.product((1, -1), repeat=len(d))}
    solve = conjectures.find_pair_partition
    monkeypatch.setattr(
        conjectures, "find_pair_partition",
        lambda inst: Infeasible(0) if inst.d in orbit else solve(inst))
    want = scan_conjecture(n)
    assert want.failures == tuple(sorted(orbit))
    assert len({key[0] for key in orbit}) > 1
    text = key_by_key_checkpoint(n, lambda key: key not in orbit)
    path = tmp_path / "scan.jsonl"
    assert scan_conjecture(n, checkpoint=str(path)) == want
    assert path.read_text() == text
    for line in text.splitlines():
        rec = json.loads(line)
        assert rec["failures"] == [list(key) for key in sorted(orbit)
                                   if key[0] == rec["shard"]]
    lines = text.splitlines(keepends=True)
    # shard 9 fails only keys with every entry flipped, such as
    # (9, 9, 11, 11, 11, 13, 13), whose folded classes are all below 9
    no_nine = [line for line in lines if json.loads(line)["shard"] != 9]
    for kept in (lines[:2], lines[1::2], no_nine,
                 lines[:-1] + [lines[-1][:9]]):
        path.write_text("".join(kept))
        assert scan_conjecture(n, checkpoint=str(path)) == want
        assert sorted(path.read_text().splitlines(keepends=True)) == \
            sorted(lines)


@pytest.mark.parametrize("record", [
    [1, 2],
    {"n": 7, "universe": "nonzero"},
    {"n": 7, "universe": "nonzero", "shard": 1, "total": "x",
     "feasible": 0, "failures": []},
    {"n": 7, "universe": "nonzero", "shard": 1, "total": 36,
     "feasible": 36, "failures": 5},
    {"n": 7, "universe": "nonzero", "shard": 1, "total": 36,
     "feasible": 36, "failures": [[1, "2", 3]]},
    {},
    {"garbage": 1},
    {"n": "7", "universe": "nonzero"},
    {"n": 7, "universe": None},
    {"universe": "nonzero", "shard": 1, "total": 36, "feasible": 36,
     "failures": []},
    # the universe follows from n: odd n pairs the nonzero residues
    {"n": 7, "universe": "full", "shard": 1, "total": 1, "feasible": 1,
     "failures": []},
    {"n": 8, "universe": "nonzero", "total": "garbage"},
    {"n": True, "universe": "nonzero"},             # a bool is not an int
])
def test_malformed_checkpoint_record_names_its_line(tmp_path, record):
    path = tmp_path / "scan.jsonl"
    n = 8 if isinstance(record, dict) and record.get("n") == 8 else 7
    scan_conjecture(n, checkpoint=str(path))
    good = path.read_text().splitlines(keepends=True)
    path.write_text(good[0] + json.dumps(record) + "\n" + "".join(good[1:]))
    with pytest.raises(InvalidInstance, match="line 2"):
        scan_conjecture(n, checkpoint=str(path))
    # as a torn last line, the same text is dropped and its shard rerun
    path.write_text("".join(good[:-1]) + json.dumps(record))
    assert scan_conjecture(n, checkpoint=str(path)) == scan_conjecture(n)
    assert path.read_text() == "".join(good)


def test_unparsable_last_line_with_its_newline_raises(tmp_path):
    """Only a last line without its newline is a torn append; a whole
    last line that does not parse is an error like any other, and the
    file is left as it was."""
    path = tmp_path / "scan.jsonl"
    scan_conjecture(7, checkpoint=str(path))
    lines = path.read_text().splitlines(keepends=True)
    broken = "".join(lines[:-1]) + lines[-1][:20] + "\n"
    path.write_text(broken)
    with pytest.raises(json.JSONDecodeError):
        scan_conjecture(7, checkpoint=str(path))
    assert path.read_text() == broken


@pytest.mark.parametrize("edit", [
    {"shard": 0},                                   # not a unit
    {"shard": 3},                                   # shard 3's total is 37
    {"total": 62, "feasible": 62},                  # not 5^3 - 4^3 = 61
    {"feasible": 66},                               # more than the total
    {"failures": [[99, 98]]},
    {"failures": [[2, 2, 3]], "feasible": 60},      # 3 orderings, not 1
    {"failures": [[3, 2, 2]], "feasible": 58},      # not sorted
    {"failures": [[1, 2, 2]], "feasible": 58},      # another shard's key
    {"failures": [[2, 3]], "feasible": 59},         # not m = 3 entries
    {"failures": [[2, 2, 7]], "feasible": 58},      # 7 is not a unit
    {"failures": [[2, 3, 4], [2, 2, 3]], "feasible": 52},
    {"failures": [[2, 2, 3], [2, 2, 3]], "feasible": 55},
    {"total": 61.0, "feasible": 61.0},              # equal, but not ints
    {"note": "x"},                                  # a key the scan never writes
])
def test_inconsistent_checkpoint_record_names_its_line(tmp_path, edit):
    """A well-typed record must agree with the closed-form shard total
    and its own failures."""
    path = tmp_path / "scan.jsonl"
    scan_conjecture(7, checkpoint=str(path))
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[1])
    assert (record["shard"], record["total"], record["feasible"]) == \
        (2, 61, 61)
    lines[1] = json.dumps({**record, **edit}, sort_keys=True) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(InvalidInstance, match="line 2"):
        scan_conjecture(7, checkpoint=str(path))


@pytest.mark.parametrize("edit", [
    {"shard": True},
    {"failures": [[True, 2, 2]], "feasible": 88},   # 3 orderings of (1, 2, 2)
])
def test_checkpoint_bool_is_not_an_int(tmp_path, edit):
    """A JSON bool equals 1 in Python, so on shard 1's line it would pass
    for the shard, or for a failure's smallest entry."""
    path = tmp_path / "scan.jsonl"
    scan_conjecture(7, checkpoint=str(path))
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[0])
    assert (record["shard"], record["total"], record["feasible"]) == \
        (1, 91, 91)
    lines[0] = json.dumps({**record, **edit}, sort_keys=True) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(InvalidInstance, match="line 1"):
        scan_conjecture(7, checkpoint=str(path))


def test_consistent_checkpoint_failure_is_trusted(tmp_path):
    """A record that agrees with its shard is taken as written, failures
    included: the loader checks counts, not verdicts."""
    path = tmp_path / "scan.jsonl"
    scan_conjecture(7, checkpoint=str(path))
    lines = path.read_text().splitlines(keepends=True)
    record = {**json.loads(lines[1]), "failures": [[2, 2, 3]],
              "feasible": 58}
    lines[1] = json.dumps(record, sort_keys=True) + "\n"
    path.write_text("".join(lines))
    want = ScanReport(7, "nonzero", 216, 213, ((2, 2, 3),))
    assert scan_conjecture(7, checkpoint=str(path)) == want
    assert path.read_text() == "".join(lines)


def test_scan_refuses_a_modulus_above_the_limit():
    """n = 10^6 and a sampled n = 100003 used to build n gcds and a fold
    table of phi(n)/2 rows of n entries before the first solve."""
    limit = conjectures.MAX_SCAN_MODULUS
    for n, kwargs in ((10 ** 6, {}), (100003, {"sample": 1, "seed": 1}),
                      (limit + 1, {"sample": 1, "seed": 1})):
        with pytest.raises(InvalidInstance,
                           match=rf"^modulus {n} is too big to scan "
                                 rf"\(at most {limit}\)$"):
            scan_conjecture(n, **kwargs)


def test_exhaustive_scan_refuses_too_many_folded_multisets():
    """Every exhaustive n <= 28 walks at most MAX_SCAN_MULTISETS folded
    multisets (m-multisets of the phi(n)/2 units below n/2, counted here
    by enumeration); n = 29, 31 and 33, with 20M, 78M and 2M, are refused
    before any work, and sample mode still runs."""
    limit = conjectures.MAX_SCAN_MULTISETS
    counts = {n: sum(1 for _ in itertools.combinations_with_replacement(
        range(len(units_mod(n)) // 2), n // 2)) for n in range(3, 29)}
    assert counts[23] == 352716 and counts[27] == 203490
    assert max(counts.values()) <= limit
    for n in (29, 31, 33):
        with pytest.raises(InvalidInstance,
                           match=rf"^an exhaustive scan mod {n} has more "
                                 rf"than {limit:,} folded multisets; use "
                                 r"sample mode \(--sample\)$"):
            scan_conjecture(n)
    assert scan_conjecture(29, sample=1, seed=1).instances_total == 1
