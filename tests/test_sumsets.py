"""Binomial thresholds and sumset cardinality sweeps over Z/(p^alpha)."""

import itertools
import math
import random

import pytest

from pairpack import sumsets
from pairpack.algebra import CycloInt, cyclotomic_poly
from pairpack.sumsets import (CDReport, beta, check_pair,
                              coefficient_divisibility_check,
                              elementary_symmetric_roots,
                              root_product_coefficients, sumset,
                              verify_cd_bound)


def test_beta_spot_values():
    assert beta(5, 2, 2) == 3
    assert beta(2, 2, 2) == 2
    assert beta(3, 1, 1) == 1
    assert beta(3, 2, 2) == 3
    assert beta(2, 2, 3) == 4
    # for r + s - 1 <= p the threshold is the classical r + s - 1
    for p in (5, 7):
        for r in range(1, 4):
            for s in range(1, 4):
                if r + s - 1 <= p:
                    assert beta(p, r, s) == r + s - 1
    with pytest.raises(ValueError):
        beta(4, 2, 2)
    with pytest.raises(ValueError):
        beta(5, 0, 1)


def ekp_beta(p, r, s):
    """Eliahou-Kervaire-Plagne closed form: the minimum over k of
    (ceil(r/p^k) + ceil(s/p^k) - 1) * p^k."""
    return min((-(-r // p ** k) - (-s // p ** k) - 1) * p ** k
               for k in range(max(r, s).bit_length() + 1))


def test_beta_matches_closed_form_and_is_symmetric():
    for p in (2, 3, 5, 7, 11):
        for r in range(1, 40):
            for s in range(1, 40):
                assert beta(p, r, s) == ekp_beta(p, r, s), (p, r, s)
                assert beta(p, r, s) == beta(p, s, r), (p, r, s)


def binomial_beta(p, r, s):
    """beta by its definition: the first n with p | C(n, k) for every k
    with n-r < k < s, from exact binomials."""
    for n in range(1, r + s):
        if all(math.comb(n, k) % p == 0 for k in range(max(0, n - r + 1), s)):
            return n


def test_beta_matches_binomial_definition():
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        for r in range(1, 41):
            for s in range(1, 41):
                assert beta(p, r, s) == binomial_beta(p, r, s), (p, r, s)


def digit_walk_beta(p, r, s):
    """beta by its definition read off base-p digits, for sizes where
    binomial_beta is too slow.  By Lucas' theorem p does not divide
    C(n, k) exactly when each base-p digit of k is at most n's, so n
    passes when the least such k above n-r is at least s.  No n below
    max(r, s) passes (k = 0 or k = n is a term), and n = r+s-1 does."""
    for n in range(max(r, s), r + s):
        # k: the least k >= lo with no digit above n's, units first; void
        # while carry is set, when only a higher digit can lift it to lo
        m, lo, k, unit, carry = n, n - r + 1, 0, 1, False
        while m or lo:
            m, top = divmod(m, p)
            lo, low = divmod(lo, p)
            k = (low + carry) * unit + (0 if carry else k)
            carry = low + carry > top
            unit *= p
        if carry or k >= s:
            return n


def test_beta_matches_digit_walk():
    for p in (2, 3, 5, 7):
        for r in range(1, 65):
            for s in range(1, 65):
                assert beta(p, r, s) == digit_walk_beta(p, r, s), (p, r, s)
    rng = random.Random(14)
    draws = [(rng.choice((2, 3, 5, 7, 11, 13)), rng.randrange(1, 1 << 10),
              rng.randrange(1, 1 << 10)) for _ in range(300)]
    top = 1 << 14
    draws += [(p, top - rng.randrange(300), top - rng.randrange(300))
              for p in (2, 3, 5)]
    for p, r, s in draws:
        assert beta(p, r, s) == digit_walk_beta(p, r, s), (p, r, s)


def test_sumset_basic():
    assert sumset((0, 1), (0, 1), 5) == (0, 1, 2)
    assert sumset((0, 2), (0, 2), 4) == (0, 2)
    assert sumset((3,), (4,), 5) == (2,)


def literal_pair(p, alpha, A, B):
    """One pair's report recomputed from a set of sums mod p^alpha."""
    mod = p ** alpha
    A, B = {a % mod for a in A}, {b % mod for b in B}
    sums = {(a + b) % mod for a in A for b in B}
    bound = beta(p, len(A), len(B))
    return {"p": p, "alpha": alpha, "A": sorted(A), "B": sorted(B),
            "sum": sorted(sums), "cardinality": len(sums), "beta": bound,
            "holds": len(sums) >= bound, "tight": len(sums) == bound}


def test_check_pair_matches_literal_recomputation():
    doc = check_pair(5, 1, (6, 1, 1), (0, 1))
    assert (doc["A"], doc["B"], doc["sum"]) == ([1], [0, 1], [1, 2])
    verdict = lambda doc: (doc["cardinality"], doc["beta"], doc["holds"],
                           doc["tight"])
    assert verdict(check_pair(5, 1, (0, 1), (0, 1))) == (3, 3, True, True)
    assert verdict(check_pair(2, 2, (0, 2), (0, 2))) == (2, 2, True, True)
    assert verdict(check_pair(5, 1, (0, 1, 2), (0, 1, 3)))[1:3] == (5, True)
    rng = random.Random(43)
    for p, alpha in ((2, 2), (5, 1), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)):
        mod = p ** alpha
        for _ in range(40):
            # negatives, elements of at least p^alpha and a repeat in each
            A = [rng.randrange(-2 * mod, 3 * mod)
                 for _ in range(rng.randrange(1, 7))]
            B = [rng.randrange(-2 * mod, 3 * mod)
                 for _ in range(rng.randrange(1, 7))]
            A.append(A[0] + mod)
            doc = check_pair(p, alpha, A, B)
            assert doc == literal_pair(p, alpha, A, B), (p, alpha, A, B)
            assert list(doc) == ["p", "alpha", "A", "B", "sum", "cardinality",
                                 "beta", "holds", "tight"]


@pytest.mark.parametrize("p, alpha, A, B, message", [
    (6, 0, (), (), "6 is not prime"),
    (5, 0, (), (), "alpha must be at least 1"),
    (3, 1 << 20, (), (), "Z/(3^1048576) is too big (it must have fewer "
                         "than 2^1048576 elements)"),
    (2, 1 << 21, (1,), (1,), "Z/(2^2097152) is too big (it must have fewer "
                             "than 2^1048576 elements)"),
    (5, 1, (), (0,), "subsets must be nonempty"),
    (5, 2, (0, 1), (), "subsets must be nonempty"),
], ids=["not-prime", "alpha-0", "bits-p3", "bits-p2", "empty-A", "empty-B"])
def test_check_pair_refusals_in_order(p, alpha, A, B, message):
    """Primality, then alpha, then the size of p^alpha before it is
    built, then the subsets."""
    with pytest.raises(ValueError) as exc:
        check_pair(p, alpha, A, B)
    assert str(exc.value) == message


def _mask(subset):
    return sum(1 << a for a in subset)


def _masks(pairs):
    return [(_mask(A), _mask(B)) for A, B in pairs]


def naive_sweep(p, alpha):
    """Every pair of nonempty subsets by itertools, as (A, B) bitmasks in
    ascending order: (pairs, violations, tight)."""
    mod = p ** alpha
    elems = range(mod)
    pairs = 0
    violations, tight = [], []
    for ra in range(1, mod + 1):
        for A in itertools.combinations(elems, ra):
            for rb in range(1, mod + 1):
                for B in itertools.combinations(elems, rb):
                    pairs += 1
                    card = len(sumset(A, B, mod))
                    bound = beta(p, ra, rb)
                    masks = (_mask(A), _mask(B))
                    if card < bound:
                        violations.append(masks)
                    elif card == bound:
                        tight.append(masks)
    return pairs, sorted(violations), sorted(tight)


def test_sweep_matches_naive_enumeration():
    for p, alpha in ((2, 1), (3, 1), (2, 2), (2, 3)):
        rep = verify_cd_bound(p, alpha, tight_cap=10 ** 6)
        want_pairs, want_viol, want_tight = naive_sweep(p, alpha)
        assert rep.pairs == want_pairs == (2 ** (p ** alpha) - 1) ** 2
        assert _masks(rep.violations) == want_viol == []
        assert rep.tight_count == len(want_tight)
        assert _masks(rep.tight) == want_tight


def test_sweep_lists_violations_in_order(monkeypatch):
    """Raise every bound by one and each tight pair becomes a violation."""
    monkeypatch.setattr(sumsets, "beta", lambda p, r, s: beta(p, r, s) + 1)
    for p, alpha in ((3, 1), (2, 2), (5, 1), (2, 3)):
        rep = verify_cd_bound(p, alpha)
        assert _masks(rep.violations) == naive_sweep(p, alpha)[2]


def literal_sweep(p, alpha, tight_cap):
    """The mask recurrence run for every A, A ascending outside and B
    ascending inside, as a CDReport: the reference for the orbit sweep."""
    size = p ** alpha
    full = (1 << size) - 1
    table = sumsets._beta_table(p, size)
    steps = [(B, B & (B - 1), (B & -B).bit_length() - 1, B.bit_count())
             for B in range(1, full + 1)]
    sums = [0] * (full + 1)
    violations = []
    tight = []
    tight_count = 0
    for A in range(1, full + 1):
        rots = [((A << b) | (A >> (size - b))) & full for b in range(size)]
        row = table[A.bit_count()]
        for B, rest, low, s in steps:
            acc = sums[B] = sums[rest] | rots[low]
            card = acc.bit_count()
            bound = row[s]
            if card < bound:
                violations.append((A, B))
            elif card == bound:
                tight_count += 1
                if len(tight) < tight_cap:
                    tight.append((A, B))
    unpack = lambda prs: tuple((sumsets._mask_to_set(a, size),
                                sumsets._mask_to_set(b, size))
                               for a, b in prs)
    return CDReport(p, alpha, full * full, unpack(violations), tight_count,
                    unpack(tight))


def test_orbit_sweep_matches_literal_sweep():
    """Cap 600 is above 2^size - 1 for Z/(5), Z/(7) and Z/(8), so the
    tight list there needs literal passes past A = {0}."""
    for p, alpha in ((5, 1), (7, 1), (2, 3), (3, 2), (11, 1)):
        want = literal_sweep(p, alpha, 600)
        for cap in (0, 3, 600):
            rep = verify_cd_bound(p, alpha, tight_cap=cap)
            assert rep == CDReport(want.p, want.alpha, want.pairs,
                                   want.violations, want.tight_count,
                                   want.tight[:cap])


def test_sweep_lists_violations_against_literal_sweep(monkeypatch):
    """With every bound raised by one, the pairs where both sizes exceed
    size/2 and the swapped pairs violate too, and the listing must still
    match the literal sweep."""
    monkeypatch.setattr(sumsets, "beta", lambda p, r, s: beta(p, r, s) + 1)
    for p, alpha in ((7, 1), (3, 2)):
        want = literal_sweep(p, alpha, 10)
        assert want.violations
        assert verify_cd_bound(p, alpha, tight_cap=10) == want


def test_sweep_with_an_asymmetric_bound(monkeypatch):
    """The sweep reads T(r, s) for |A| > size/2 off T(s, r), which needs
    beta(r, s) = beta(s, r); a bound without that symmetry is refused
    rather than counted wrong."""
    def lopsided(p, r, s):
        return beta(p, r, s) - (r > s and r + s - 1 > p)
    monkeypatch.setattr(sumsets, "beta", lopsided)
    for p, alpha in ((5, 1), (7, 1), (2, 3)):
        with pytest.raises(ArithmeticError, match="not symmetric"):
            verify_cd_bound(p, alpha, tight_cap=40)


def vosper_tight_count(p):
    """Tight pairs over Z/(p), p prime, by Vosper's theorem: sizes with
    r + s > p or min(r, s) = 1 are always tight, r + s = p (r, s >= 2)
    gives C(p, r) * p tight pairs, and every other (r, s) gives the
    p^2 (p - 1) / 2 pairs of progressions with a common difference."""
    total = 0
    for r in range(1, p + 1):
        for s in range(1, p + 1):
            if r + s > p or min(r, s) == 1:
                total += math.comb(p, r) * math.comb(p, s)
            elif r + s == p:
                total += math.comb(p, r) * p
            else:
                total += p * p * (p - 1) // 2
    return total


def test_vosper_oracle():
    for p in (2, 3, 5, 7, 11, 13):
        assert verify_cd_bound(p, 1, tight_cap=0).tight_count == \
            vosper_tight_count(p), p
    assert vosper_tight_count(17) == 7430025577
    assert vosper_tight_count(19) == 119796594671


def test_exhaustive_z13():
    rep = verify_cd_bound(13, 1, tight_cap=0)
    assert rep.pairs == (2 ** 13 - 1) ** 2
    assert rep.violations == ()
    assert rep.tight_count == 28718665


@pytest.mark.parametrize("p, alpha", [(23, 1), (5, 2), (31, 1), (2, 7),
                                      (3, 5), (31, 2), (2, 10), (2, 40)])
def test_exhaustive_sweep_refuses_a_group_above_the_limit(p, alpha):
    """Z/(23) would take some 8,290 passes, Z/(25) would pack 2^24 fields
    into one integer and Z/(31) 2^30; the sweep names sample mode
    instead, and sample mode still runs up to MAX_SAMPLE_SIZE = 2^14.
    Above that sample mode is refused too, and neither mode builds
    anything first (Z/(2^40) used to die in a MemoryError)."""
    size = p ** alpha
    assert size > sumsets.MAX_SWEEP_SIZE
    with pytest.raises(ValueError, match="sample mode"):
        verify_cd_bound(p, alpha)
    if size <= sumsets.MAX_SAMPLE_SIZE:
        assert verify_cd_bound(p, alpha, sample=5, seed=1).pairs == 5
    else:
        with pytest.raises(ValueError, match="sampled sweep"):
            verify_cd_bound(p, alpha, sample=5, seed=1)


def test_sweep_accepts_and_ignores_jobs():
    a = verify_cd_bound(3, 1)
    b = verify_cd_bound(3, 1, jobs=2)
    assert a.to_json() == b.to_json()


def test_tight_cap_keeps_exact_count():
    uncapped = verify_cd_bound(2, 2, tight_cap=10 ** 6)
    capped = verify_cd_bound(2, 2, tight_cap=3)
    assert capped.tight_count == uncapped.tight_count > 3
    assert len(capped.tight) == 3
    assert capped.tight == uncapped.tight[:3]
    assert verify_cd_bound(2, 2, tight_cap=0).tight == ()
    with pytest.raises(ValueError):
        verify_cd_bound(2, 2, tight_cap=-1)


def test_sample_mode():
    a = verify_cd_bound(3, 2, sample=500, seed=99)
    b = verify_cd_bound(3, 2, sample=500, seed=99)
    assert a.to_json() == b.to_json()
    assert a.pairs == 500
    assert a.violations == ()
    with pytest.raises(ValueError):
        verify_cd_bound(3, 2, sample=10)
    with pytest.raises(ValueError):
        verify_cd_bound(4, 1)
    for size in (0, -4):
        with pytest.raises(ValueError):
            verify_cd_bound(3, 1, sample=size, seed=1)


def reference_sample(p, alpha, sample, seed, tight_cap):
    """Sample mode replayed from the same draws, each pair decoded to
    sets and measured with sumset() and beta()."""
    size = p ** alpha
    full = (1 << size) - 1
    rng = random.Random(seed)
    violations, tight = [], []
    for _ in range(sample):
        A = rng.randrange(1, full + 1)
        B = rng.randrange(1, full + 1)
        As = tuple(a for a in range(size) if A >> a & 1)
        Bs = tuple(b for b in range(size) if B >> b & 1)
        card = len(sumset(As, Bs, size))
        bound = sumsets.beta(p, len(As), len(Bs))
        if card < bound:
            violations.append((A, B))
        elif card == bound:
            tight.append((A, B))
    unpack = lambda prs: tuple((sumsets._mask_to_set(a, size),
                                sumsets._mask_to_set(b, size))
                               for a, b in sorted(prs))
    return CDReport(p, alpha, sample, unpack(violations), len(tight),
                    unpack(tight)[:tight_cap])


SAMPLED_SHAPES = ((3, 1), (2, 2), (3, 2), (13, 1), (2, 4), (17, 1))


def test_sample_mode_matches_reference():
    for p, alpha in SAMPLED_SHAPES:
        for seed in (1, 2, 7, 2024):
            want = reference_sample(p, alpha, 300, seed, 8)
            assert verify_cd_bound(p, alpha, sample=300, seed=seed,
                                   tight_cap=8) == want, (p, alpha, seed)


def test_sample_mode_matches_reference_on_wide_masks():
    """Masks of 32 bits, of two words (37 and 64 bits) and of 1024 bits
    are drawn as randrange draws them."""
    for p, alpha, sample in ((2, 5, 300), (37, 1, 300), (2, 6, 300),
                             (2, 10, 10)):
        for seed in (1, 2, 7):
            want = reference_sample(p, alpha, sample, seed, 8)
            assert verify_cd_bound(p, alpha, sample=sample, seed=seed,
                                   tight_cap=8) == want, (p, alpha, seed)


def test_sample_mode_lists_violations_in_order(monkeypatch):
    tight = {shape: reference_sample(*shape, 300, 5, 10 ** 6).tight
             for shape in SAMPLED_SHAPES}
    monkeypatch.setattr(sumsets, "beta", lambda p, r, s: beta(p, r, s) + 1)
    for (p, alpha), want in tight.items():
        rep = verify_cd_bound(p, alpha, sample=300, seed=5)
        assert rep.violations == want


def test_sample_mode_reads_only_the_drawn_bounds(monkeypatch):
    """A sampled sweep asks beta for the (|A|, |B|) it draws, not for
    the whole (p^alpha)^2 table."""
    asked = []

    def recorder(p, r, s):
        asked.append((r, s))
        return beta(p, r, s)

    monkeypatch.setattr(sumsets, "beta", recorder)
    verify_cd_bound(2, 6, sample=3, seed=1)
    rng = random.Random(1)
    draws = [(rng.randrange(1, 2 ** 64).bit_count(),
              rng.randrange(1, 2 ** 64).bit_count()) for _ in range(3)]
    assert sorted(set(asked)) == sorted(set(draws))
    assert len(asked) == len(set(asked))


def test_sample_mode_cap_keeps_exact_count():
    uncapped = verify_cd_bound(3, 2, sample=4000, seed=3, tight_cap=10 ** 6)
    assert uncapped.tight_count == len(uncapped.tight) > 40
    for cap in (0, 1, 40):
        capped = verify_cd_bound(3, 2, sample=4000, seed=3, tight_cap=cap)
        assert capped.tight_count == uncapped.tight_count
        assert capped.tight == uncapped.tight[:cap]


@pytest.mark.parametrize("p, alpha, sample", [
    (2, 1, 400),      # 2 bits: a quarter of the draws are redrawn
    (31, 1, 300),     # 31 bits, one word
    (2, 5, 300),      # 32 bits: the whole word, no shift
    (37, 1, 300),     # two words, the top one shifted
    (2, 6, 300),      # two whole words
    (67, 1, 300),     # three words
    (2, 7, 100),      # four words
])
def test_sample_draw_layout_matches_reference(p, alpha, sample):
    """Masks are cut from one getrandbits call per chunk, a word count
    per mask, as one randrange call per mask would draw them."""
    for seed in (1, 11):
        assert verify_cd_bound(p, alpha, sample=sample, seed=seed,
                               tight_cap=8) == \
            reference_sample(p, alpha, sample, seed, 8), seed


def _seam_seeds(size, redrawn_at_seam):
    """Seeds whose draw stream, one randrange(1, 2^size) per mask, has a
    redraw right after the first chunk's last mask (redrawn_at_seam) or
    right before it (otherwise)."""
    seam = 2 * sumsets.PAIR_CHUNK          # masks in the first chunk
    found = []
    for seed in range(1, 400):
        bits = random.Random(seed).getrandbits
        kept, redrawn = 0, []
        while kept <= seam:
            if bits(size) == (1 << size) - 1:
                redrawn.append(kept)       # redrawn before mask `kept`
            else:
                kept += 1
        if (seam if redrawn_at_seam else seam - 1) in redrawn:
            found.append(seed)
        if len(found) == 2:
            return found
    raise AssertionError("no seed puts a redraw at the seam")


@pytest.mark.parametrize("p, alpha", [(2, 1), (3, 1)])
@pytest.mark.parametrize("redrawn_at_seam", [True, False])
def test_sample_chunk_seams_match_reference(p, alpha, redrawn_at_seam):
    """Over two chunks, with a redraw at the first chunk's end, the
    draws, counts and listed pairs are those of one draw at a time."""
    sample = 2 * sumsets.PAIR_CHUNK + 300
    for seed in _seam_seeds(p ** alpha, redrawn_at_seam):
        assert verify_cd_bound(p, alpha, sample=sample, seed=seed,
                               tight_cap=40) == \
            reference_sample(p, alpha, sample, seed, 40), seed


def test_sample_tight_cap_across_chunks():
    """tight_cap 0, 1 and more than the tight count, over three chunks."""
    sample = 2 * sumsets.PAIR_CHUNK + 500
    for p, alpha in ((13, 1), (2, 4)):
        want = reference_sample(p, alpha, sample, 9, 10 ** 6)
        assert 1 < want.tight_count < 10 ** 6
        for cap in (0, 1, 10 ** 6):
            rep = verify_cd_bound(p, alpha, sample=sample, seed=9,
                                  tight_cap=cap)
            assert rep == CDReport(want.p, want.alpha, want.pairs,
                                   want.violations, want.tight_count,
                                   want.tight[:cap]), (p, alpha, cap)


def test_sample_violations_across_chunks(monkeypatch):
    """With every bound raised by one, each tight pair of every chunk
    is listed as a violation, in (A, B) order over the whole sample."""
    sample = 2 * sumsets.PAIR_CHUNK + 500
    tight = {shape: reference_sample(*shape, sample, 4, 10 ** 6).tight
             for shape in ((13, 1), (2, 4), (2, 1))}
    monkeypatch.setattr(sumsets, "beta", lambda p, r, s: beta(p, r, s) + 1)
    for (p, alpha), want in tight.items():
        rep = verify_cd_bound(p, alpha, sample=sample, seed=4, tight_cap=3)
        assert rep.violations == want
        assert rep == reference_sample(p, alpha, sample, 4, 3)


@pytest.mark.parametrize("p, alpha", [(13, 1), (2, 4), (37, 1), (257, 1)])
def test_sample_matches_reference_over_three_chunks(p, alpha, monkeypatch):
    """5,000 pairs in three chunks, against the literal replay: the cut
    on A's top byte and the keys kept from chunk to chunk give the same
    tight pairs for every cap, and with every bound raised by one each
    tight pair of every chunk is listed as a violation.  Z/(37) masks
    take two words, and counts in Z/(257) go above 255."""
    sample = 5000
    want = reference_sample(p, alpha, sample, 3, 10 ** 6)
    assert 32 < want.tight_count < sample
    for cap in (0, 1, 5, 32, 10 ** 6):
        rep = verify_cd_bound(p, alpha, sample=sample, seed=3, tight_cap=cap)
        assert rep == CDReport(want.p, want.alpha, want.pairs, (),
                               want.tight_count, want.tight[:cap]), cap
    monkeypatch.setattr(sumsets, "beta", lambda p, r, s: beta(p, r, s) + 1)
    rep = verify_cd_bound(p, alpha, sample=sample, seed=3, tight_cap=5)
    assert rep.violations == want.tight
    if p ** alpha < 256:       # the replay of Z/(257) takes seconds
        assert rep == reference_sample(p, alpha, sample, 3, 5)


def test_listed_tight_pairs_past_one_chunk():
    """An exhaustive listing longer than a chunk runs its chunks across
    several A and still lists the pairs in (A, B) order."""
    cap = sumsets.PAIR_CHUNK + 700
    want = literal_sweep(2, 3, cap)
    assert len(want.tight) == cap
    assert verify_cd_bound(2, 3, tight_cap=cap) == want


@pytest.mark.parametrize("kwargs, name", [
    ({"sample": 2.5, "seed": 1}, "sample size"),
    ({"sample": True, "seed": 1}, "sample size"),
    ({"sample": "3", "seed": 1}, "sample size"),
    ({"tight_cap": 2.5}, "tight_cap"),
    ({"tight_cap": True}, "tight_cap"),
    ({"tight_cap": "3"}, "tight_cap"),
])
def test_sweep_refuses_a_sample_or_cap_that_is_not_an_int(kwargs, name):
    """2.5 used to make 2 draws and report "pairs": 2, and True 1."""
    with pytest.raises(ValueError, match=f"^{name} .* is not an int"):
        verify_cd_bound(2, 2, **kwargs)


def test_seed_needs_sample():
    with pytest.raises(ValueError):
        verify_cd_bound(3, 1, seed=5)


def test_identical_sweeps_give_equal_reports():
    assert verify_cd_bound(2, 2) == verify_cd_bound(2, 2)


def test_report_json():
    rep = CDReport(2, 2, 225, (), 5, (((0,), (1, 2)),))
    doc = rep.to_json()
    assert doc["tight"] == [[[0], [1, 2]]]
    assert "seconds" not in doc


def test_root_product_known_coefficients():
    one = CycloInt.from_int(5, 1)
    coeffs = root_product_coefficients(5, (1, 2, 3, 4))
    # prod over the primitive fifth roots is 1 + x + x^2 + x^3 + x^4
    assert len(coeffs) == 5
    for c in coeffs:
        assert c == one

    coeffs = root_product_coefficients(5, range(5))   # x^5 - 1
    assert coeffs[0] == -one
    assert coeffs[5] == one
    for c in coeffs[1:5]:
        assert c.is_zero()


def test_elementary_symmetric_sums():
    sigma1 = elementary_symmetric_roots(5, (1, 2, 3, 4), 1)
    assert sigma1 == CycloInt.from_int(5, -1)
    assert elementary_symmetric_roots(5, (1, 2), 0) == CycloInt.from_int(5, 1)


def product_by_cyclo_arithmetic(order, exponents):
    """prod_i (x - w^(e_i)) by CycloInt products, one factor at a time."""
    coeffs = [CycloInt.from_int(order, 1)]
    for e in exponents:
        root = CycloInt.root_power(order, e)
        nxt = [CycloInt(order)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * root
        coeffs = nxt
    return coeffs


def sigma_by_cyclo_arithmetic(order, exponents, j):
    """sigma_j of the w^(e_i) as a CycloInt sum of root powers."""
    total = CycloInt(order)
    for combo in itertools.combinations(tuple(exponents), j):
        total = total + CycloInt.root_power(order, sum(combo))
    return total


def test_root_sums_match_cyclo_arithmetic():
    """The rotated and counted coefficient lists give the very
    representatives that CycloInt products and sums give."""
    rng = random.Random(47)
    for order in (5, 8, 9, 16, 27):
        for _ in range(8):
            exps = [rng.randrange(-order, 2 * order)
                    for _ in range(rng.randrange(0, 8))]
            got = root_product_coefficients(order, exps)
            want = product_by_cyclo_arithmetic(order, exps)
            assert [c.coeffs for c in got] == [c.coeffs for c in want]
            for j in range(len(exps) + 2):
                assert (elementary_symmetric_roots(order, exps, j).coeffs
                        == sigma_by_cyclo_arithmetic(order, exps, j).coeffs)


def test_coefficient_divisibility_check():
    assert coefficient_divisibility_check(2, 2, range(4))
    assert coefficient_divisibility_check(3, 2, range(9))
    rng = random.Random(41)
    for _ in range(30):
        p, alpha = rng.choice(((2, 2), (2, 3), (3, 2)))
        order = p ** alpha
        exps = [rng.randrange(order) for _ in range(rng.randrange(1, 6))]
        assert coefficient_divisibility_check(p, alpha, exps)


def test_coefficient_divisibility_check_refuses_a_composite_p():
    """Z/(9) as p = 9 used to read False where p = 3, alpha = 2 reads
    True, and p = 4 read False too; a p that is not prime is refused."""
    assert coefficient_divisibility_check(3, 2, (0, 3, 6))
    for p, alpha, exps in ((9, 1, (0, 3, 6)), (4, 1, (0, 2)), (6, 2, ())):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            coefficient_divisibility_check(p, alpha, exps)


def test_coefficient_divisibility_check_compares_coefficient_lists(
        monkeypatch):
    """sigma plus the coefficients of Phi_order is the same element of
    Z[w] with another representative; the product's lists are exactly the
    signed sigma lists, so the check must catch the difference."""
    real = sumsets.elementary_symmetric_roots

    def shifted(order, exponents, j):
        coeffs = list(real(order, exponents, j).coeffs)
        for i, c in enumerate(cyclotomic_poly(order)):
            coeffs[i] += c
        return CycloInt(order, coeffs)

    exps = (1, 2, 5)
    assert coefficient_divisibility_check(2, 3, exps)
    monkeypatch.setattr(sumsets, "elementary_symmetric_roots", shifted)
    assert shifted(8, exps, 1) == real(8, exps, 1)
    assert not coefficient_divisibility_check(2, 3, exps)
