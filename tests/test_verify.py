import random

from ratpark import Point, Word, contraction_certificate
from ratpark import action, verify
from ratpark.verify import DEFAULT_PAIRS, LIPSCHITZ_TRIALS, run_verify

# passed assertions of every suite of the default run_verify(), in run
# order; no suite fails
REFERENCE_PASSED = (
    ("reference-words", 8),
    ("reference-action", 138),
    ("reference-filters", 19),
    ("reference-zeta", 133),
    ("reference-qt", 4),
    ("reference-sweep", 7),
    ("reference-affine", 23),
)
PAIR_SUITES = (
    "counts", "solver-vs-parking", "zeta-bijection", "equidistribution",
    "sweep", "affine-agreement", "tuple-validity", "graph-reachability",
    "lipschitz", "divergence", "oracle",
)
# one count per PAIR_SUITES entry; None where the suite does not run
PAIR_PASSED = {
    (2, 3): (8, 16, 11, 3, 8, 18, 12, 1, 1, 4, 5),
    (3, 2): (7, 15, 9, 3, 8, 15, 9, 1, 1, 6, 4),
    (2, 5): (20, 64, 35, 3, 11, 57, 48, 1, 1, None, 17),
    (5, 2): (9, 35, 13, 3, 11, 24, 15, 1, 1, None, 6),
    (3, 4): (31, 135, 57, 3, 17, 96, 81, 1, 1, 54, 29),
    (4, 3): (20, 96, 35, 3, 17, 63, 48, 1, 1, 48, 17),
    (3, 5): (85, 405, 165, 3, 23, 264, 243, 1, 1, None, 87),
    (5, 3): (29, 175, 53, 3, 23, 96, 75, 1, 1, None, 27),
    (4, 5): (260, 1536, 515, 3, 44, 810, 768, 1, 1, None, 272),
    (5, 4): (129, 875, 253, 3, 44, 417, 375, 1, 1, None, 133),
}


def test_default_verify_counts_are_pinned(default_verify_report):
    expected = list(REFERENCE_PASSED)
    for (m, n), counts in PAIR_PASSED.items():
        expected += [
            (f"{suite} ({m},{n})", passed)
            for suite, passed in zip(PAIR_SUITES, counts)
            if passed is not None
        ]
    report = default_verify_report
    assert [(s.name, s.passed, s.failed) for s in report.suites] == [
        (name, passed, 0) for name, passed in expected
    ]
    assert (report.passed, report.failed) == (9927, 0)


def test_lipschitz_draws_match_randint(monkeypatch):
    # the suite draws each coordinate as randrange(2*span + 1) - span; its
    # trials must be those that randint(-span, span) gives from the same
    # seed, drawn in the same interleaved order
    trials = []
    monkeypatch.setattr(verify, "LIPSCHITZ_TRIALS", 500)
    monkeypatch.setattr(
        verify, "_contracts", lambda *trial: trials.append(trial) or True
    )
    for m, n in DEFAULT_PAIRS:
        span = m * n + 5
        for seed in range(5):
            trials.clear()
            rng = random.Random(seed)
            verify._suite_lipschitz(verify.SuiteResult(""), m, n, rng)
            ref = random.Random(seed)
            expected = []
            for _ in range(500):
                x = sorted(ref.randint(-span, span) for _ in range(m))
                y = sorted(ref.randint(-span, span) for _ in range(m))
                letters = [ref.randrange(m) for _ in range(n)]
                expected.append((x, y, letters, m, n))
            assert trials == expected, (m, n, seed)
            assert rng.getstate() == ref.getstate()


def test_lipschitz_stream_carries_across_pairs(monkeypatch):
    # run_verify hands one generator from pair to pair, so the second
    # pair's trials continue the first pair's stream
    pairs = ((3, 4), (5, 2))
    trials = []
    monkeypatch.setattr(verify, "LIPSCHITZ_TRIALS", 300)
    monkeypatch.setattr(
        verify, "_contracts", lambda *trial: trials.append(trial) or True
    )
    for seed in range(3):
        trials.clear()
        run_verify(pairs=pairs, seed=seed)
        ref = random.Random(seed)
        expected = []
        for m, n in pairs:
            span = m * n + 5
            for _ in range(300):
                x = sorted(ref.randint(-span, span) for _ in range(m))
                y = sorted(ref.randint(-span, span) for _ in range(m))
                letters = [ref.randrange(m) for _ in range(n)]
                expected.append((x, y, letters, m, n))
        assert trials == expected, seed


def _lopsided_act(xs, letters, add):
    # keeps the kernel's contract, a sorted list whose sum grows by add per
    # letter, but not its 1-Lipschitz property: a point with an odd first
    # coordinate takes every add on its largest coordinate, any other point
    # on its smallest, so some pairs move apart and some do not
    slot = -1 if xs[0] % 2 else 0
    for _ in letters:
        xs[slot] += add
    xs.sort()


def _double_act(xs, letters, add):
    xs[:] = [2 * c for c in xs]


def _translate_act(xs, letters, add):
    # moves every coordinate alike, so no norm changes
    xs[:] = [c + add for c in xs]


def test_raw_lipschitz_verdict_matches_the_certificate(monkeypatch):
    def verdicts(m, n, seed):
        rng = random.Random(seed)
        span = m * n + 5
        for _ in range(300):
            x = sorted(rng.randint(-span, span) for _ in range(m))
            y = sorted(rng.randint(-span, span) for _ in range(m))
            letters = [rng.randrange(m) for _ in range(n)]
            # _contracts acts on its lists in place
            raw = verify._contracts(list(x), list(y), letters, m, n)
            word_ = Word(m, n, tuple(letters))
            yield raw, contraction_certificate(word_, Point(tuple(x)), Point(tuple(y)))

    for m, n in ((3, 4), (5, 2)):
        assert all(raw and certified for raw, certified in verdicts(m, n, 1))
    # apply_word reaches the in-place kernel through action._apply_raw
    monkeypatch.setattr(verify, "_act", _lopsided_act)
    monkeypatch.setattr(action, "_act", _lopsided_act)
    for m, n in ((3, 4), (5, 2)):
        pairs = list(verdicts(m, n, 2))
        assert all(raw == certified for raw, certified in pairs)
        assert {raw for raw, _ in pairs} == {True, False}


def test_lipschitz_suite_fails_on_an_expanding_map(monkeypatch):
    monkeypatch.setattr(verify, "_act", _double_act)
    report = run_verify(pairs=((3, 4),))
    (suite,) = [s for s in report.suites if s.name == "lipschitz (3,4)"]
    assert suite.failed > 0
    assert suite.first_failure.startswith("contraction failures (3,4)")
    assert report.ok is False
    assert LIPSCHITZ_TRIALS == 10_000


def test_lipschitz_suite_fails_on_a_sum_keeping_expanding_map(monkeypatch):
    # _contracts compares sums of squared differences, which is exact only
    # for maps that raise both points' sums alike; a map that keeps that
    # contract and still pushes points apart must fail as often as the
    # full _norm comparison says: 3,878 of the 10,000 trials
    monkeypatch.setattr(verify, "_act", _lopsided_act)
    report = run_verify(pairs=((3, 4),))
    (suite,) = [s for s in report.suites if s.name == "lipschitz (3,4)"]
    assert suite.first_failure == "contraction failures (3,4): got 3878, expected 0"
    assert report.ok is False


def test_divergence_suite_fails_on_a_norm_preserving_map(monkeypatch):
    monkeypatch.setattr(verify, "_act", _translate_act)
    report = run_verify(pairs=((3, 4),))
    failed = {s.name: s for s in report.suites if s.failed}
    assert list(failed) == ["divergence (3,4)"]
    suite = failed["divergence (3,4)"]
    assert (suite.passed, suite.failed) == (0, 54)
    assert suite.first_failure.startswith("norm did not grow under ")
    assert report.ok is False


def test_equal_builds_its_message_only_on_failure():
    class Loud:
        reprs = 0

        def __init__(self, value):
            self.value = value

        def __eq__(self, other):
            return self.value == other.value

        def __repr__(self):
            Loud.reprs += 1
            return f"Loud({self.value})"

    result = verify.SuiteResult("s")
    assert result.equal(Loud(1), Loud(1), "same")
    assert Loud.reprs == 0
    assert not result.equal(Loud(1), Loud(2), "differ")
    assert not result.equal(Loud(3), Loud(4), "later")
    assert (result.passed, result.failed) == (1, 2)
    assert result.first_failure == "differ: got Loud(1), expected Loud(2)"
