from arrowcat import selftest
from arrowcat.rings import GF


def test_internal_error_is_a_counted_failure(monkeypatch):
    def broken(*args):
        raise AssertionError("invariant broken")

    monkeypatch.setattr(selftest, "hcomp2", broken)
    broken_suite, snf = selftest.run_all(seed=7, cases=3, only={"interchange", "snf"})
    assert (broken_suite.name, broken_suite.cases, broken_suite.failures) == ("interchange", 3, 3)
    assert broken_suite.notes == ["internal error: invariant broken"]
    assert (snf.name, snf.cases, snf.failures, snf.notes) == ("snf", 3, 0, [])


def test_a_refused_value_is_a_counted_failure(monkeypatch):
    """A 2-layer constructor's ValueError fails its case, not the battery."""
    def refused(*args):
        raise ValueError("square does not commute")

    monkeypatch.setattr(selftest, "hcomp2", refused)
    refused_suite, snf = selftest.run_all(seed=7, cases=3, only={"interchange", "snf"})
    assert (refused_suite.cases, refused_suite.failures) == (3, 3)
    assert refused_suite.notes == ["internal error: square does not commute"]
    assert (snf.name, snf.cases, snf.failures, snf.notes) == ("snf", 3, 0, [])


def _recorder(monkeypatch, name, seen, variant):
    def record(*args):
        seen.add(variant(*args))
        raise AssertionError("recorded")

    monkeypatch.setattr(selftest, name, record)


def test_every_ring_gets_every_variant(monkeypatch, bounds):
    kinds, lengths, part2 = set(), set(), set()
    _recorder(monkeypatch, "random_shortfive_instance", kinds, lambda rng, ring, b, kind: (ring, kind))
    _recorder(monkeypatch, "random_complex_extension", lengths, lambda rng, ring, n, b: (ring, n))
    selftest.suite_short_five(1, 8, bounds)
    selftest.suite_les(1, 4, bounds)
    assert kinds == {(ring, kind) for ring in selftest.ALL_RINGS for kind in ("random", "equivalence")}
    assert lengths == {(ring, n) for ring in (GF(2), GF(3)) for n in (3, 4)}
    _recorder(monkeypatch, "check_3x3_part2", part2, lambda d: d.f[0].top.ring)
    selftest.suite_3x3(1, 4, bounds)
    assert part2 == set(selftest.FIELD_RINGS)


def test_regularity_goodness_runs_the_cases_asked(monkeypatch, bounds):
    for n in (1, 4):
        result = selftest.suite_regularity_goodness(3, n, bounds)
        assert (result.cases, result.failures) == (n, 0)
        assert result.notes == ["goodness violations over Z (recorded): 0"]

    def broken(*args):
        raise AssertionError("invariant broken")

    # the four field cases fail through the driver, the one Z square on its own
    monkeypatch.setattr(selftest, "goodness_comparisons", broken)
    result = selftest.suite_regularity_goodness(3, 4, bounds)
    assert (result.cases, result.failures) == (4, 5)
    assert result.notes == ["internal error: invariant broken", "goodness violations over Z (recorded): 0"]
