"""Checks of the benchmark's own arithmetic on tiny synthetic call trees."""

import types

import pytest

from job import flip_detection
from spans import Tracer, distinct_per_instance


def test_self_time_subtracts_direct_children_only():
    # outer [0, 12] calls inner twice: [1, 5] holding leaf [2, 3], and
    # [6, 10] holding leaf [7, 9].
    tracer = Tracer(clock=iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 9.0, 10.0, 12.0]).__next__)
    leaf = tracer.wrap(lambda: None, "leaf")
    inner = tracer.wrap(lambda: leaf(), "inner")

    def outer_body():
        inner()
        inner()

    tracer.wrap(outer_body, "outer")()
    stats = tracer.summary()
    assert stats["outer"] == {"calls": 1, "s": 12.0, "self_s": 4.0,
                              "p50_ms": 12e3, "p95_ms": 12e3}
    assert stats["inner"]["calls"] == 2
    assert stats["inner"]["s"] == 8.0
    assert stats["inner"]["self_s"] == 5.0
    assert stats["leaf"]["self_s"] == stats["leaf"]["s"] == 3.0
    assert (stats["leaf"]["p50_ms"], stats["leaf"]["p95_ms"]) == (1e3, 2e3)


def test_span_ends_when_the_call_raises():
    tracer = Tracer(clock=iter([0.0, 1.0, 3.0, 4.0]).__next__)

    def fail():
        raise ValueError("boom")

    failing = tracer.wrap(fail, "fail")
    with pytest.raises(ValueError):
        failing()
    tracer.wrap(lambda: None, "after")()
    stats = tracer.summary()
    assert stats["fail"]["s"] == 1.0
    assert tracer.span_parent[1] == -1  # the stack unwound


def test_instrument_rebinds_every_import_of_a_function_and_methods():
    def helper(x):
        return x + 1

    class Game:
        def value(self, mask):
            return helper(mask)

    home = types.ModuleType("home")
    home.helper = helper
    home.Game = Game
    user = types.ModuleType("user")
    user.helper = helper  # as after `from home import helper`
    tracer = Tracer()
    tracer.instrument([home, user], home, "helper", "home.helper")
    tracer.instrument([home, user], Game, "value", "home.value")
    assert user.helper is home.helper
    assert user.helper(1) == 2
    assert Game().value(3) == 4
    stats = tracer.summary()
    assert stats["home.helper"]["calls"] == 1
    assert stats["home.value"]["calls"] == 1


def test_unique_masks_are_counted_per_instance():
    class Utility:
        def utility_of_mask(self, mask):
            return float(mask)

    tracer = Tracer()
    tracer.instrument([], Utility, "utility_of_mask", "oracle.utility_of_mask",
                      distinct_per_instance("oracle.unique_masks"))
    a, b = Utility(), Utility()
    for mask in (1, 3, 1, 3, 7):
        a.utility_of_mask(mask)
    b.utility_of_mask(1)
    assert tracer.summary()["oracle.utility_of_mask"]["calls"] == 6
    assert tracer.counts["oracle.unique_masks"] == 4


def test_flip_detection_against_flipped_labels():
    kept = [True, False, False, True]
    noisy = [False, True, False, True]
    assert flip_detection(kept, noisy) == {"flip_recall": 0.5, "flip_precision": 0.5}
    assert flip_detection([True, True], [True, False]) == {"flip_recall": 0.0,
                                                           "flip_precision": 0.0}
