import json

import numpy as np

from lidskii import properties


def test_all_properties_pass_at_small_scale():
    results = properties.run_all(0, "small")
    assert [r.name for r in results] == [name for name, _, _ in properties.SUITES]
    failed = [r.name for r in results if not r.passed]
    assert failed == [], f"failing properties: {failed}"


def test_suite_json_is_byte_deterministic():
    a = json.dumps(properties.suite_json(3, "small"), sort_keys=True)
    b = json.dumps(properties.suite_json(3, "small"), sort_keys=True)
    assert a == b


def test_rejects_unknown_scale():
    import pytest

    with pytest.raises(ValueError):
        properties.run_all(0, "huge")


def test_individual_property_seed_isolation():
    m1 = properties.water_fill_margins(50, np.random.default_rng(5))
    m2 = properties.water_fill_margins(50, np.random.default_rng(5))
    assert m1.min() == m2.min()
    assert np.all(m1 >= 0)


def test_small_scale_fits_runtime_budget():
    import time

    t0 = time.perf_counter()
    properties.run_all(7, "small")
    assert time.perf_counter() - t0 < 60.0
