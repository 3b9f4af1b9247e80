import json

import numpy as np
import pytest

from lidskii import jsonio
from lidskii.frames import random_frame


def test_matrix_round_trip_bitwise():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    # through actual JSON text, as the CLI writes it
    text = json.dumps(jsonio.matrix_to_json(M))
    back = jsonio.matrix_from_json(json.loads(text))
    assert np.array_equal(back, M)


def test_matrix_json_diagnostics():
    with pytest.raises(ValueError):
        jsonio.matrix_from_json({"rows": 2, "cols": 2, "re": [1, 2, 3, 4]})
    with pytest.raises(ValueError):
        jsonio.matrix_from_json({"rows": 2, "cols": 2, "re": [1, 2, 3], "im": [0, 0, 0, 0]})
    with pytest.raises(ValueError):
        jsonio.matrix_from_json([1, 2, 3])


def test_frame_round_trip_bitwise():
    G = random_frame(3, [1.0, 0.5, 2.0, 1.5], 7)
    text = json.dumps(jsonio.frame_to_json(G))
    back = jsonio.frame_from_json(json.loads(text))
    assert np.array_equal(back.vectors, G.vectors)
    assert np.array_equal(back.norms, G.norms)


def test_frame_json_diagnostics():
    G = random_frame(2, [1.0, 1.0], 0)
    obj = jsonio.frame_to_json(G)
    del obj["a"]
    with pytest.raises(ValueError):
        jsonio.frame_from_json(obj)
    obj2 = jsonio.frame_to_json(G)
    obj2["vectors"][0]["rows"] = 3
    with pytest.raises(ValueError):
        jsonio.frame_from_json(obj2)


def test_load_json_reports_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\n  broken\n}")
    with pytest.raises(ValueError, match="line 2"):
        jsonio.load_json(p)


def test_certificate_serialization_embeds_witness():
    from lidskii import eig_orbit
    from lidskii.norms import frobenius

    cert = eig_orbit.certify_local(frobenius(), np.diag([3.0, 1.0]), np.diag([0.0, 2.0]))
    payload = jsonio.eig_certificate_to_json(cert, frobenius(), 1e-8, 0)
    assert payload["schema"] == "lidskii.certify-eig/1"
    assert payload["verdict"] == "not_local_min"
    witness = payload["descent_witness"]
    assert witness["kind"] == "givens"
    assert len(witness["ts"]) == len(witness["values"])
    assert witness["verified_drop"] > 0
    end = jsonio.matrix_from_json(witness["endpoint"])
    assert end.shape == (2, 2)
    text = jsonio.dumps(payload)
    assert json.loads(text) == json.loads(jsonio.dumps(payload))


@pytest.mark.parametrize("bad", [2.7, 2.0, True, "2", -1, None], ids=repr)
@pytest.mark.parametrize("field", ["rows", "cols", "d"])
def test_shape_fields_must_be_non_negative_integers(field, bad):
    """rows 2.7 was read as 2, true as 1 and "2" as 2, and d 2.9 as 2."""
    obj = jsonio.frame_to_json(random_frame(2, [1.0, 1.0], 0))
    target = obj if field == "d" else obj["vectors"][0]
    target[field] = bad
    with pytest.raises(ValueError, match=f"'{field}' must be a non-negative integer"):
        jsonio.frame_from_json(json.loads(json.dumps(obj)))
