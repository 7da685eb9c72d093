import json

import numpy as np
import pytest

from qcwb.qc_model import canonical_generators
from qcwb.serialize import (
    FormatError,
    dump_json,
    env_from_obj,
    matrix_from_obj,
    matrix_to_obj,
    triple_from_obj,
    triple_to_obj,
)

from conftest import random_matrix


class TestMatrixFormat:
    def test_roundtrip(self, rng):
        m = random_matrix(rng, 3)
        obj = matrix_to_obj(m)
        assert obj["dim"] == 3
        assert len(obj["entries"]) == 9
        np.testing.assert_array_equal(matrix_from_obj(obj), m)

    def test_row_major_order(self):
        m = np.array([[1, 2], [3, 4]], dtype=complex)
        obj = matrix_to_obj(m)
        assert obj["entries"][1] == [2.0, 0.0]  # entry (0, 1) comes second

    def test_json_stable(self, rng):
        m = random_matrix(rng, 2)
        text = dump_json(matrix_to_obj(m), None)
        assert json.loads(text)["dim"] == 2

    def test_rejects_ragged(self):
        with pytest.raises(FormatError):
            matrix_from_obj({"dim": 2, "entries": [[1.0, 0.0]] * 3})

    def test_rejects_non_finite(self):
        with pytest.raises(FormatError):
            matrix_from_obj({"dim": 1, "entries": [[float("nan"), 0.0]]})

    def test_rejects_bad_pair(self):
        with pytest.raises(FormatError):
            matrix_from_obj({"dim": 1, "entries": [[1.0]]})

    def test_rejects_non_integer_dim(self):
        with pytest.raises(FormatError):
            matrix_from_obj({"dim": 1.5, "entries": [[0.0, 0.0]]})

    def test_rejects_missing_keys(self):
        with pytest.raises(FormatError):
            matrix_from_obj({"entries": []})


class TestTripleFormat:
    def test_roundtrip(self):
        trip = canonical_generators(3)
        obj = triple_to_obj(trip.h, trip.x, trip.k)
        h, x, k = triple_from_obj(obj)
        np.testing.assert_array_equal(h, trip.h)
        np.testing.assert_array_equal(x, trip.x)
        np.testing.assert_array_equal(k, trip.k)

    def test_rejects_mixed_dims(self, rng):
        obj = {
            "h": matrix_to_obj(random_matrix(rng, 2)),
            "x": matrix_to_obj(random_matrix(rng, 2)),
            "k": matrix_to_obj(random_matrix(rng, 3)),
        }
        with pytest.raises(FormatError):
            triple_from_obj(obj)

    def test_rejects_missing_component(self, rng):
        with pytest.raises(FormatError):
            triple_from_obj({"h": matrix_to_obj(random_matrix(rng, 2))})


class TestEnvFormat:
    def test_reads_map(self, rng):
        m = random_matrix(rng, 2)
        env = env_from_obj({"h": matrix_to_obj(m)})
        np.testing.assert_array_equal(env["h"], m)

    def test_rejects_non_object(self):
        with pytest.raises(FormatError):
            env_from_obj([1, 2, 3])
