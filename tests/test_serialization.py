import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qaoa_mimo import cli, jsonio
from qaoa_mimo.rng import random_spins, standard_normals, substream


class TestCanonicalJson:
    def test_floats_round_trip_exactly(self):
        gen = np.random.default_rng(0)
        values = list(gen.standard_normal(500) * 10.0 ** gen.integers(-12, 12, 500))
        text = jsonio.dumps(values)
        assert json.loads(text) == values

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_every_finite_float_round_trips_bit_exactly(self, value):
        parsed = json.loads(jsonio.dumps(value))
        assert isinstance(parsed, float)
        assert struct.pack("<d", parsed) == struct.pack("<d", value)

    def test_keys_sorted(self):
        assert jsonio.dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_nested_structures(self):
        obj = {"x": [1, 2.5, None, True, "s"], "y": {"z": [0.1]}}
        assert json.loads(jsonio.dumps(obj)) == obj

    def test_same_object_same_bytes(self):
        obj = {"a": 0.1 + 0.2, "b": [1e-300, -1e300]}
        assert jsonio.dumps(obj) == jsonio.dumps(obj)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            jsonio.dumps({"x": float("nan")})
        with pytest.raises(ValueError):
            jsonio.dumps([float("inf")])

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            jsonio.dumps({"x": object()})

    def test_format_float_17_digits(self):
        # shortest round-trip repr: never more than 17 significant digits
        assert jsonio.format_float(0.1) == "0.1"
        assert jsonio.format_float(0.30000000000000004) == "0.30000000000000004"
        assert jsonio.format_float(np.float64(2.0)) == "2.0"

    def test_literal_format(self):
        obj = {"b": [0.1, 1.0, -0.0, 1e16, 5e-324], "a": None}
        assert jsonio.dumps(obj) == '{"a":null,"b":[0.1,1.0,-0.0,1e+16,5e-324]}'

    def test_whole_floats_stay_floats(self):
        for value in (1.0, -0.0, 42.0, 1e16):
            parsed = json.loads(jsonio.dumps(value))
            assert isinstance(parsed, float)
            assert parsed == value


def test_cli_outputs_are_canonical(tmp_path):
    """Every record the CLI writes is already in dumps' canonical form."""
    def run(mode, **config):
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(config))
        assert cli.main([mode, "--config", str(path)]) == 0

    train, evaluate = str(tmp_path / "train.jsonl"), str(tmp_path / "eval.jsonl")
    init, results = str(tmp_path / "init.json"), tmp_path / "results"
    run("gen-instances", count=3, n_t=2, seed=1, out=train)
    run("train-init", instances=train, p=1, t_rounds=1, n_init=2, seed=2, out=init)
    run("gen-instances", count=2, n_t=3, seed=3, out=evaluate)
    run("compare", instances=evaluate, init=init, p=1, budget=8, seed=4, out=str(results))
    for path in (train, evaluate, init, results / "reports.jsonl", results / "summary.json"):
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines
        for line in lines:
            assert jsonio.dumps(json.loads(line)) == line


class TestStreams:
    def test_substream_reproducible(self):
        a = substream(123, 1).random(8)
        b = substream(123, 1).random(8)
        assert np.array_equal(a, b)

    def test_substreams_independent(self):
        a = substream(123, 1).random(8)
        b = substream(123, 2).random(8)
        c = substream(124, 1).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_box_muller_moments(self):
        z = standard_normals(substream(7, 1), 200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        assert abs((z**3).mean()) < 0.05  # symmetric

    def test_box_muller_odd_count(self):
        z = standard_normals(substream(7, 1), 7)
        assert z.shape == (7,)

    def test_random_spins_balanced(self):
        s = random_spins(substream(9, 2), 100_000)
        assert set(np.unique(s)) == {-1, 1}
        assert abs(s.mean()) < 0.02
