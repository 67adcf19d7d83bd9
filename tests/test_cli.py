import ast
import dataclasses
import glob
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from qaoa_mimo import cli
from qaoa_mimo.instances import (
    ChannelInstance,
    brute_force_detect,
    generate_instance,
    read_instances,
    write_instances,
)
from qaoa_mimo.simulator import SPLIT_QUBITS
from qaoa_mimo.warmstart import angle_bounds


def write_config(tmp_path, name, **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def make_identity_instance(x_true, seed=0):
    """Noise-free instance with H = I so y equals the transmitted symbols."""
    x = np.asarray(x_true, dtype=np.int64)
    n = x.size
    return ChannelInstance(
        n_t=n,
        n_r=n,
        h=np.eye(n),
        x_true=x,
        noise=np.zeros(n),
        y=x.astype(np.float64),
        noise_scale=0.0,
        seed=seed,
    )


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestGenInstances:
    def test_writes_requested_mix(self, tmp_path):
        out = tmp_path / "inst.jsonl"
        config = write_config(
            tmp_path, "gen.json", count=12, n_t=[2, 3], noise_scale=1.0, seed=5
        )
        assert cli.main(["gen-instances", "--config", config, "--out", str(out)]) == 0
        instances = read_instances(out)
        assert len(instances) == 12
        assert set(i.n_t for i in instances) <= {2, 3}
        assert all(i.n_r == i.n_t for i in instances)

    def test_fixed_n_r(self, tmp_path):
        out = tmp_path / "inst.jsonl"
        config = write_config(tmp_path, "gen.json", count=3, n_t=2, n_r=5, seed=5)
        cli.main(["gen-instances", "--config", config, "--out", str(out)])
        assert all(i.n_r == 5 for i in read_instances(out))

    def test_reruns_are_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        config = write_config(tmp_path, "gen.json", count=6, n_t=[2, 3], seed=42)
        cli.main(["gen-instances", "--config", config, "--out", str(out_a)])
        cli.main(["gen-instances", "--config", config, "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        plain, flagged = tmp_path / "plain.jsonl", tmp_path / "flagged.jsonl"
        config = write_config(tmp_path, "gen.json", count=2, n_t=2, seed=2)
        assert cli.main(["gen-instances", "--config", config, "--out", str(plain)]) == 0
        # the flag wins over any config seed, also one that is null or not a number
        for config_seed in (1, None, "abc"):
            config = write_config(tmp_path, "gen.json", count=2, n_t=2, seed=config_seed)
            argv = ["gen-instances", "--config", config, "--seed", "2", "--out", str(flagged)]
            assert cli.main(argv) == 0
            assert flagged.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("config_out", ["config.jsonl", None, 5], ids=["path", "null", "int"])
    def test_out_flag_wins_over_config_out(self, tmp_path, monkeypatch, config_out):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, "gen.json", count=2, n_t=2, seed=1, out=config_out)
        assert cli.main(["gen-instances", "--config", config, "--out", "flag.jsonl"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["flag.jsonl", "gen.json"]

    def test_missing_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        config = write_config(tmp_path, "gen.json", count=2, n_t=2)
        assert cli.main(["gen-instances", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and "'seed'" in err
        assert not out.exists()

    def test_bad_count_is_config_error(self, tmp_path):
        config = write_config(tmp_path, "gen.json", count=0, n_t=2, seed=1)
        assert cli.main(["gen-instances", "--config", config, "--out", "x.jsonl"]) == 1

    def test_empty_n_t_list_is_config_error(self, tmp_path):
        out = tmp_path / "x.jsonl"
        config = write_config(tmp_path, "gen.json", count=2, n_t=[], seed=1)
        assert cli.main(["gen-instances", "--config", config, "--out", str(out)]) == 1
        assert not out.exists()

    def test_negative_seed_flag_is_config_error(self, tmp_path):
        out = tmp_path / "x.jsonl"
        config = write_config(tmp_path, "gen.json", count=2, n_t=2)
        argv = ["gen-instances", "--config", config, "--seed", "-3", "--out", str(out)]
        assert cli.main(argv) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields",
        [
            {"count": 2.9, "n_t": 3},
            {"count": 2, "n_t": 2.7},
            {"count": 2, "n_t": True},
            {"count": 2, "n_t": "abc"},
            {"count": 1e30, "n_t": 2},
            {"count": "2", "n_t": 3},
            {"count": 2, "n_t": " 3 "},
            {"count": 2, "n_t": [2, "3"]},
        ],
        ids=["fractional-count", "fractional-n_t", "bool-n_t", "string-n_t", "huge-count",
             "numeric-string-count", "padded-string-n_t", "string-n_t-choice"],
    )
    def test_non_integer_value_is_config_error(self, tmp_path, fields):
        out = tmp_path / "x.jsonl"
        config = write_config(tmp_path, "gen.json", seed=1, **fields)
        assert cli.main(["gen-instances", "--config", config, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields", [{"count": 1e18, "n_t": 2}, {"count": 2, "n_t": 2, "n_r": 1e18}],
        ids=["count", "n_r"],
    )
    def test_oversized_file_is_config_error(self, tmp_path, capsys, fields):
        out = tmp_path / "x.jsonl"
        config = write_config(tmp_path, "gen.json", seed=1, **fields)
        assert cli.main(["gen-instances", "--config", config, "--out", str(out)]) == 1
        assert "generated values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_r", [None, 3])
    def test_generated_value_cap_is_inclusive(self, tmp_path, monkeypatch, n_r):
        # two instances; the worst n_t choice (3) has 9 + 3 + 6 values with n_r = 3
        total = 2 * 18
        config = write_config(tmp_path, "gen.json", count=2, n_t=[2, 3], n_r=n_r, seed=1)
        out = tmp_path / "x.jsonl"
        monkeypatch.setattr(cli, "MAX_GENERATED_VALUES", total - 1)
        assert cli.main(["gen-instances", "--config", config, "--out", str(out)]) == 1
        monkeypatch.setattr(cli, "MAX_GENERATED_VALUES", total)
        assert cli.main(["gen-instances", "--config", config, "--out", str(out)]) == 0

    def test_overflowing_noise_scale_is_config_error(self, tmp_path, capsys):
        # |z| <= 8.57 in standard_normals, so ||y||^2 stays finite up to a scale
        # near 5.5e152 for n_t = n_r = 2, and 1e200 can overflow it
        out = tmp_path / "x.jsonl"
        config = write_config(tmp_path, "gen.json", count=2, n_t=2, noise_scale=1e200, seed=1)
        assert cli.main(["gen-instances", "--config", config, "--out", str(out)]) == 1
        assert "noise_scale 1e+200 exceeds 5.53028e+152" in capsys.readouterr().err
        assert not out.exists()

    def test_large_safe_noise_scale_runs_detect(self, tmp_path):
        instances, init = tmp_path / "inst.jsonl", tmp_path / "init.json"
        gen = write_config(tmp_path, "gen.json", count=2, n_t=2, noise_scale=1e100, seed=1)
        assert cli.main(["gen-instances", "--config", gen, "--out", str(instances)]) == 0
        init.write_text(json.dumps({"p": 1, "gammas": [0.1], "betas": [0.2], "training_meta": {}}))
        config = write_config(
            tmp_path, "run.json", instances=str(instances), init=str(init), p=1, seed=1, budget=5
        )
        out = tmp_path / "out.jsonl"
        assert cli.main(["detect", "--config", config, "--out", str(out)]) == 0
        rows = read_jsonl(out)
        assert len(rows) == 2 and not any("error" in row for row in rows)

    def test_integral_float_values_accepted(self, tmp_path):
        out = tmp_path / "x.jsonl"
        config = write_config(tmp_path, "gen.json", count=2.0, n_t=[2.0, 3], seed=1)
        assert cli.main(["gen-instances", "--config", config, "--out", str(out)]) == 0
        assert len(read_instances(out)) == 2


class TestTopIndices:
    @pytest.mark.parametrize("kind", ["random", "all-tied", "rounded"])
    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_matches_stable_argsort(self, kind, n):
        gen = np.random.default_rng(n)
        probs = {
            "random": gen.random(1 << n),
            "all-tied": np.full(1 << n, 1.0 / (1 << n)),
            "rounded": np.round(gen.random(1 << n), 1),
        }[kind]
        for k in (1, 2, 8, (1 << n) - 1, 1 << n, (1 << n) + 5):
            expected = np.argsort(-probs, kind="stable")[:k]
            assert np.array_equal(cli._top_indices(probs, k), expected)


@pytest.mark.parametrize(
    "value", [True, float("nan"), float("inf"), "1e-3"], ids=["bool", "nan", "inf", "string"]
)
@pytest.mark.parametrize(
    "mode, key",
    [
        ("gen-instances", "noise_scale"),
        ("train-init", "kappa"),
        ("train-init", "gamma_max"),
        ("train-init", "beta_max"),
        ("detect", "tol"),
    ],
)
def test_bool_or_non_finite_float_is_config_error(tmp_path, mode, key, value):
    instances = tmp_path / "inst.jsonl"
    write_instances(instances, [make_identity_instance([1, -1], seed=5)])
    fields = {"count": 2, "n_t": 2} if mode == "gen-instances" else {"instances": str(instances)}
    config = write_config(tmp_path, "c.json", p=1, t_rounds=1, seed=1, **fields, **{key: value})
    out = tmp_path / "out"
    assert cli.main([mode, "--config", config, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("tol", [0, -1])
def test_non_positive_tol_is_config_error(tmp_path, capsys, tol):
    instances = tmp_path / "inst.jsonl"
    write_instances(instances, [make_identity_instance([1, -1], seed=5)])
    config = write_config(tmp_path, "d.json", instances=str(instances), p=1, seed=1, tol=tol)
    out = tmp_path / "out.jsonl"
    assert cli.main(["detect", "--config", config, "--out", str(out)]) == 1
    assert "'tol'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol, code", [(1e-200, 1), (1e-150, 0)])
def test_tol_is_refused_below_the_floor_and_runs_at_it(tmp_path, capsys, tol, code):
    # at 1e-200 the COBYLA port overflows on these instances: each run was an error row
    instances = tmp_path / "inst.jsonl"
    gen = write_config(tmp_path, "gen.json", count=2, n_t=3, noise_scale=1.0, seed=4)
    assert cli.main(["gen-instances", "--config", gen, "--out", str(instances)]) == 0
    config = write_config(tmp_path, "d.json", instances=str(instances), p=1, seed=1,
                          budget=2000, tol=tol)
    out = tmp_path / "out.jsonl"
    assert cli.main(["detect", "--config", config, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert "'tol' must be in [1e-150, 0.19634954084936207], got 1e-200" in err
        assert err.count("\n") == 1 and not out.exists()
    else:
        rows = read_jsonl(out)
        assert len(rows) == 2 and not any("error" in row for row in rows)


def test_tol_above_initial_trust_radius_is_config_error(tmp_path, capsys):
    # the default phase window is [0, pi/8], so COBYLA starts at radius pi/16 ~ 0.196
    instances = tmp_path / "inst.jsonl"
    write_instances(instances, [make_identity_instance([1, -1], seed=5)])
    config = write_config(tmp_path, "d.json", instances=str(instances), p=1, seed=1, tol=0.3)
    out = tmp_path / "out.jsonl"
    assert cli.main(["detect", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "'tol' must be in [1e-150, 0.19634954084936207]" in err
    assert not out.exists()


@pytest.mark.parametrize("mode, key, value", [
    ("gen-instances", "out", True),
    ("detect", "out", ["x"]),
    ("detect", "instances", 1),
    ("detect", "init", True),
    ("train-init", "instances", True),
    ("compare", "out", 5),
])
def test_non_string_path_is_config_error(tmp_path, monkeypatch, capfd, mode, key, value):
    # true or 1 would otherwise be opened as a file descriptor (stdout)
    monkeypatch.chdir(tmp_path)
    write_instances(tmp_path / "inst.jsonl", [make_identity_instance([1, -1], seed=5)])
    fields = dict(count=1, n_t=2, instances="inst.jsonl", init="inst.jsonl", p=1, t_rounds=1,
                  seed=1, out="out.jsonl")
    config = write_config(tmp_path, "c.json", **{**fields, key: value})
    before = sorted(os.listdir(tmp_path))
    assert cli.main([mode, "--config", config]) == 1
    out, err = capfd.readouterr()
    assert out == "" and err.startswith("config error: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == before


def run_cli_process(*argv):
    """The command line in a fresh interpreter, so numpy's warnings reach its stderr."""
    return subprocess.run(
        [sys.executable, "-m", "qaoa_mimo.cli", *argv],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__))),
        capture_output=True, text=True, timeout=120,
    )


def write_overflowing_config(tmp_path, **fields):
    """Generated instances with a phase window so wide that <H_C> overflows to NaN."""
    instances = tmp_path / "inst.jsonl"
    gen = write_config(tmp_path, "gen.json", count=2, n_t=2, seed=1)
    assert cli.main(["gen-instances", "--config", gen, "--out", str(instances)]) == 0
    return write_config(
        tmp_path, "run.json", instances=str(instances), p=1, seed=1, gamma_max=1e308, **fields
    )


@pytest.mark.parametrize(
    "mode, fields, code",
    [("train-init", {"t_rounds": 1, "n_init": 2}, 2), ("detect", {"budget": 10}, 3)],
)
def test_overflowing_phase_prints_no_numpy_warning(tmp_path, mode, fields, code):
    config = write_overflowing_config(tmp_path, **fields)
    proc = run_cli_process(mode, "--config", config, "--out", str(tmp_path / "out"))
    assert proc.returncode == code
    if mode == "train-init":  # the run's one error line, and nothing else
        assert proc.stderr.startswith("runtime error: objective failed")
        assert proc.stderr.count("\n") == 1
    else:  # detect writes its failures as error rows
        assert proc.stderr == ""


@pytest.mark.parametrize(
    "mode, fields, code",
    [("train-init", {"t_rounds": 1, "n_init": 2}, 2), ("detect", {"budget": 5}, 3),
     ("compare", {"budget": 5}, 3)],
    ids=["train-init", "detect", "compare"],
)
def test_overflowing_instance_energies_are_refused(tmp_path, mode, fields, code):
    # finite records whose ||y||^2, and so the Ising offset, overflows float64;
    # gen-instances refuses such a noise scale, so they are written directly
    instances, init = tmp_path / "inst.jsonl", tmp_path / "init.json"
    write_instances(instances, [generate_instance(2, 2, 1e200, seed) for seed in (1, 2)])
    init.write_text(json.dumps({"p": 1, "gammas": [0.1], "betas": [0.2], "training_meta": {}}))
    config = write_config(
        tmp_path, "run.json", instances=str(instances), init=str(init), p=1, seed=1, **fields
    )
    out = tmp_path / "out"
    proc = run_cli_process(mode, "--config", config, "--out", str(out))
    assert proc.returncode == code
    if mode == "train-init":  # the run's one error line, and nothing else
        assert proc.stderr.startswith("runtime error: ") and "overflow" in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert not out.exists()
    else:  # every run is an error row, and compare still writes its summary
        assert proc.stderr == ""
        rows = read_jsonl(out / "reports.jsonl" if mode == "compare" else out)
        assert len(rows) == {"detect": 2, "compare": 4}[mode]
        assert all(row["error"].startswith("ValueError: ") for row in rows)
        if mode == "compare":
            assert json.loads((out / "summary.json").read_text())["n_failures"] == 4


# Arrays numpy refuses before allocating anything: each is larger than
# the 47-bit (128 TiB) address space, whatever the kernel's overcommit rule.
@pytest.mark.parametrize(
    "mode, fields",
    [
        ("train-init", {"p": 1e13, "t_rounds": 1}),
        ("detect", {"p": 1e13}),
        ("compare", {"p": 1e13}),
        ("train-init", {"p": 1, "t_rounds": 1, "n_init": 1e15}),
    ],
    ids=["train-init-p", "detect-p", "compare-p", "train-init-n_init"],
)
def test_absurd_size_is_runtime_error(tmp_path, capsys, mode, fields):
    instances = tmp_path / "inst.jsonl"
    write_instances(instances, [make_identity_instance([1, -1], seed=5)])
    config = write_config(tmp_path, "c.json", instances=str(instances), seed=1, **fields)
    assert cli.main([mode, "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and err.count("\n") == 1


def retyped(key, value):
    return key, lambda record: {**record, key: value}


@pytest.mark.parametrize(
    "target, key, mangle",
    [
        ("instance", "h", lambda record: {k: v for k, v in record.items() if k != "h"}),
        ("instance", None, lambda record: list(record.values())),
        ("init", "p", lambda record: {k: v for k, v in record.items() if k != "p"}),
        ("init", None, lambda record: list(record.values())),
        ("instance", *retyped("n_t", None)),
        ("instance", *retyped("x_true", None)),
        ("instance", *retyped("noise_scale", [1])),
        ("init", *retyped("training_meta", 5)),
        ("instance", *retyped("n_t", 2.7)),
        ("instance", *retyped("seed", True)),
        ("instance", *retyped("x_true", [1.4, -1.4])),
        ("init", *retyped("p", 1.5)),
        ("instance", *retyped("h", [float("nan"), 0.0, 0.0, 1.0])),
        ("instance", *retyped("y", [float("inf"), -1.0])),
        ("instance", *retyped("noise_scale", float("nan"))),
        ("init", *retyped("gammas", [float("nan")])),
        ("instance", *retyped("h", [1.0, 0.0, 0.0])),
        ("instance", *retyped("n_t", "2")),
        ("instance", *retyped("h", ["0.5", 0.0, 0.0, 1.0])),
        ("instance", *retyped("noise_scale", "0")),
        ("init", *retyped("p", "1")),
        ("init", *retyped("gammas", ["0.1"])),
    ],
    ids=["instance-missing-key", "instance-not-object", "init-missing-key", "init-not-object",
         "instance-null-n_t", "instance-null-x_true", "instance-list-noise_scale",
         "init-int-training_meta", "instance-fractional-n_t", "instance-bool-seed",
         "instance-fractional-x_true", "init-fractional-p", "instance-nan-h", "instance-inf-y",
         "instance-nan-noise_scale", "init-nan-gammas", "instance-short-h",
         "instance-string-n_t", "instance-string-h", "instance-string-noise_scale",
         "init-string-p", "init-string-gammas"],
)
def test_malformed_record_is_runtime_error(tmp_path, capsys, target, key, mangle):
    instances, init_path = tmp_path / "inst.jsonl", tmp_path / "init.json"
    write_instances(instances, [make_identity_instance([1, -1], seed=5)])
    init_path.write_text(json.dumps({"p": 1, "gammas": [0.1], "betas": [0.2], "training_meta": {}}))
    path = instances if target == "instance" else init_path
    path.write_text(json.dumps(mangle(json.loads(path.read_text()))) + "\n")
    config = write_config(
        tmp_path, "d.json", instances=str(instances), init=str(init_path), p=1, seed=1
    )
    out = tmp_path / "out.jsonl"
    assert cli.main(["detect", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"runtime error: {target} record ") and err.count("\n") == 1
    assert key is None or repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, key", [("train-init", "t_rounds"), ("train-init", "n_init"), ("detect", "p"),
                  ("detect", "budget"), ("detect", "top_k")],
)
def test_numeric_string_integer_key_is_config_error(tmp_path, capsys, mode, key):
    instances = tmp_path / "inst.jsonl"
    write_instances(instances, [make_identity_instance([1, -1], seed=5)])
    fields = {"p": 1, "t_rounds": 1, key: "1"}
    config = write_config(tmp_path, "c.json", instances=str(instances), seed=1, **fields)
    out = tmp_path / "out"
    assert cli.main([mode, "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: config key {key!r} has invalid value '1'\n"
    assert not out.exists()


class TestTrainInit:
    def make_instances(self, tmp_path):
        out = tmp_path / "train.jsonl"
        config = write_config(tmp_path, "gen.json", count=6, n_t=2, seed=9)
        cli.main(["gen-instances", "--config", config, "--out", str(out)])
        return out

    def test_persists_angles(self, tmp_path):
        instances = self.make_instances(tmp_path)
        out = tmp_path / "init.json"
        config = write_config(
            tmp_path, "train.json", instances=str(instances), p=3, t_rounds=1,
            n_init=2, seed=3,
        )
        assert cli.main(["train-init", "--config", config, "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert len(record["gammas"]) == 3 and len(record["betas"]) == 3
        assert record["training_meta"]["t_rounds"] == 1

    def test_rerun_identical(self, tmp_path):
        instances = self.make_instances(tmp_path)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        config = write_config(
            tmp_path, "train.json", instances=str(instances), p=2, t_rounds=1,
            n_init=2, seed=3,
        )
        cli.main(["train-init", "--config", config, "--out", str(out_a)])
        cli.main(["train-init", "--config", config, "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_non_finite_objective_is_runtime_error(self, tmp_path, capsys):
        config = write_overflowing_config(tmp_path, t_rounds=1, n_init=2)
        out = tmp_path / "init.json"
        assert cli.main(["train-init", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: objective failed") and "non-finite" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_failed_factorization_is_one_runtime_error_line(self, tmp_path, capsys, monkeypatch):
        instances = self.make_instances(tmp_path)
        config = write_config(
            tmp_path, "train.json", instances=str(instances), p=2, t_rounds=1,
            n_init=2, seed=3,
        )

        def cholesky(matrix):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        out = tmp_path / "init.json"
        assert cli.main(["train-init", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "runtime error: Matrix is not positive definite\n"
        assert not out.exists()

    def test_zero_rounds_rejected(self, tmp_path):
        instances = self.make_instances(tmp_path)
        config = write_config(
            tmp_path, "train.json", instances=str(instances), p=2, t_rounds=0, seed=3
        )
        assert cli.main(["train-init", "--config", config, "--out", "x.json"]) == 1

    def test_missing_instance_file_rejected(self, tmp_path):
        config = write_config(
            tmp_path, "train.json", instances=str(tmp_path / "nope.jsonl"), p=2,
            t_rounds=1, seed=3,
        )
        assert cli.main(["train-init", "--config", config, "--out", "x.json"]) == 1


class TestDetect:
    def test_easy_instance_decodes_transmission(self, tmp_path):
        inst = make_identity_instance([-1, -1, -1, -1, 1, 1], seed=77)
        instances = tmp_path / "easy.jsonl"
        write_instances(instances, [inst])
        out = tmp_path / "reports.jsonl"
        config = write_config(
            tmp_path, "detect.json", instances=str(instances), p=3, budget=150, seed=4
        )
        assert cli.main(["detect", "--config", config, "--out", str(out)]) == 0
        (report,) = read_jsonl(out)
        assert report["method"] == "random-init"
        assert report["decoded_symbols"] == [-1, -1, -1, -1, 1, 1]
        assert report["success"] is True
        # the exact-solution state of this instance reads 111100
        assert report["bruteforce_bitstring"] == "111100"
        assert report["argmax_bitstring"] == "111100"
        probs = [row["probability"] for row in report["top_states"]]
        assert all(0.0 <= p <= 1.0 for p in probs)
        assert probs == sorted(probs, reverse=True)
        assert 0.0 <= report["solution_probability"] <= 1.0

    def test_bruteforce_reference_matches_module(self, tmp_path):
        instances_path = tmp_path / "inst.jsonl"
        config = write_config(tmp_path, "gen.json", count=3, n_t=4, seed=21)
        cli.main(["gen-instances", "--config", config, "--out", str(instances_path)])
        out = tmp_path / "reports.jsonl"
        config = write_config(
            tmp_path, "detect.json", instances=str(instances_path), p=2, budget=40, seed=4
        )
        assert cli.main(["detect", "--config", config, "--out", str(out)]) == 0
        reports = read_jsonl(out)
        for inst, report in zip(read_instances(instances_path), reports):
            x_best, value = brute_force_detect(inst)
            assert report["bruteforce_symbols"] == [int(v) for v in x_best]
            assert report["bruteforce_value"] == pytest.approx(value, rel=1e-15)
            assert report["instance_seed"] == inst.seed

    def test_trained_init_path(self, tmp_path):
        instances_path = tmp_path / "inst.jsonl"
        cli.main([
            "gen-instances",
            "--config", write_config(tmp_path, "g.json", count=4, n_t=2, seed=31),
            "--out", str(instances_path),
        ])
        init_path = tmp_path / "init.json"
        cli.main([
            "train-init",
            "--config", write_config(
                tmp_path, "t.json", instances=str(instances_path), p=2, t_rounds=1,
                n_init=2, seed=31,
            ),
            "--out", str(init_path),
        ])
        out = tmp_path / "reports.jsonl"
        config = write_config(
            tmp_path, "detect.json", instances=str(instances_path),
            init=str(init_path), p=2, budget=30, seed=4,
        )
        assert cli.main(["detect", "--config", config, "--out", str(out)]) == 0
        reports = read_jsonl(out)
        assert all(r["method"] == "trained-init" for r in reports)
        init_record = json.loads(init_path.read_text())
        expected_start = init_record["gammas"] + init_record["betas"]
        assert all(r["initial_point"] == expected_start for r in reports)

    def test_depth_mismatch_rejected(self, tmp_path):
        instances_path = tmp_path / "inst.jsonl"
        cli.main([
            "gen-instances",
            "--config", write_config(tmp_path, "g.json", count=2, n_t=2, seed=31),
            "--out", str(instances_path),
        ])
        init_path = tmp_path / "init.json"
        cli.main([
            "train-init",
            "--config", write_config(
                tmp_path, "t.json", instances=str(instances_path), p=2, t_rounds=1,
                n_init=1, seed=31,
            ),
            "--out", str(init_path),
        ])
        config = write_config(
            tmp_path, "d.json", instances=str(instances_path), init=str(init_path),
            p=3, seed=4,
        )
        assert cli.main(["detect", "--config", config, "--out", "x.jsonl"]) == 1

    def test_oversized_instance_causes_partial_failure(self, tmp_path):
        instances = tmp_path / "inst.jsonl"
        write_instances(instances, [make_identity_instance([1, -1, 1], seed=5),
                                    make_identity_instance([1] * 21, seed=6)])
        out = tmp_path / "reports.jsonl"
        config = write_config(tmp_path, "detect.json", instances=str(instances), p=1, seed=4)
        assert cli.main(["detect", "--config", config, "--out", str(out)]) == 3
        solved, refused = read_jsonl(out)
        assert "error" not in solved
        # the exhaustive oracle refuses 21 antennas before the simulator's 21 qubits are built
        assert refused["error"] == (
            "ResourceLimitError: exhaustive search over 2^21 candidates exceeds the cap of 20 antennas"
        )

    def test_one_instance_starts_no_worker_process(self, tmp_path):
        instances = tmp_path / "inst.jsonl"
        write_instances(instances, [make_identity_instance([1, -1, 1], seed=5)])
        config = write_config(tmp_path, "d.json", instances=str(instances), p=1, budget=5, seed=4)
        out = str(tmp_path / "reports.jsonl")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        script = (
            f"import sys; sys.path.insert(0, {src!r}); from qaoa_mimo import cli; "
            f"assert cli.main(['detect', '--config', {config!r}, '--out', {out!r}]) == 0; "
            "sys.exit('multiprocessing' in sys.modules)"
        )
        assert subprocess.run([sys.executable, "-c", script], timeout=60).returncode == 0
        assert len(read_jsonl(out)) == 1

    def test_removed_qubit_cap_key_is_ignored(self, tmp_path):
        instances = tmp_path / "inst.jsonl"
        gen = write_config(tmp_path, "g.json", count=2, n_t=6, seed=8)
        assert cli.main(["gen-instances", "--config", gen, "--out", str(instances)]) == 0
        outputs = []
        for extra in ({}, {"max_qubits": 3}):
            out = tmp_path / f"reports-{len(outputs)}.jsonl"
            config = write_config(
                tmp_path, "detect.json", instances=str(instances), p=2, budget=20, seed=4, **extra
            )
            assert cli.main(["detect", "--config", config, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_non_finite_objective_writes_error_rows(self, tmp_path):
        config = write_overflowing_config(tmp_path, budget=10)
        out = tmp_path / "reports.jsonl"
        assert cli.main(["detect", "--config", config, "--out", str(out)]) == 3
        reports = read_jsonl(out)
        assert len(reports) == 2
        assert all("non-finite value nan" in r["error"] for r in reports)


class TestCompare:
    def setup_run(self, tmp_path, count=3, n_t=3):
        instances_path = tmp_path / "inst.jsonl"
        cli.main([
            "gen-instances",
            "--config", write_config(tmp_path, "g.json", count=count, n_t=n_t, seed=61),
            "--out", str(instances_path),
        ])
        train_path = tmp_path / "train.jsonl"
        cli.main([
            "gen-instances",
            "--config", write_config(tmp_path, "g2.json", count=4, n_t=2, seed=62),
            "--out", str(train_path),
        ])
        init_path = tmp_path / "init.json"
        cli.main([
            "train-init",
            "--config", write_config(
                tmp_path, "t.json", instances=str(train_path), p=2, t_rounds=1,
                n_init=2, seed=63,
            ),
            "--out", str(init_path),
        ])
        return write_config(
            tmp_path, "cmp.json", instances=str(instances_path), init=str(init_path),
            p=2, budget=25, seed=64,
        )

    def test_pairing_contract_and_summary(self, tmp_path):
        config = self.setup_run(tmp_path, count=3)
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--config", config, "--out", str(out)]) == 0
        reports = read_jsonl(out / "reports.jsonl")
        assert len(reports) == 6  # two traces per instance
        by_method = {}
        for r in reports:
            by_method.setdefault(r["method"], []).append(r["instance_seed"])
        assert sorted(by_method["trained-init"]) == sorted(by_method["random-init"])

        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["fraction_trained_better"] <= 1.0
        assert summary["n_paired"] == 3
        assert set(summary["median_final_cost"]) == {"trained-init", "random-init"}

        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[0] == "iteration,cost,method,instance"
        # every report row contributes its evaluation count
        assert len(curves) - 1 == sum(r["n_evaluations"] for r in reports)

    def test_repeated_seed_pairs_by_position(self, tmp_path):
        config = self.setup_run(tmp_path, count=3)
        instances_path = tmp_path / "inst.jsonl"
        instances = read_instances(instances_path)
        instances[2] = dataclasses.replace(instances[2], seed=instances[1].seed)
        write_instances(instances_path, instances)
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--config", config, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_instances"] == 3
        assert summary["n_paired"] == 3

    def test_qubit_cap_fails_every_run(self, tmp_path):
        count = 2
        config = self.setup_run(tmp_path, count=count, n_t=21)
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--config", config, "--out", str(out)]) == 3
        reports = read_jsonl(out / "reports.jsonl")
        assert len(reports) == 2 * count
        for r in reports:
            assert set(r) == {"schema_version", "instance_seed", "n_t", "method", "error"}
            assert r["n_t"] == 21
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_failures"] == 2 * count
        assert summary["n_paired"] == 0
        assert (out / "curves.csv").read_text() == "iteration,cost,method,instance\n"

    def test_workers_hand_back_each_runs_costs(self):
        methods = (cli.TRAINED_INIT, cli.RANDOM_INIT)
        bounds = angle_bounds(2)
        settings = cli.DetectionSettings(methods, bounds, 20, 1e-6, 4)
        starts = (bounds.mean(axis=1), bounds[:, 0] + 0.25 * (bounds[:, 1] - bounds[:, 0]))
        runs = cli._detect_instance(generate_instance(3, 3, 1.0, seed=8), starts, settings)
        assert [report["method"] for report, _ in runs] == list(methods)
        for report, costs in runs:
            assert all(type(value) is float for value in costs)
            assert len(costs) == report["n_evaluations"]
            assert min(costs) == report["best_value"]

        oversized = generate_instance(21, 21, 1.0, seed=9)
        for report, costs in cli._detect_instance(oversized, starts, settings):
            assert "error" in report and costs == []

    def test_model_and_oracle_built_once_per_instance(self, tmp_path, monkeypatch):
        count = 3
        config = self.setup_run(tmp_path, count=count)
        # one line per call, appended by whichever process makes it (the parent or a worker)
        log = tmp_path / "calls.log"

        def counted(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                with open(log, "a") as fh:
                    fh.write(f"{name}\n")
                return original(*args, **kwargs)

            return wrapper

        names = ("build_ising", "brute_force_detect")
        for name in names:
            monkeypatch.setattr(cli, name, counted(name))
        assert cli.main(["compare", "--config", config, "--out", str(tmp_path / "cmp")]) == 0
        lines = log.read_text().splitlines()
        calls = {name: lines.count(name) for name in names}
        assert calls == {"build_ising": count, "brute_force_detect": count}

    def test_outputs_do_not_depend_on_worker_count(self, tmp_path, monkeypatch):
        compare = self.setup_run(tmp_path, count=6, n_t=[2, 3, 21])
        with open(compare) as fh:
            random_only = {k: v for k, v in json.load(fh).items() if k != "init"}
        detect = write_config(tmp_path, "det.json", **random_only)
        n_ts = [inst.n_t for inst in read_instances(tmp_path / "inst.jsonl")]
        assert 21 in n_ts and min(n_ts) <= 3  # some instances exceed the cap, some do not

        results = {}
        for cpus in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            out = tmp_path / f"cpus-{cpus}"
            codes = (
                cli.main(["compare", "--config", compare, "--out", str(out / "cmp")]),
                cli.main(["detect", "--config", detect, "--out", str(out / "det.jsonl")]),
            )
            files = {
                path.relative_to(out).as_posix(): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()
            }
            results[cpus] = codes, files
        assert results[1] == results[4]
        codes, files = results[1]
        assert codes == (3, 3)
        assert set(files) == {
            "cmp/reports.jsonl", "cmp/curves.csv", "cmp/summary.json", "det.jsonl"
        }
        errors = [b'"error"' in line for line in files["det.jsonl"].splitlines()]
        assert any(errors) and not all(errors)

    # a serial run (one instance or one CPU) gets every CPU of the affinity mask
    @pytest.mark.parametrize("cpus, count, threads", [
        (4, 2, 2), (3, 2, 1), (2, 3, 1), (4, 1, 4), (1, 3, 1),
    ])
    def test_workers_split_the_cpu_budget(self, tmp_path, monkeypatch, cpus, count, threads):
        config = self.setup_run(tmp_path, count=count, n_t=2)
        log = tmp_path / "threads.log"
        original = {name: getattr(cli, name) for name in ("simulator_expectation", "qaoa_state")}

        def logged(name):  # forked workers inherit these, and log their own share
            def call(model, angles, threads):
                with open(log, "a") as fh:
                    fh.write(f"{name} {threads}\n")
                return original[name](model, angles, threads)

            return call

        for name in original:
            monkeypatch.setattr(cli, name, logged(name))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert cli.main(["compare", "--config", config, "--out", str(tmp_path / "cmp")]) == 0
        lines = log.read_text().splitlines()
        assert set(lines) == {f"{name} {threads}" for name in original}

    def test_split_mixer_gives_the_bytes_of_one_cpu(self, tmp_path, monkeypatch):
        instances = tmp_path / "inst.jsonl"
        cli.main(["gen-instances", "--config", write_config(
            tmp_path, "g.json", count=1, n_t=SPLIT_QUBITS, seed=17), "--out", str(instances)])
        config = write_config(tmp_path, "d.json", instances=str(instances), p=2, budget=4,
                              seed=18)
        reports = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            out = tmp_path / f"cpus-{cpus}.jsonl"
            assert cli.main(["detect", "--config", config, "--out", str(out)]) == 0
            reports[cpus] = out.read_bytes()
        assert reports[2] == reports[1] and reports[3] == reports[1]

    def test_dead_worker_is_runtime_error(self, tmp_path):
        config = self.setup_run(tmp_path, count=3)
        doomed = read_instances(tmp_path / "inst.jsonl")[1].seed
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = str(tmp_path / "cmp")
        # forked workers inherit the patched build_ising; the one that runs the doomed
        # instance exits without returning its result
        script = (
            f"import os, sys; sys.path.insert(0, {src!r}); from qaoa_mimo import cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "build = cli.build_ising\n"
            "cli.build_ising = lambda inst: "
            f"os._exit(1) if inst.seed == {doomed} else build(inst)\n"
            f"sys.exit(cli.main(['compare', '--config', {config!r}, '--out', {out!r}]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("runtime error: ") and proc.stderr.count("\n") == 1

    def test_rerun_byte_identical(self, tmp_path):
        config = self.setup_run(tmp_path, count=2)
        out_a, out_b = tmp_path / "cmp_a", tmp_path / "cmp_b"
        cli.main(["compare", "--config", config, "--out", str(out_a)])
        cli.main(["compare", "--config", config, "--out", str(out_b)])
        for name in ("reports.jsonl", "curves.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSelftestAndErrors:
    @staticmethod
    def exit_code_without_scipy(code, module="scipy"):
        """Run code in a fresh interpreter; exit 1 if it raised or loaded ``module``
        (by default any of scipy)."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        script = f"import sys; sys.path.insert(0, {src!r}); {code}; "
        script += f"sys.exit({module!r} in sys.modules)"
        return subprocess.run([sys.executable, "-c", script], timeout=60).returncode

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        assert self.exit_code_without_scipy("import qaoa_mimo.cli") == 0

    def test_gen_instances_leaves_scipy_unloaded(self, tmp_path):
        config = write_config(tmp_path, "gen.json", count=2, n_t=[2, 3], seed=1)
        out = str(tmp_path / "inst.jsonl")
        code = (
            "from qaoa_mimo import cli; "
            f"assert cli.main(['gen-instances', '--config', {config!r}, '--out', {out!r}]) == 0"
        )
        assert self.exit_code_without_scipy(code) == 0
        assert os.path.exists(out)

    def test_train_init_leaves_scipy_stats_unloaded(self, tmp_path):
        instances = tmp_path / "inst.jsonl"
        write_instances(instances, [make_identity_instance([1, -1], seed=5)])
        config = write_config(
            tmp_path, "t.json", instances=str(instances), p=1, t_rounds=2, n_init=2, seed=3
        )
        out = str(tmp_path / "init.json")
        code = (
            "from qaoa_mimo import cli; "
            f"assert cli.main(['train-init', '--config', {config!r}, '--out', {out!r}]) == 0"
        )
        assert self.exit_code_without_scipy(code, "scipy.stats") == 0
        assert os.path.exists(out)

    def test_localopt_import_leaves_scipy_unloaded(self):
        assert self.exit_code_without_scipy("import qaoa_mimo.localopt") == 0

    def test_detect_leaves_scipy_unloaded(self, tmp_path):
        instances = tmp_path / "inst.jsonl"
        write_instances(instances, [make_identity_instance([1, -1, 1], seed=5)])
        config = write_config(tmp_path, "d.json", instances=str(instances), p=1, budget=20, seed=4)
        out = str(tmp_path / "reports.jsonl")
        code = (
            "from qaoa_mimo import cli; "
            f"assert cli.main(['detect', '--config', {config!r}, '--out', {out!r}]) == 0"
        )
        assert self.exit_code_without_scipy(code) == 0
        assert len(read_jsonl(out)) == 1

    def test_small_serial_runs_leave_thread_pools_unloaded(self, tmp_path):
        # below SPLIT_QUBITS the mixer starts no helper threads, and one instance no workers
        instances = str(tmp_path / "inst.jsonl")
        gen = write_config(tmp_path, "g.json", count=1, n_t=SPLIT_QUBITS - 1, seed=1)
        detect = write_config(tmp_path, "d.json", instances=instances, p=1, budget=3, seed=4)
        out = str(tmp_path / "reports.jsonl")
        code = (
            "from qaoa_mimo import cli; "
            f"assert cli.main(['gen-instances', '--config', {gen!r}, '--out', {instances!r}]) == 0; "
            f"assert cli.main(['detect', '--config', {detect!r}, '--out', {out!r}]) == 0"
        )
        assert self.exit_code_without_scipy(code, "concurrent.futures") == 0
        assert len(read_jsonl(out)) == 1

    def test_compare_leaves_scipy_unloaded(self, tmp_path):
        config = TestCompare().setup_run(tmp_path, count=2)
        out = str(tmp_path / "cmp")
        code = (
            "from qaoa_mimo import cli; "
            f"assert cli.main(['compare', '--config', {config!r}, '--out', {out!r}]) == 0"
        )
        assert self.exit_code_without_scipy(code) == 0
        assert os.path.exists(os.path.join(out, "summary.json"))

    def test_selftest_leaves_scipy_stats_unloaded(self):
        code = "from qaoa_mimo import cli; assert cli.main(['selftest', '--seed', '3']) == 0"
        assert self.exit_code_without_scipy(code, "scipy.stats") == 0

    def test_train_init_leaves_scipy_unloaded(self, tmp_path):
        instances = tmp_path / "inst.jsonl"
        write_instances(instances, [make_identity_instance([1, -1], seed=5)])
        config = write_config(
            tmp_path, "t.json", instances=str(instances), p=1, t_rounds=2, n_init=2, seed=3
        )
        out = str(tmp_path / "init.json")
        code = (
            "from qaoa_mimo import cli; "
            f"assert cli.main(['train-init', '--config', {config!r}, '--out', {out!r}]) == 0"
        )
        assert self.exit_code_without_scipy(code) == 0
        assert os.path.exists(out)

    def test_selftest_leaves_scipy_unloaded(self):
        code = "from qaoa_mimo import cli; assert cli.main(['selftest', '--seed', '3']) == 0"
        assert self.exit_code_without_scipy(code) == 0

    def test_third_party_imports_are_runtime_dependencies(self):
        tomllib = pytest.importorskip("tomllib")
        package = os.path.dirname(cli.__file__)
        with open(os.path.join(package, "..", "..", "pyproject.toml"), "rb") as f:
            project = tomllib.load(f)["project"]
        declared = {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_")
                    for dep in project["dependencies"]}
        imported = set()
        for path in glob.glob(os.path.join(package, "*.py")):
            with open(path) as f:
                for node in ast.walk(ast.parse(f.read())):  # function-level imports too
                    if isinstance(node, ast.Import):
                        imported.update(alias.name.split(".")[0] for alias in node.names)
                    elif isinstance(node, ast.ImportFrom) and node.level == 0:
                        imported.add(node.module.split(".")[0])
        third_party = imported - set(sys.stdlib_module_names)
        assert "numpy" in third_party and third_party <= declared
        assert "scipy" not in declared

    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ")[0] for line in lines] == [f"selftest {c.name}" for c in cli.CHECKS]
        assert all(line.split(": ")[1].startswith("PASS (") for line in lines)

    @pytest.mark.parametrize("config_seed", [1, None, "abc"], ids=["int", "null", "string"])
    def test_selftest_seed_flag_wins_over_any_config_seed(self, tmp_path, monkeypatch, config_seed):
        seeds = []
        monkeypatch.setattr(cli, "cmd_selftest", lambda seed: seeds.append(seed) or 0)
        config = write_config(tmp_path, "self.json", seed=config_seed)
        assert cli.main(["selftest", "--config", config, "--seed", "3"]) == 0
        assert seeds == [3]

    def test_selftest_negative_seed_is_config_error(self, tmp_path, capsys):
        assert cli.main(["selftest", "--seed", "-3"]) == 1
        config = write_config(tmp_path, "self.json", seed=-3)
        assert cli.main(["selftest", "--config", config]) == 1
        assert "PASS" not in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path):
        missing = str(tmp_path / "none.json")
        assert cli.main(["gen-instances", "--config", missing, "--out", "x"]) == 1

    def test_invalid_json_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["gen-instances", "--config", str(path), "--out", "x"]) == 1

    def test_missing_out(self, tmp_path):
        config = write_config(tmp_path, "gen.json", count=1, n_t=2, seed=1)
        assert cli.main(["gen-instances", "--config", config]) == 1
