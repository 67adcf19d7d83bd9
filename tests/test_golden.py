"""Golden fixtures: a scaled-down README protocol pinned in two tiers.

The run: ``train-init`` (p=3, T=3) on 10 instances with n_t in {2, 3},
``compare`` (budget 40) on 4 instances with n_t = 6, and one random-start
``detect`` (budget 10) at n_t = 14.

- Bytes tier: the sha256 of every file the run writes equals the hash
  recorded in ``golden_hashes.json``.  The hashes hold only for the
  Python, numpy and scipy versions recorded next to them; on another
  toolchain this tier is skipped.
- Numerics tier: for a change that moves bytes on purpose.  COBYLA
  trajectories diverge under roundoff, so report values are not compared
  across commits.  Instead every row must be self-consistent under the
  benchmark's independent reference (``bench/checks.py``): ``best_value``
  is a fresh expectation at ``best_point`` plus the box penalty, the
  budget holds and the brute-force oracle is right; ``init.json``'s
  ``final_objective`` is the fresh ensemble mean, and its angles match the
  recorded ones.

Re-baseline on purpose with ``PYTHONPATH=src python tests/test_golden.py``,
which rewrites ``golden_hashes.json`` from a fresh run on the current
toolchain.
"""

import hashlib
import importlib.util
import json
import math
import os
import platform
import tempfile

import numpy as np
import pytest
import scipy

from qaoa_mimo import cli

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "golden_hashes.json")
GAMMA_MAX, BETA_MAX, P = math.pi / 8, math.pi, 3
COMPARE_BUDGET, DETECT_BUDGET = 40, 10
ANGLE_RTOL = 1e-9


def _load_checks():
    path = os.path.join(os.path.dirname(HERE), "bench", "checks.py")
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()


def toolchain():
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def run_protocol(work):
    """Run the golden protocol in ``work``; return the relative paths it wrote."""
    box = {"gamma_max": GAMMA_MAX, "beta_max": BETA_MAX}
    stages = [
        ("gen-instances", {"count": 10, "n_t": [2, 3], "seed": 101, "out": "train.jsonl"}),
        ("train-init", {"instances": "train.jsonl", "p": P, "t_rounds": 3, "seed": 102,
                        "out": "init.json", **box}),
        ("gen-instances", {"count": 4, "n_t": 6, "seed": 103, "out": "eval.jsonl"}),
        ("compare", {"instances": "eval.jsonl", "init": "init.json", "p": P,
                     "budget": COMPARE_BUDGET, "seed": 104, "out": "results", **box}),
        ("gen-instances", {"count": 1, "n_t": 14, "seed": 105, "out": "large.jsonl"}),
        ("detect", {"instances": "large.jsonl", "p": P, "budget": DETECT_BUDGET, "seed": 106,
                    "out": "detect.jsonl", **box}),
    ]
    for k, (mode, config) in enumerate(stages):
        config = {
            key: os.path.join(work, value) if key in ("instances", "init", "out") else value
            for key, value in config.items()
        }
        path = os.path.join(work, f"config{k}.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        assert cli.main([mode, "--config", path]) == 0, mode
    return sorted(
        os.path.relpath(os.path.join(d, f), work)
        for d, _, names in os.walk(work) for f in names if not f.startswith("config")
    )


def digests(work, files):
    out = {}
    for rel in files:
        with open(os.path.join(work, rel), "rb") as fh:
            out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


def trained_angles(work):
    with open(os.path.join(work, "init.json")) as fh:
        init = json.load(fh)
    return init, init["gammas"] + init["betas"]


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("golden"))
    return work, run_protocol(work)


@pytest.fixture(scope="module")
def recorded():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_bytes_unchanged(golden_run, recorded):
    if recorded["toolchain"] != toolchain():
        pytest.skip(f"hashes recorded on {recorded['toolchain']}, running on {toolchain()}")
    work, files = golden_run
    assert digests(work, files) == recorded["sha256"]


def test_rows_consistent(golden_run):
    work, _ = golden_run

    def records(name):
        return checks.read_jsonl(os.path.join(work, name))

    box = checks.angle_box(P, GAMMA_MAX, BETA_MAX)
    problems = []
    for rows, instances, budget in (
        ("results/reports.jsonl", "eval.jsonl", COMPARE_BUDGET),
        ("detect.jsonl", "large.jsonl", DETECT_BUDGET),
    ):
        refs = {r["seed"]: checks.Reference(r) for r in records(instances)}
        for row in records(rows):
            ref = refs[row["instance_seed"]]
            problems += [f"{rows} {row['instance_seed']} {row['method']}: {p}"
                         for p in checks.check_row(row, ref, budget, box)]
    init, _ = trained_angles(work)
    problems += checks.check_init(init, [checks.Reference(r) for r in records("train.jsonl")])
    assert problems == []


def test_trained_angles_match(golden_run, recorded):
    work, _ = golden_run
    _, angles = trained_angles(work)
    np.testing.assert_allclose(angles, recorded["init_angles"], rtol=ANGLE_RTOL, atol=0)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        files = run_protocol(work)
        record = {
            "toolchain": toolchain(),
            "sha256": digests(work, files),
            "init_angles": trained_angles(work)[1],
        }
    with open(FIXTURE, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {FIXTURE}")
