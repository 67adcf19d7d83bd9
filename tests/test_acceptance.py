"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see
them).

Criteria 1-6 run the consistency checks in ``qaoa_mimo.cli.CHECKS``, the
table ``qaoa-mimo selftest`` runs at smaller sizes.  Their tolerances live
there; this module pins only each criterion's seed and size.  Criteria 7
and 8 run the CLI end to end."""

import json
import time

import numpy as np
import pytest

from qaoa_mimo import cli

# criterion n runs cli.CHECKS[n - 1] on default_rng(1000 + n) at this size:
# tuples, instances, instances, largest depth, GP data sets, seeds
SIZES = (120, 20, 50, 5, 20, 10)


def report(number, title, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({title}): {status} [{detail}]")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.mark.parametrize(
    "number, check, size",
    [
        pytest.param(number, check, size, id=f"{number}-{check.name}")
        for number, (check, size) in enumerate(zip(cli.CHECKS, SIZES, strict=True), start=1)
    ],
)
def test_consistency_criterion(number, check, size):
    ok, detail = check.run(np.random.default_rng(1000 + number), size)
    report(number, check.title(size), ok, detail)


def test_criterion_7_protocol_replication(tmp_path):
    started = time.monotonic()
    train_insts = tmp_path / "train.jsonl"
    eval_insts = tmp_path / "eval.jsonl"
    init_path = tmp_path / "init.json"
    cmp_dir = tmp_path / "cmp"

    def config(name, **fields):
        path = tmp_path / name
        path.write_text(json.dumps(fields))
        return str(path)

    assert cli.main([
        "gen-instances",
        "--config", config("g1.json", count=100, n_t=[2, 3], noise_scale=1.0, seed=20250810),
        "--out", str(train_insts),
    ]) == 0
    assert cli.main([
        "gen-instances",
        "--config", config("g2.json", count=20, n_t=6, noise_scale=1.0, seed=777),
        "--out", str(eval_insts),
    ]) == 0
    assert cli.main([
        "train-init",
        "--config", config("t.json", instances=str(train_insts), p=3, t_rounds=10,
                           kappa=2.0, seed=101),
        "--out", str(init_path),
    ]) == 0
    assert cli.main([
        "compare",
        "--config", config("c.json", instances=str(eval_insts), init=str(init_path),
                           p=3, budget=150, tol=1e-6, seed=101),
        "--out", str(cmp_dir),
    ]) == 0

    summary = json.loads((cmp_dir / "summary.json").read_text())
    fraction = summary["fraction_trained_better"]
    prob_trained = summary["mean_solution_probability"]["trained-init"]
    prob_random = summary["mean_solution_probability"]["random-init"]
    median_trained = summary["median_final_cost"]["trained-init"]
    median_random = summary["median_final_cost"]["random-init"]
    elapsed = time.monotonic() - started
    ok = (
        fraction >= 0.6
        and prob_trained > prob_random
        and median_trained <= median_random
    )
    report(7, "protocol replication: trained init beats random", ok,
           f"fraction better {fraction:.2f} (need >= 0.60), "
           f"mean P(solution) {prob_trained:.3f} vs {prob_random:.3f}, "
           f"median cost {median_trained:.1f} vs {median_random:.1f}, "
           f"{elapsed:.0f}s elapsed")
    assert elapsed < 300.0


def test_criterion_8_cli_determinism(tmp_path, capsys):
    def config(name, **fields):
        path = tmp_path / name
        path.write_text(json.dumps(fields))
        return str(path)

    instances = tmp_path / "inst.jsonl"
    gen_cfg = config("gen.json", count=4, n_t=[2, 3], seed=11)
    init_path = tmp_path / "init_a.json"
    train_cfg = config("train.json", instances=str(instances), p=2, t_rounds=1,
                       n_init=2, seed=12)
    detect_cfg = config("detect.json", instances=str(instances), p=2, budget=20, seed=13)
    compare_cfg = config("cmp.json", instances=str(instances), init=str(init_path),
                         p=2, budget=20, seed=14)

    mismatches = []

    def run_twice(mode, cfg, out_a, out_b, files=None):
        assert cli.main([mode, "--config", cfg, "--out", str(out_a)]) == 0
        assert cli.main([mode, "--config", cfg, "--out", str(out_b)]) == 0
        pairs = (
            [(out_a, out_b)]
            if files is None
            else [(out_a / name, out_b / name) for name in files]
        )
        for path_a, path_b in pairs:
            if path_a.read_bytes() != path_b.read_bytes():
                mismatches.append(f"{mode}:{path_a.name}")

    run_twice("gen-instances", gen_cfg, tmp_path / "i_a.jsonl", tmp_path / "i_b.jsonl")
    # later stages need the instance file at the configured path
    assert cli.main(["gen-instances", "--config", gen_cfg, "--out", str(instances)]) == 0
    run_twice("train-init", train_cfg, init_path, tmp_path / "init_b.json")
    run_twice("detect", detect_cfg, tmp_path / "d_a.jsonl", tmp_path / "d_b.jsonl")
    run_twice("compare", compare_cfg, tmp_path / "c_a", tmp_path / "c_b",
              ("reports.jsonl", "curves.csv", "summary.json"))

    assert cli.main(["selftest", "--seed", "7"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert cli.main(["selftest", "--seed", "7"]) == 0
    second = capsys.readouterr().out.splitlines()
    selftest_lines_a = [line for line in first if line.startswith("selftest")]
    selftest_lines_b = [line for line in second if line.startswith("selftest")]
    if selftest_lines_a != selftest_lines_b:
        mismatches.append("selftest:stdout")

    report(8, "every CLI mode byte-identical on rerun", not mismatches,
           "all outputs identical" if not mismatches else f"mismatches: {mismatches}")
