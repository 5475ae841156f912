import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stabapprox as sa
from stabapprox import cli


CSV_COLUMNS = (
    "target_kind",
    "param_gamma",
    "param_phi",
    "param_p",
    "model",
    "constraint",
    "distance",
    "f_target",
    "f_model",
    "support",
    "converged",
    "restarts_used",
    "seed",
    "channel_index",
)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(CSV_COLUMNS)
    return rows[1:]


def test_csv_columns_are_the_run_record_fields():
    assert cli.CSV_COLUMNS == CSV_COLUMNS


def test_csv_row_round_trips_empty_bool_and_int_cells():
    record = cli.RunRecord(
        target_kind="random",
        param_gamma=None,
        param_phi=0.1,
        param_p=None,
        model="cc",
        constraint="worst",
        distance=1e-300,
        f_target=0.5,
        f_model=float("inf"),
        support="X=0.5;S+z=0.25",
        converged=False,
        restarts_used=15,
        seed=None,
        channel_index=0,
    )
    row = record.to_csv_row()
    assert row == ["random", "", "0.1", "", "cc", "worst", "1e-300", "0.5", "inf",
                   "X=0.5;S+z=0.25", "false", "15", "", "0"]
    parsed = cli.parse_csv_row(row)
    assert parsed == record
    assert parsed.converged is False
    assert cli.parse_csv_row(row[:10] + ["true"] + row[11:]).converged is True
    assert type(parsed.restarts_used) is int and type(parsed.channel_index) is int
    assert type(parsed.param_phi) is float


def test_approx_adc_pmc_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["approx", "--target", "adc", "--gamma", "0.25", "--model", "pmc", "--constraint", "avg"],
    )
    assert code == 0
    record = json.loads(out)
    assert record["distance"] == pytest.approx(0.0016828, abs=1e-6)
    assert record["support"].startswith("T|0>=")


def test_approx_axis_aligned_pol_is_exact(capsys):
    code, out, _ = run_cli(
        capsys,
        ["approx", "--target", "pol", "--phi", "0", "--p", "0.1", "--model", "pc"],
    )
    assert code == 0
    assert json.loads(out)["distance"] == pytest.approx(0.0, abs=1e-10)


def test_approx_degrees_flag(capsys):
    _, out_rad, _ = run_cli(
        capsys,
        ["approx", "--target", "pol", "--phi", str(np.pi / 8), "--p", "0.1", "--model", "pc"],
    )
    _, out_deg, _ = run_cli(
        capsys,
        ["approx", "--target", "pol", "--phi", "22.5", "--degrees", "--p", "0.1", "--model", "pc"],
    )
    assert json.loads(out_rad)["distance"] == pytest.approx(
        json.loads(out_deg)["distance"], abs=1e-12
    )


def test_approx_zero_damping_worst_cmc(capsys):
    code, out, _ = run_cli(
        capsys,
        ["approx", "--target", "adc", "--gamma", "0", "--model", "cmc", "--constraint", "worst"],
    )
    assert code == 0
    assert json.loads(out)["distance"] == pytest.approx(0.0, abs=1e-9)


def test_approx_csv_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys,
        ["approx", "--target", "adc", "--gamma", "0.3", "--model", "pc", "--out", "csv"],
    )
    assert code == 0
    rows = read_rows(out)
    record = cli.parse_csv_row(rows[0])
    assert record.to_csv_row() == rows[0]
    assert record.param_gamma == 0.3


def test_sweep_two_endpoints_row_count(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "--target", "adc", "--min", "0", "--max", "1", "--steps", "2",
         "--model", "pc,pmc,cc"],
    )
    assert code == 0
    assert len(read_rows(out)) == 2 * 3


def test_sweep_adc_pc_matches_quadratic_curve(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "--target", "adc", "--min", "0", "--max", "1", "--steps", "200",
         "--model", "pc"],
    )
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 200
    for row in rows:
        record = cli.parse_csv_row(row)
        assert record.distance == pytest.approx(record.param_gamma**2 / 8, abs=1e-6)


def test_sweep_pol_cc_has_quarter_pi_period(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "--target", "pol", "--min", "0", "--max", str(np.pi / 2), "--steps", "9",
         "--p", "0.1", "--model", "cc"],
    )
    assert code == 0
    records = [cli.parse_csv_row(r) for r in read_rows(out)]
    normalized = [r.distance / r.param_p**2 for r in records]
    for k in range(4):  # grid spacing pi/16, so +4 steps shifts by pi/4
        assert normalized[k] == pytest.approx(normalized[k + 4], abs=1e-6)


def test_sweep_pol_degrees_matches_radians(capsys):
    sweep = ["sweep", "--target", "pol", "--min", "0", "--steps", "5", "--p", "0.1"]
    code_deg, out_deg, _ = run_cli(capsys, sweep + ["--max", "90", "--degrees"])
    code_rad, out_rad, _ = run_cli(capsys, sweep + ["--max", "1.5707963267948966"])
    assert code_deg == code_rad == 0
    assert out_deg == out_rad


def test_sweep_flag_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--target", "adc", "--min", "0", "--max", "1", "--steps", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--target", "adc", "--min", "1", "--max", "0", "--steps", "5"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--target", "pol", "--min", "0", "--max", "inf", "--steps", "3"])
    assert exc.value.code == 2
    assert "--min and --max must be finite" in capsys.readouterr().err
    sweep = ["sweep", "--target", "adc", "--min", "0", "--max", "1", "--steps", "5"]
    for argv, message in [
        (sweep + ["--model", "pc,zz"], "unknown model 'zz'"),
        (sweep + ["--model", ","], "empty model list"),
        (["random", "--count", "0", "--seed", "1"], "--count must be >= 1"),
    ]:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("phi", ["nan", "inf"])
def test_non_finite_phi_exits_2_naming_the_flag(capsys, phi):
    argv = ["approx", "--target", "pol", "--phi", phi, "--p", "0.1", "--model", "pc"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert "--phi" in err


def test_random_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["random", "--count", "5"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_random_negative_seed_exits_2_naming_the_seed(capsys):
    code, out, err = run_cli(capsys, ["random", "--count", "1", "--seed", "-5"])
    assert code == 2 and out == "" and "seed" in err


def test_random_rows_summary_and_determinism(capsys):
    argv = ["random", "--count", "40", "--seed", "901"]
    code, out1, err1 = run_cli(capsys, argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, argv)
    assert out1 == out2  # byte-identical CSV for identical seeds

    rows = [cli.parse_csv_row(r) for r in read_rows(out1)]
    assert len(rows) == 40 * 5  # identity baseline + four models per channel
    identity_distance = {}
    for record in rows:
        if record.model == "identity":
            identity_distance[record.channel_index] = record.distance
    for record in rows:
        assert record.distance <= identity_distance[record.channel_index] + 1e-7

    summary = json.loads(err1)
    assert set(summary) == {"identity", "pc", "pmc", "cc", "cmc"}
    for stats in summary.values():
        assert set(stats) == {"mean", "median", "variance", "frac_below_1e-3", "count"}
        assert stats["count"] == 40
        assert stats["mean"] == float(f"{stats['mean']:.12g}")
    assert summary["pc"]["mean"] > summary["pmc"]["mean"]
    assert summary["cc"]["mean"] > summary["cmc"]["mean"]


def test_random_json_output(capsys):
    code, out, err = run_cli(capsys, ["random", "--count", "3", "--seed", "7", "--out", "json"])
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert set(doc) == {"records", "summary"}
    assert len(doc["records"]) == 3 * 5


def test_random_csv_roundtrip_is_byte_identical(capsys):
    code, out, _ = run_cli(capsys, ["random", "--count", "5", "--seed", "3"])
    assert code == 0
    rows = read_rows(out)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cli.CSV_COLUMNS)
    for row in rows:
        writer.writerow(cli.parse_csv_row(row).to_csv_row())
    assert buf.getvalue() == out


def test_random_identity_row_shares_f_target(capsys):
    # The identity baseline row carries the same (worst-case) f_target as
    # the model rows of its channel.
    code, out, _ = run_cli(
        capsys, ["random", "--count", "2", "--seed", "5", "--constraint", "worst"]
    )
    assert code == 0
    f_targets = {}
    for record in map(cli.parse_csv_row, read_rows(out)):
        f_targets.setdefault(record.channel_index, set()).add(record.f_target)
    assert sorted(f_targets) == [0, 1]
    assert all(len(values) == 1 for values in f_targets.values())


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--target", "adc", "--min", "0", "--max", "1", "--steps", "3"],
        ["random", "--count", "2", "--seed", "1"],
    ],
    ids=["sweep", "random"],
)
def test_batch_failure_exits_3_without_output(capsys, monkeypatch, argv):
    solve = sa.approximate.solve
    calls = []

    def fail_third(problem):
        calls.append(problem)
        if len(calls) == 3:
            raise sa.SolverError("third solve failed")
        return solve(problem)

    monkeypatch.setattr(sa.approximate, "solve", fail_third)
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and out == ""
    assert "third solve failed" in err
    assert len(calls) > 3  # the batch ran on past the failure


def test_bloch_section_target_column(capsys):
    code, out, _ = run_cli(
        capsys,
        ["bloch-section", "--target", "adc", "--gamma", "0.25", "--model", "pmc",
         "--points", "8"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(cli.BLOCH_COLUMNS)
    assert len(rows) - 1 == 8
    south = [float(v) for v in rows[1 + 4]]  # theta = pi
    assert south[0] == pytest.approx(np.pi)
    assert south[1] == pytest.approx(0.0, abs=1e-12)  # x_in
    assert south[2] == pytest.approx(-1.0)  # z_in
    assert south[3] == pytest.approx(0.0, abs=1e-12)  # x_target
    assert south[4] == pytest.approx(-0.5, abs=1e-10)  # z_target = 2 gamma - 1


@pytest.mark.parametrize("constraint", sa.CONSTRAINT_KINDS)
def test_bloch_section_of_a_chi_file_matches_the_built_target(tmp_path, capsys, constraint):
    path = tmp_path / "adc.json"
    cli.save_chi_file(sa.kraus_to_chi(sa.adc(sa.AdcSpec(0.25))), str(path))
    tables = []
    for target in (["--target", "adc", "--gamma", "0.25"], ["--target", "file", "--file", str(path)]):
        code, out, _ = run_cli(
            capsys,
            ["bloch-section", *target, "--model", "pmc", "--constraint", constraint,
             "--points", "8"],
        )
        assert code == 0
        tables.append(np.array(list(csv.reader(io.StringIO(out)))[1:], dtype=float))
    assert tables[0].shape == (8, len(cli.BLOCH_COLUMNS))
    assert np.allclose(tables[0], tables[1], rtol=0, atol=1e-12)


def test_bloch_section_identity_model_matches_input(capsys):
    code, out, _ = run_cli(
        capsys,
        ["bloch-section", "--target", "adc", "--gamma", "0", "--model", "pc",
         "--points", "8"],
    )
    assert code == 0
    for row in list(csv.reader(io.StringIO(out)))[1:]:
        theta, x_in, z_in, _, _, x_model, z_model = map(float, row)
        assert x_model == pytest.approx(x_in, abs=1e-10)
        assert z_model == pytest.approx(z_in, abs=1e-10)


def test_bloch_section_worst_pmc_stays_outside_target(capsys):
    # With the worst-case constraint the approximate outputs are at least
    # as far from the inputs as the target outputs, at every angle.
    code, out, _ = run_cli(
        capsys,
        ["bloch-section", "--target", "adc", "--gamma", "0.25", "--model", "pmc",
         "--constraint", "worst", "--points", "16"],
    )
    assert code == 0
    for row in list(csv.reader(io.StringIO(out)))[1:]:
        theta, x_in, z_in, x_t, z_t, x_m, z_m = map(float, row)
        d_target = (x_t - x_in) ** 2 + (z_t - z_in) ** 2
        d_model = (x_m - x_in) ** 2 + (z_m - z_in) ** 2
        assert d_model >= d_target - 1e-9


def test_bloch_section_points_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bloch-section", "--target", "adc", "--gamma", "0.1", "--model", "pc",
                  "--points", "4"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_validate_file_reports(tmp_path, capsys):
    good = tmp_path / "chi.json"
    cli.save_chi_file(sa.kraus_to_chi(sa.adc(sa.AdcSpec(0.3))), str(good))
    code, out, _ = run_cli(capsys, ["validate", "--file", str(good)])
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True and doc["violations"] == []

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[3.0, 0]] + [[0, 0]] * 4 + [[-1.0, 0]] + [[0, 0]] * 10))
    code, out, _ = run_cli(capsys, ["validate", "--file", str(bad)])
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is False
    assert {v["constraint"] for v in doc["violations"]} == {"positivity"}


@pytest.mark.parametrize(
    "entry",
    [True, [1.0, False], float("nan"), [1.0, float("inf")], 10**400],
    ids=["bool", "bool-im", "nan", "inf-im", "huge-int"],
)
def test_chi_file_rejects_booleans_and_non_finite_entries(tmp_path, capsys, entry):
    # JSON true would read as 1, NaN would reach the eigensolver and an
    # integer beyond the float range would overflow.
    path = tmp_path / "chi.json"
    path.write_text(json.dumps([entry] + [0] * 15))
    code, out, err = run_cli(capsys, ["validate", "--file", str(path)])
    assert code == 2 and out == ""
    assert "bad matrix entry (0, 0)" in err


def test_approx_from_chi_file(tmp_path, capsys):
    path = tmp_path / "target.json"
    cli.save_chi_file(sa.kraus_to_chi(sa.adc(sa.AdcSpec(0.25))), str(path))
    code, out, _ = run_cli(
        capsys,
        ["approx", "--target", "file", "--file", str(path), "--model", "pmc"],
    )
    assert code == 0
    assert json.loads(out)["distance"] == pytest.approx(0.0016828, abs=1e-6)


def test_input_error_exit_codes(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["approx", "--target", "adc", "--model", "pc"])
    assert code == 2 and "gamma" in err
    for target, message in [
        (["pol", "--phi", "0.3"], "needs --phi and --p"),
        (["file"], "needs --file"),
    ]:
        code, _, err = run_cli(capsys, ["approx", "--model", "pc", "--target", *target])
        assert code == 2 and message in err
    broken = tmp_path / "broken.json"
    broken.write_text("[1, 2, 3]")
    code, _, err = run_cli(capsys, ["validate", "--file", str(broken)])
    assert code == 2 and "16" in err
    wrapped = tmp_path / "wrapped.json"  # an object around the 16 entries
    cli.save_chi_file(sa.identity_chi(), str(wrapped))
    wrapped.write_text(json.dumps({"chi": json.loads(wrapped.read_text())}))
    code, _, err = run_cli(capsys, ["validate", "--file", str(wrapped)])
    assert code == 2 and "16 row-major entries" in err


def test_solver_and_generation_failure_exit_codes(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise sa.SolverError("no feasible iterate")

    monkeypatch.setattr(cli, "solve", boom)
    code, _, err = run_cli(
        capsys, ["approx", "--target", "adc", "--gamma", "0.1", "--model", "pc"]
    )
    assert code == 3 and "solver failure" in err

    def boom_gen(*args, **kwargs):
        raise sa.GenerationError("budget exhausted")

    monkeypatch.setattr(sa.targets, "random_chi", boom_gen)
    code, _, err = run_cli(capsys, ["random", "--count", "1", "--seed", "1"])
    assert code == 4 and "generation failure" in err


def test_a_reader_that_closes_the_pipe_ends_the_run_quietly():
    # `stabapprox bloch-section ... | head -1`: 5000 rows overfill the pipe,
    # so the run is still writing when the reader goes.
    argv = ["bloch-section", "--target", "adc", "--gamma", "0.25", "--model", "pc"]
    with subprocess.Popen(
        [sys.executable, "-m", "stabapprox", *argv, "--points", "5000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(sa.__file__).resolve().parent.parent)},
    ) as run:
        assert run.stdout.readline().startswith("theta,")
        run.stdout.close()
        err = run.stderr.read()
        assert (run.wait(timeout=120), err) == (0, "")


def test_qp_that_does_not_converge_exits_3(capsys, monkeypatch):
    # The solver's own failure, not a stand-in: one QP iteration is too few.
    monkeypatch.setattr(sa.qp, "_MAX_ITER", 1)
    code, out, err = run_cli(
        capsys,
        ["approx", "--target", "adc", "--gamma", "0.25", "--model", "cmc", "--constraint", "avg"],
    )
    assert code == 3 and out == ""
    assert err == "solver failure: active-set QP did not converge (kkt residual 5.179e-01)\n"


def test_approx_file_with_a_roundoff_negative_chi00(tmp_path, capsys):
    path = tmp_path / "flip.json"
    cli.save_chi_file(sa.ChiMatrix(np.diag([-5e-11, 2.0 + 5e-11, 0.0, 0.0])), str(path))
    code, out, _ = run_cli(
        capsys, ["approx", "--target", "file", "--file", str(path), "--model", "pc"]
    )
    assert code == 0
    record = json.loads(out)
    assert (record["support"], record["f_target"], record["f_model"]) == ("X=1", 0.0, 0.0)


def reference_pairs(capsys, argv, name):
    """(new, old) records of each model row of argv's output and of the
    reference data/name, once keys and f_target as written are checked."""
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    reference = read_rows((Path(__file__).parent / "data" / name).read_text())
    rows = read_rows(out)
    assert len(rows) == len(reference) == 50
    f_target = CSV_COLUMNS.index("f_target")
    pairs = []
    for row, ref in zip(rows, reference):
        new, old = cli.parse_csv_row(row), cli.parse_csv_row(ref)
        key = (new.channel_index, new.model)
        assert key == (old.channel_index, old.model)
        assert row[f_target] == ref[f_target], key
        if new.model != "identity":
            pairs.append((new, old))
    return pairs


def test_worst_random_answers_are_no_worse_than_the_reference(capsys):
    # data/worst_random_seed5_count10.csv is the output of
    # `random --count 10 --seed 5 --constraint worst` at commit 2c303c6.
    # Solver changes may move answers by roundoff, but no distance may rise
    # by more than 1e-12, and the target's fidelity, honesty, convergence
    # and start count must stay as they were.
    argv = ["random", "--count", "10", "--seed", "5", "--constraint", "worst"]
    for new, old in reference_pairs(capsys, argv, "worst_random_seed5_count10.csv"):
        key = (new.channel_index, new.model)
        assert new.distance <= old.distance + 1e-12, key
        assert new.f_model <= new.f_target, key
        assert (new.converged, new.restarts_used) == (old.converged, old.restarts_used), key


def test_average_random_answers_match_the_reference(capsys):
    # data/avg_random_seed5_count10.csv is the output of
    # `random --count 10 --seed 5` at commit b714069.  The average optimum
    # is global, so a distance may move by neither more nor less than
    # 1e-12.  Supports are not compared: cc and cmc optima are not unique.
    argv = ["random", "--count", "10", "--seed", "5"]
    for new, old in reference_pairs(capsys, argv, "avg_random_seed5_count10.csv"):
        key = (new.channel_index, new.model)
        assert abs(new.distance - old.distance) <= 1e-12, key
        assert new.f_model <= new.f_target, key
        assert new.converged, key
