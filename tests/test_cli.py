"""Command-line interface: argument handling, exit codes, stable output.

Most tests drive ``main(argv)`` in-process and capture stdout/stderr with
capsys; one subprocess test confirms the module entry point works end to
end.  Determinism is asserted on raw bytes, with the wall-time CSV column
stripped where it appears.
"""

import json
import subprocess
import sys

import pytest

from rootfinder.cli import main
from rootfinder.trees import read_growth, write_growth
from rootfinder.verify import CheckLine

PATH5 = "1 2\n2 3\n3 4\n4 5\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_seconds(csv_text: str) -> list[str]:
    return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]


# ---------------------------------------------------------------------------
# generate


def test_generate_is_byte_identical_across_runs(capsys):
    argv = ("generate", "--model", "ua", "--n", "10", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_generate_prints_the_growth_file_format(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "generate", "--model", "ua", "--n", "6", "--seed", "7")
    assert code == 0
    assert out == "6\n2 1\n3 2\n4 2\n5 3\n6 5\n"
    source, again = tmp_path / "tree.txt", tmp_path / "again.txt"
    source.write_text(out)
    write_growth(read_growth(source), again)
    assert again.read_text() == out


def test_generate_output_parses_as_growth_file(capsys, tmp_path):
    target = tmp_path / "tree.txt"
    code, out, err = run_cli(
        capsys, "generate", "--model", "pa", "--n", "25", "--seed", "3", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    tree = read_growth(str(target))
    assert tree.n == 25


def test_generate_echoes_resolved_config(capsys):
    code, out, err = run_cli(capsys, "generate", "--model", "ua", "--n", "5", "--seed", "9")
    assert code == 0
    assert err.startswith("# generate ")
    assert "model=uniform" in err
    assert "seed=9" in err
    # stdout stays machine-readable: header line is the size
    assert out.splitlines()[0] == "5"


def test_generate_random_seed_varies(capsys):
    argv = ("generate", "--model", "ua", "--n", "12", "--seed", "random")
    _, out1, err1 = run_cli(capsys, *argv)
    _, out2, err2 = run_cli(capsys, *argv)
    assert out1 != out2
    assert "seed=" in err1 and err1 != err2


def test_generate_alpha_model(capsys):
    code, out, err = run_cli(
        capsys, "generate", "--model", "alpha", "--alpha", "2.0", "--n", "6", "--seed", "1"
    )
    assert code == 0
    assert "model=alpha:2" in err


# ---------------------------------------------------------------------------
# score


def test_score_phi_picks_path_center(capsys, tmp_path):
    infile = tmp_path / "path5.txt"
    infile.write_text(PATH5)
    code, out, _ = run_cli(
        capsys, "score", "--estimator", "phi", "--k", "3", "--in", str(infile)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == [3, 2, 4]
    assert payload["n"] == 5 and payload["k"] == 3
    assert payload["scores"] == sorted(payload["scores"])


def test_score_csv_format(capsys, tmp_path):
    infile = tmp_path / "path5.txt"
    infile.write_text(PATH5)
    code, out, _ = run_cli(
        capsys, "score", "--estimator", "psi", "--k", "2", "--in", str(infile),
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertex,score"
    assert [row.split(",")[0] for row in lines[1:]] == ["3", "2"]
    # scores round-trip through repr
    assert float(lines[1].split(",")[1]) == 2.0


def test_score_missing_file_is_a_usage_error(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "score", "--estimator", "phi", "--k", "1", "--in", str(tmp_path / "nope.txt")
    )
    assert code == 2
    assert err.startswith("error:")


def test_score_malformed_edge_list(capsys, tmp_path):
    infile = tmp_path / "bad.txt"
    infile.write_text("1 2\n2 2\n")
    code, _, err = run_cli(capsys, "score", "--estimator", "psi", "--in", str(infile))
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# experiment / sweep


def test_experiment_emits_csv_and_is_reproducible(capsys):
    argv = (
        "experiment", "--model", "ua", "--estimator", "psi",
        "--n", "30", "--k", "3", "--trials", "40", "--seed", "5",
    )
    code1, out1, err1 = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert strip_seconds(out1) == strip_seconds(out2)
    header, row = out1.splitlines()
    assert header.startswith("model,estimator,n,k,trials,successes,rate")
    assert row.startswith("uniform,psi,30,3,40,")
    assert "jobs=1" in err1


def test_experiment_jobs_flag_does_not_change_results(capsys):
    base = (
        "experiment", "--model", "pa", "--estimator", "phi",
        "--n", "40", "--k", "4", "--trials", "32", "--seed", "11",
    )
    _, serial, _ = run_cli(capsys, *base, "--jobs", "1")
    _, parallel, _ = run_cli(capsys, *base, "--jobs", "2")
    assert strip_seconds(serial) == strip_seconds(parallel)


def test_experiment_jobs_env_fallback(capsys, monkeypatch):
    argv = (
        "experiment", "--model", "ua", "--estimator", "psi",
        "--n", "20", "--k", "2", "--trials", "16", "--seed", "2",
    )
    _, baseline, _ = run_cli(capsys, *argv)
    monkeypatch.setenv("ROOTFINDER_JOBS", "2")
    _, from_env, err = run_cli(capsys, *argv)
    assert strip_seconds(from_env) == strip_seconds(baseline)
    assert "jobs=2" in err


def test_bad_jobs_env_rejected(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("ROOTFINDER_JOBS", "many")
    grid = tmp_path / "grid.txt"
    grid.write_text("model = ua\nestimator = psi\nn = 10\nk = 1\ntrials = 2\n")
    for argv in (
        ["experiment", "--model", "ua", "--estimator", "psi", "--n", "10", "--k", "1", "--trials", "2"],
        ["sweep", "--config", str(grid)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ROOTFINDER_JOBS must be an integer")
        # an explicit --jobs needs no environment
        code, out, _ = run_cli(capsys, *argv, "--jobs", "1")
        assert code == 0 and out.startswith("model,")


def test_bad_jobs_env_leaves_other_commands_alone(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("ROOTFINDER_JOBS", "many")
    path = tmp_path / "path5.txt"
    path.write_text(PATH5)
    code, out, _ = run_cli(capsys, "score", "--estimator", "psi", "--in", str(path))
    assert code == 0
    assert json.loads(out)["vertices"] == [3]
    code, out, _ = run_cli(capsys, "generate", "--model", "ua", "--n", "5", "--seed", "1")
    assert code == 0
    assert out.splitlines()[0] == "5"


def test_experiment_runs_zeta_past_the_old_cap(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "--model", "ua", "--estimator", "zeta",
        "--n", "2500", "--k", "1", "--trials", "1",
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[1:5] == ["zeta", "2500", "1", "1"]


def test_sweep_runs_grid_file(capsys, tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text(
        "model = ua\nestimator = psi, phi\nn = 25\nk = 2, 4\ntrials = 20\nseed = 6\n"
    )
    argv = ("sweep", "--config", str(grid))
    code1, out1, err = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert strip_seconds(out1) == strip_seconds(out2)
    lines = out1.splitlines()
    assert len(lines) == 5
    assert [line.split(",")[1:4] for line in lines[1:]] == [
        ["psi", "25", "2"], ["psi", "25", "4"], ["phi", "25", "2"], ["phi", "25", "4"],
    ]
    assert "cells=4" in err


def test_sweep_bad_grid_is_a_usage_error(capsys, tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("model = ua\n")
    code, _, err = run_cli(capsys, "sweep", "--config", str(grid))
    assert code == 2
    assert "missing" in err


# ---------------------------------------------------------------------------
# verify / enumerate


def test_verify_counting_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "counting", "--n-max", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines == [line for line in lines if ": PASS — " in line]
    assert any(line.startswith("counting n=5") for line in lines)


def test_verify_partitions_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "partitions")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize(
    "suite, n_max",
    [("counting", "1"), ("counting", "-4"), ("plane-counting", "1"),
     ("posterior", "1"), ("partitions", "0")],
)
def test_verify_below_smallest_size_is_an_error(capsys, suite, n_max):
    # such a run would check nothing (or, for posterior, PA above n_max)
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--n-max", n_max)
    assert code == 2
    assert out == ""
    assert "error:" in err and "n_max" in err


@pytest.mark.parametrize("suite, n_max", [("counting", "2"), ("posterior", "2"), ("partitions", "1")])
def test_verify_at_smallest_size_checks_something(capsys, suite, n_max):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--n-max", n_max)
    assert code == 0
    lines = out.splitlines()
    assert lines and all(": PASS — " in line for line in lines)
    assert not any(f"n={int(n_max) + 1}" in line for line in lines)


def test_verify_partitions_at_one_prints_no_monotonicity_line(capsys):
    # p(s) on 1..1 has no pair to compare, so no line may claim a PASS for it
    code, out, _ = run_cli(capsys, "verify", "--suite", "partitions", "--n-max", "1")
    assert code == 0
    assert "monotonicity" not in out
    code, out, _ = run_cli(capsys, "verify", "--suite", "partitions", "--n-max", "2")
    assert "partition monotonicity: PASS" in out


def test_verify_failure_maps_to_exit_1(capsys, monkeypatch):
    fake = [CheckLine(name="stub", passed=False, detail="forced")]
    monkeypatch.setattr("rootfinder.cli.run_suite", lambda *a, **k: fake)
    code, out, _ = run_cli(capsys, "verify", "--suite", "counting")
    assert code == 1
    assert "stub: FAIL" in out


def test_enumerate_recursive_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6  # 3! labeled histories
    assert len(set(lines)) == 6
    assert all(len(line.split()) == 3 for line in lines)


def test_enumerate_plane_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--kind", "plane", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 15  # 5!! plane histories
    assert all("|" in line for line in lines)


def test_enumerate_rejects_oversized_n(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "50")
    assert code == 2
    assert "\nerror: " in err and "capped" in err


# far beyond any address space, so the first array fails to allocate at
# once, whatever the host's overcommit setting; never use a size it could map
UNMAPPABLE_N = "100000000000000000"


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--model", "pa"),
        ("experiment", "--model", "pa", "--estimator", "psi", "--k", "1",
         "--trials", "1", "--jobs", "1"),
    ],
)
def test_unallocatable_n_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--n", UNMAPPABLE_N)
    assert code == 2
    assert out == ""
    assert "\nerror: " in err


# ---------------------------------------------------------------------------
# usage errors and entry point


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_estimator_choice_exits_2(tmp_path):
    infile = tmp_path / "t.txt"
    infile.write_text(PATH5)
    with pytest.raises(SystemExit) as exc:
        main(["score", "--estimator", "chi", "--in", str(infile)])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--model", "ua"])
    assert exc.value.code == 2


def test_bad_model_string_exits_2(capsys):
    code, _, err = run_cli(capsys, "generate", "--model", "zeta-model", "--n", "5")
    assert code == 2
    assert err.startswith("error:")


def test_module_entry_point_round_trip():
    argv = [sys.executable, "-m", "rootfinder", "generate",
            "--model", "ua", "--n", "8", "--seed", "7"]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.splitlines()[0] == "8"
    assert first.stderr.startswith("# generate ")
