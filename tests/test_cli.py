import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qcwb import checks, cli
from qcwb.boundary import EndpointDefect, LiftResidual, PhaseStepTooLarge, WindingIndexMismatch
from qcwb.linalg import NoConvergence
from qcwb.qc_model import FactorizationResidualTooLarge, QcTriple, canonical_generators
from qcwb.relations import QC_RELATION_SOURCE
from qcwb.serialize import dump_json, matrix_to_obj, triple_to_obj

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "qcwb.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


def write_triple(path, trip):
    dump_json(triple_to_obj(trip.h, trip.x, trip.k), str(path))


@pytest.fixture
def canonical_file(tmp_path):
    path = tmp_path / "triple.json"
    write_triple(path, canonical_generators(4))
    return path


class TestSmooth:
    def test_canonical_golden_run(self, tmp_path, canonical_file):
        out = tmp_path / "report.json"
        proc = run_cli(
            "smooth", "--input", str(canonical_file), "--output", str(out), "--seed", "7"
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["subcommand"] == "smooth"
        result = report["result"]
        assert result["success"] is True
        assert max(result["distances"].values()) <= result["theta"]

    def test_zero_triple(self, tmp_path):
        path = tmp_path / "zero.json"
        z = np.zeros((4, 4), dtype=complex)
        write_triple(path, QcTriple(z, z, z))
        proc = run_cli("smooth", "--input", str(path))
        assert proc.returncode == 0
        result = json.loads(proc.stdout)["result"]
        assert max(result["distances"].values()) <= 1e-12

    def test_far_triple_exits_2_or_3(self, tmp_path):
        path = tmp_path / "far.json"
        gen = np.random.default_rng(3)
        h = 0.5 * np.eye(5) + 0.05 * gen.standard_normal((5, 5))
        h = 0.5 * (h + h.conj().T)
        z = np.zeros((5, 5), dtype=complex)
        write_triple(path, QcTriple(h.astype(complex), z, z))
        proc = run_cli("smooth", "--input", str(path))
        assert proc.returncode in (2, 3), proc.stderr

    def test_malformed_input_exits_64(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"h": 1}')
        proc = run_cli("smooth", "--input", str(path))
        assert proc.returncode == 64

    def test_explicit_theta(self, tmp_path, canonical_file):
        proc = run_cli(
            "smooth", "--input", str(canonical_file), "--theta", "0.05", "--epsilon", "0.2"
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["theta"] == 0.05

    @pytest.mark.parametrize("epsilon", ["0", "-1", "nan", "0.3"])
    def test_epsilon_out_of_range_exits_64(self, capsys, canonical_file, epsilon):
        # a usage error, not a residual failure (exit 3) of the theta search
        assert cli.main(["smooth", "--input", str(canonical_file), "--epsilon", epsilon]) == 64
        assert "epsilon must lie in (0, 1/4)" in capsys.readouterr().err

    @pytest.mark.parametrize("theta", ["nan", "inf"])
    def test_non_finite_theta_exits_64(self, capsys, canonical_file, theta):
        assert cli.main(["smooth", "--input", str(canonical_file), "--theta", theta]) == 64
        assert "theta must be positive and finite" in capsys.readouterr().err


class TestBoundary:
    def test_eval_at_one(self, tmp_path):
        out = tmp_path / "b.json"
        proc = run_cli(
            "boundary", "--scenario", "eval-at-one", "--grid", "64", "--output", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(out.read_text())["result"]
        assert abs(result["winding"]) == 1
        assert result["unitarity_defect"] <= 1e-8
        assert result["endpoint_defect"] <= 1e-8
        assert set(result) == {"winding", "unitarity_defect", "endpoint_defect"}

    def test_zero_scenario(self):
        proc = run_cli("boundary", "--scenario", "zero")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["winding"] == 0

    def test_refinement_matches(self):
        w = {}
        for grid in ("64", "128"):
            proc = run_cli("boundary", "--scenario", "eval-at-one", "--grid", grid)
            w[grid] = json.loads(proc.stdout)["result"]["winding"]
        assert w["64"] == w["128"]

    def test_input_file(self, tmp_path):
        fib = canonical_generators(1)  # the diagonal fiber
        obj = {
            "at0": triple_to_obj(fib.h, fib.x, fib.k),
            "at1": triple_to_obj(fib.h, fib.x, fib.k),
        }
        path = tmp_path / "rep.json"
        dump_json(obj, str(path))
        proc = run_cli("boundary", "--input", str(path), "--grid", "16")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["winding"] == 0

    def test_coarse_doubled_winds_twice(self):
        # at grid 1 the two turns of doubled show no phase step; the index gate refines
        proc = run_cli("boundary", "--scenario", "doubled", "--grid", "1")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["winding"] == 2

    def test_missing_everything_exits_64(self):
        proc = run_cli("boundary")
        assert proc.returncode == 64

    def test_inexact_input_exits_3(self, tmp_path):
        z = np.zeros((2, 2), dtype=complex)
        obj = {
            "at0": triple_to_obj(np.diag([0.5, 0.0]).astype(complex), z, z),
            "at1": triple_to_obj(z, z, z),
        }
        path = tmp_path / "inexact.json"
        dump_json(obj, str(path))
        proc = run_cli("boundary", "--input", str(path))
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["smooth", "--bogus"],
        ["boundary", "--grid", "abc"],
        ["nosuch"],
        ["smooth", "--input", "t.json", "--theta", "-inf"],
        ["check", "--bogus"],
        [],
        ["check", "--tolerance-profile", "bogus"],
        # boundary reads one source of endpoint data, relations one mode
        ["boundary", "--scenario", "zero", "--input", "endpoints.json"],
        ["relations", "--input", "qc.rel", "--env", "env.json", "--sweep", "sweep.json"],
        ["relations", "--input", "qc.rel", "--scenario", "bogus"],
        # --input is required where it is read unconditionally
        ["smooth"],
        ["relations", "--scenario", "canonical"],
    ],
)
def test_usage_errors_exit_64(capsys, argv):
    # argparse's own exit code, 2, is the code of a spectral-gap failure here
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 64
    assert "error:" in capsys.readouterr().err


# the flags each subcommand once took and never read, after the flags it requires
NOT_READ = {
    ("smooth", "--input", "t.json"): ["--grid", "--scenario"],
    ("boundary", "--scenario", "zero"): ["--epsilon", "--theta"],
    ("check",): ["--input", "--epsilon", "--theta", "--scenario"],
    ("relations", "--input", "qc.rel", "--scenario", "canonical"): ["--epsilon", "--theta"],
}


@pytest.mark.parametrize("argv, flag", [(a, f) for a, flags in NOT_READ.items() for f in flags])
def test_flag_the_subcommand_does_not_read_exits_64(capsys, argv, flag):
    with pytest.raises(SystemExit) as info:
        cli.main([*argv, flag, "0.1"])
    assert info.value.code == 64
    assert f"unrecognized arguments: {flag} 0.1" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [["--env", "env.json"], ["--sweep", "sweep.json"]])
def test_relations_grid_without_the_canonical_scenario_exits_64(capsys, mode):
    # --grid sizes the canonical generators; with --env or --sweep it would go unread
    assert cli.main(["relations", "--input", "qc.rel", *mode, "--grid", "9"]) == 64
    assert "--grid is read only with --scenario canonical" in capsys.readouterr().err


# a JSON integer past the float range, which json reads as a Python int
HUGE = 10**400


@pytest.mark.parametrize(
    "argv, matrix",
    [
        (["smooth", "--input", "in.json"], {"dim": 1, "entries": [[HUGE, 0]]}),
        (["smooth", "--input", "in.json"], {"dim": True, "entries": [[0.0, 0.0]]}),
        (["relations", "--input", "qc.rel", "--env", "in.json"], {"dim": 1, "entries": [[0, HUGE]]}),
        (["relations", "--input", "qc.rel", "--sweep", "in.json"], None),
    ],
    ids=["smooth-entry", "smooth-dim", "env-entry", "sweep-delta"],
)
def test_json_numbers_fail_closed(tmp_path, monkeypatch, capsys, argv, matrix):
    # malformed input, exit 64, where a traceback (exit 1) was
    monkeypatch.chdir(tmp_path)
    (tmp_path / "qc.rel").write_text(QC_RELATION_SOURCE)
    if matrix is None:
        doc = {"consequence": "x*h - k*x", "deltas": [1e-2, HUGE]}
    else:
        doc = dict.fromkeys("hxk", matrix)
    (tmp_path / "in.json").write_text(json.dumps(doc))
    assert cli.main(argv) == 64
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as info:
        cli.main([flag])
    assert info.value.code == 0
    assert "qcwb" in capsys.readouterr().out


@pytest.mark.parametrize(
    "exc, code",
    [
        (LiftResidual("x"), 3),
        (EndpointDefect("x"), 3),
        (FactorizationResidualTooLarge("x"), 3),
        (NoConvergence("x"), 2),
        (PhaseStepTooLarge("x"), 2),
        (WindingIndexMismatch("x"), 2),
    ],
)
def test_library_failures_map_to_exit_codes(monkeypatch, capsys, exc, code):
    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "run_scenario", failing)
    assert cli.main(["boundary", "--scenario", "zero"]) == code
    assert capsys.readouterr().err == "boundary: x\n"


class TestCheck:
    def test_default_sizes_pass(self, tmp_path):
        out = tmp_path / "check.json"
        proc = run_cli("check", "--seed", "11", "--grid", "8", "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["result"]["all_pass"] is True
        labels = [c["label"] for c in report["result"]["checks"]]
        assert "corner homotopy respects products" in labels

    @pytest.mark.parametrize("residual", [1.0, float("nan")])
    def test_failing_check_fails_the_command(self, monkeypatch, capsys, residual):
        # the middle one of the five homotopy times breaks products, past the
        # bound or to NaN, which the builtin max would drop
        real = checks.theta_is_homomorphism

        def broken(sys, s, *args):
            return (residual if s == 0.5 else real(sys, s, *args)[0]), 0.0

        monkeypatch.setattr(checks, "theta_is_homomorphism", broken)
        assert cli.main(["check", "--seed", "0"]) == 1
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["all_pass"] is False
        (failing,) = [c for c in result["checks"] if not c["pass"]]
        assert failing["label"] == "corner homotopy respects products"
        np.testing.assert_equal(failing["residual"], residual)

    def test_jacobi_profile_skips_lapack(self, monkeypatch, capsys):
        # every numpy.linalg function is forbidden but the Frobenius norm,
        # a BLAS sum of squares that never reaches LAPACK
        norm = np.linalg.norm

        def frobenius(x, ord=None, *args, **kwargs):
            assert ord in (None, "fro"), ord
            return norm(x, ord, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("numpy.linalg reached under the jacobi profile")

        for attr in dir(np.linalg):
            fn = getattr(np.linalg, attr)
            if not attr.startswith("_") and callable(fn) and not isinstance(fn, type):
                monkeypatch.setattr(np.linalg, attr, forbidden)
        monkeypatch.setattr(np.linalg, "norm", frobenius)
        assert cli.main(["check", "--seed", "0", "--tolerance-profile", "jacobi"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["all_pass"] is True


class TestRelations:
    @pytest.fixture
    def relation_file(self, tmp_path):
        path = tmp_path / "qc.rel"
        path.write_text(QC_RELATION_SOURCE)
        return path

    def test_canonical_environment(self, relation_file):
        proc = run_cli(
            "relations",
            "--input",
            str(relation_file),
            "--scenario",
            "canonical",
            "--grid",
            "4",
        )
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout)["result"]["residuals"]
        assert max(res.values()) <= 1e-12

    def test_env_file(self, tmp_path, relation_file):
        trip = canonical_generators(3)
        env_path = tmp_path / "env.json"
        dump_json(
            {
                "h": matrix_to_obj(trip.h),
                "x": matrix_to_obj(trip.x),
                "k": matrix_to_obj(trip.k),
            },
            str(env_path),
        )
        proc = run_cli(
            "relations", "--input", str(relation_file), "--env", str(env_path)
        )
        assert proc.returncode == 0
        assert max(json.loads(proc.stdout)["result"]["residuals"].values()) <= 1e-12

    def test_malformed_relation_exits_65(self, tmp_path):
        path = tmp_path / "bad.rel"
        path.write_text("vars h;\nrel broken: h + = 0;")
        proc = run_cli("relations", "--input", str(path), "--scenario", "canonical")
        assert proc.returncode == 65
        assert "line 2" in proc.stderr

    def test_validation_error_exits_65(self, tmp_path):
        path = tmp_path / "bad.rel"
        path.write_text("vars h;\nrel constant: h + (1,0) = 0;")
        proc = run_cli("relations", "--input", str(path), "--scenario", "canonical")
        assert proc.returncode == 65

    def test_sweep(self, tmp_path, relation_file):
        spec = tmp_path / "sweep.json"
        spec.write_text(
            json.dumps(
                {
                    "consequence": "x'*x - (h - h'*h)",
                    "deltas": [1e-2, 1e-3],
                    "samples_per_delta": 2,
                    "sampler_grid": 3,
                }
            )
        )
        proc = run_cli(
            "relations", "--input", str(relation_file), "--sweep", str(spec), "--seed", "5"
        )
        assert proc.returncode == 0, proc.stderr
        table = json.loads(proc.stdout)["result"]["sweep"]
        assert len(table) == 2
        assert table[1][1] <= table[0][1] + 1e-12

    @pytest.mark.parametrize(
        "field",
        [
            {"deltas": 5},
            {"deltas": [None]},
            {"deltas": "123"},
            {"samples_per_delta": None},
            {"samples_per_delta": 2.5},
            {"sampler_grid": "4"},
            {"sampler_grid": [3]},
            # a consequence that is not a JSON string is a malformed spec, not a relation
            {"consequence": ["x*h"]},
            {"consequence": 5},
            {"consequence": None},
        ],
    )
    def test_malformed_sweep_spec_exits_64(self, tmp_path, relation_file, field):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"consequence": "x'*x - (h - h'*h)", **field}))
        proc = run_cli("relations", "--input", str(relation_file), "--sweep", str(spec))
        assert proc.returncode == 64, proc.stderr
        (key,) = field
        assert proc.stderr.splitlines() == [proc.stderr.strip()] and key in proc.stderr

    @pytest.mark.parametrize(
        "field",
        [
            {"deltas": [-1]},
            {"deltas": [0]},
            {"deltas": [1e-2, float("nan")]},
            {"deltas": [float("inf")]},
            {"samples_per_delta": 0},
            {"samples_per_delta": -1},
        ],
    )
    def test_out_of_range_sweep_spec_exits_64(self, tmp_path, relation_file, field):
        # a delta that is not positive and finite, or no samples, is malformed input
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"consequence": "x'*x - (h - h'*h)", **field}))
        proc = run_cli("relations", "--input", str(relation_file), "--sweep", str(spec))
        assert proc.returncode == 64, proc.stderr
        (key,) = field
        assert proc.stdout == "" and key in proc.stderr

    def test_env_missing_a_variable_exits_64(self, tmp_path, relation_file):
        trip = canonical_generators(2)
        env_path = tmp_path / "env.json"
        dump_json({"h": matrix_to_obj(trip.h), "x": matrix_to_obj(trip.x)}, str(env_path))
        proc = run_cli("relations", "--input", str(relation_file), "--env", str(env_path))
        assert proc.returncode == 64
        assert proc.stderr == "relations: environment lacks variable 'k'\n"


class TestDeterminism:
    def test_reports_identical_modulo_timestamp(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = run_cli(
                "check", "--seed", "42", "--grid", "4", "--output", str(out)
            )
            assert proc.returncode == 0
            outs.append(json.loads(out.read_text()))
        for report in outs:
            report.pop("timestamp")
        assert outs[0] == outs[1]

    def test_seed_defaults_to_zero(self, tmp_path):
        # the seed comes from --seed alone; the environment does not supply one
        out_env = tmp_path / "env.json"
        out_flag = tmp_path / "flag.json"
        proc = run_cli(
            "check", "--grid", "4", "--output", str(out_env), env_extra={"QCWB_SEED": "9"}
        )
        assert proc.returncode == 0
        proc = run_cli("check", "--grid", "4", "--seed", "0", "--output", str(out_flag))
        assert proc.returncode == 0
        a = json.loads(out_env.read_text())
        b = json.loads(out_flag.read_text())
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b and a["seed"] == 0
