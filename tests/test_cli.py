import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavelock as wl
from wavelock import cli
from wavelock.cli import main
from wavelock.verifier import FrequencyGrid
from conftest import band_dual_params, csv_text, tiny_budget_dual_params, wide_dual_params

BOUND_P_REF = 0.1628675039676399738621282076127823349
BOUND_KEYS = [
    "schema", "beta", "p", "q", "A", "B", "regime", "boundary", "bound", "r1", "r2",
    "lambda1", "lambda2", "T", "residual_p", "residual_q", "wall_time_s",
]
VERIFY_KEYS = [
    "schema", "beta", "p", "q", "A", "B", "regime", "bound", "oracle_objective", "oracle_rel_gap",
    "oracle_pointwise_err", "oracle_converged", "oracle_duality_gap", "operator_norm",
    "operator_rel_gap", "checks", "ok", "wall_time_s",
]


# The reference dual instance and two single-regime ones, as CLI flags.
REF_FLAGS = ["--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "0.4"]
SINGLE_P_FLAGS = ["--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "1"]
SINGLE_Q_FLAGS = ["--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "0.1"]


def _cell(value) -> str:
    """A float cell of the CSV outputs: the shortest repr of the double."""
    return repr(float(value))


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fmt_json_rejects_what_it_cannot_serialize():
    assert cli._fmt_json({"a": [1, 2.5, None, True, "x\"y"]}) == '{"a": [1, 2.5, null, true, "x\\"y"]}'
    for value in (object(), {"a": {1, 2}}, [b"bytes"]):
        with pytest.raises(TypeError, match="cannot serialize"):
            cli._fmt_json(value)


# One value of each kind a record can hold, numpy scalars among them, and how
# each output writes it: a JSON value, a text line, a CSV cell.
SCALARS = {
    "i64": np.int64(-7), "f32": np.float32(0.1), "f64": np.float64(1 / 3), "inf": math.inf,
    "f32_inf": np.float32("inf"), "nan": np.float64("nan"), "yes": True, "no": False,
    "int": 12345678901, "float": 0.1, "none": None, "np_yes": np.True_, "np_no": np.False_,
}
SCALARS_JSON = (
    '{"i64": -7, "f32": 0.10000000149011612, "f64": 0.33333333333333331, "inf": null, '
    '"f32_inf": null, "nan": null, "yes": true, "no": false, "int": 12345678901, '
    '"float": 0.10000000000000001, "none": null, "np_yes": true, "np_no": false}'
)
SCALARS_TEXT = (
    "i64 = -7\nf32 = 0.100000001\nf64 = 0.333333333\ninf = inf\nf32_inf = inf\nnan = nan\n"
    "yes = True\nno = False\nint = 12345678901\nfloat = 0.1\nnone = null\n"
    "np_yes = True\nnp_no = False\n"
)
SCALARS_CSV = (
    "i64,f32,f64,inf,f32_inf,nan,yes,no,int,float,none,np_yes,np_no\n"
    "-7,0.10000000149011612,0.3333333333333333,inf,inf,nan,True,False,12345678901,0.1,,True,False\n"
)


def test_every_output_writes_numpy_scalars_as_python_ones(capsys):
    # The writers tell ints from floats through `numbers`, not numpy: a numpy
    # integer is an integer, any numpy floating scalar a float, and a bool,
    # numpy's among them, or a large Python int is never formatted as a float.
    assert cli._fmt_json(SCALARS) == SCALARS_JSON
    cli._print_text({"schema": cli.SCHEMA, **SCALARS})
    assert capsys.readouterr().out == SCALARS_TEXT
    out = io.StringIO()
    wl.core._write_csv(out, SCALARS, [SCALARS.values()])
    assert out.getvalue() == SCALARS_CSV


class TestBoundCommand:
    def test_json_single_regime(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "1",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "wavelock/2"
        assert data["regime"] == "SingleP"
        assert data["bound"] == pytest.approx(BOUND_P_REF, rel=1e-13)
        assert data["T"] is None and data["residual_q"] is None
        assert data["lambda2"] == 0.0

    def test_json_round_trips_17_digits(self, capsys):
        _, out, _ = run_cli(
            ["bound", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "0.4",
             "--format", "json"],
            capsys,
        )
        data = json.loads(out)
        report = wl.compute_bound(wl.ProblemParams(0.5, 2, 4, 1.0, 0.4))
        assert data["bound"] == report.bound  # exact round trip
        assert data["lambda2"] == report.lambda2
        assert data["regime"] == "Dual"
        assert data["residual_p"] <= 1e-8

    @pytest.mark.parametrize("B", ["0.4", "1.0"])  # Dual, SingleP
    def test_schema_keys_order_and_values(self, B, capsys):
        argv = ["bound", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", B]
        _, out, _ = run_cli(argv + ["--format", "json"], capsys)
        data = json.loads(out)
        assert list(data) == BOUND_KEYS
        report = wl.compute_bound(wl.ProblemParams(0.5, 2.0, 4.0, 1.0, float(B)))
        for key in BOUND_KEYS[1:-1]:
            source = report.params if key in ("beta", "p", "q", "A", "B") else report
            assert data[key] == getattr(source, key), key
        _, out, _ = run_cli(argv + ["--format", "csv"], capsys)
        assert next(csv.reader(io.StringIO(out))) == BOUND_KEYS[1:]
        _, out, _ = run_cli(argv + ["--format", "text"], capsys)
        assert [line.split(" = ")[0] for line in out.splitlines()] == BOUND_KEYS[1:]

    def test_deterministic_output(self, capsys):
        argv = ["bound", "--beta", "0.5", "--p", "3", "--q", "2", "--A", "1.2", "--B", "1.0",
                "--format", "json"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("wall_time_s"), d2.pop("wall_time_s")
        assert d1 == d2

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "0.4"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert "regime = Dual" in lines
        assert "bound = 0.141630458" in lines  # 9 significant digits in text mode
        code, out, _ = run_cli(
            ["bound", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "1"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert "regime = SingleP" in lines
        assert "T = null" in lines and "residual_q = null" in lines

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "1",
             "--format", "csv"],
            capsys,
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        header, values = rows
        assert header[header.index("regime")] == "regime"
        assert values[header.index("regime")] == "SingleP"
        assert values[header.index("T")] == ""  # null, never 0

    @pytest.mark.parametrize("B", [0.4, 1.0], ids=["dual", "single"])
    def test_csv_bytes(self, B, capsys, monkeypatch):
        # One report serves the command, so wall_time_s is pinned too.
        params = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, B)
        r = wl.compute_bound(params)
        monkeypatch.setattr(cli, "compute_bound", {params: r}.__getitem__)
        code, out, err = run_cli(
            ["bound", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", repr(B),
             "--format", "csv"],
            capsys,
        )
        assert code == 0 and err == ""
        if r.regime == "Dual":
            T, res_q = _cell(r.T), _cell(r.residual_q)
        else:
            assert r.T is None and r.residual_q is None and r.boundary is False
            T = res_q = ""
        values = [
            "0.5", "2.0", "4.0", "1.0", repr(B), r.regime, "False", _cell(r.bound), _cell(r.r1),
            _cell(r.r2), _cell(r.lambda1), _cell(r.lambda2), T, _cell(r.residual_p), res_q,
            _cell(r.wall_time_s),
        ]
        assert out == ",".join(BOUND_KEYS[1:]) + "\n" + ",".join(values) + "\n"

    def test_equal_exponents_exit_2(self, capsys):
        code, _, err = run_cli(
            ["bound", "--beta", "0.5", "--p", "2", "--q", "2", "--A", "1", "--B", "1"],
            capsys,
        )
        assert code == 2
        assert "distinct" in err

    def test_unrepresentable_multiplier_exits_3_or_0(self, capsys):
        # In the dual window, but lambda1 would underflow: a typed solver
        # error (exit 3), never a raw traceback.
        code, out, err = run_cli(
            ["bound", "--beta", "0.4344753046388565", "--p", "5.48591166754509",
             "--q", "2.402783507962045", "--A", "1", "--B", "21.291906208301892",
             "--format", "json"],
            capsys,
        )
        assert code in (0, 3)
        if code == 0:
            data = json.loads(out)
            assert max(data["residual_p"], data["residual_q"]) <= 1e-8
        else:
            assert err.startswith("solver error:")

    def test_nonpositive_exit_2(self, capsys):
        code, _, err = run_cli(
            ["bound", "--beta", "-1", "--p", "2", "--q", "4", "--A", "1", "--B", "1"],
            capsys,
        )
        assert code == 2
        assert "beta" in err

    @pytest.mark.parametrize(
        "argv, expected",
        [
            pytest.param(
                ["bound", "--beta", "0.5", "--p", "50", "--q", "60", "--A", "1e-10", "--B", "1"],
                2, id="bound A^p underflows",
            ),
            pytest.param(
                ["verify", "--beta", "0.5", "--p", "40", "--q", "60", "--A", "1e10", "--B", "1e13"],
                2, id="verify A^p overflows",
            ),
            pytest.param(
                ["profile", "--beta", "0.5", "--p", "40", "--q", "60", "--A", "1e10", "--B", "1e13"],
                2, id="profile A^p overflows",
            ),
            # A^p is in range, but the SingleP multiplier lam^-(p-1) ~ exp(728) is not.
            pytest.param(
                ["bound", "--beta", "0.5", "--p", "50", "--q", "60", "--A", "3.7e-7", "--B", "1"],
                3, id="bound multiplier overflows",
            ),
        ],
    )
    def test_budget_powers_out_of_float_range(self, argv, expected, capsys, tmp_path):
        if argv[0] == "profile":
            argv = argv + ["--out", str(tmp_path / "x.csv")]
        code, out, err = run_cli(argv, capsys)
        assert code == expected
        assert err.startswith(("parameter error: ", "solver error: "))
        assert "Traceback" not in err
        assert out == ""


class TestProfileCommand:
    def test_dual_profile_csv(self, capsys, tmp_path, ref_params, ref_report):
        from wavelock.weight import weight_from_report

        out_path = tmp_path / "profile.csv"
        code, out, _ = run_cli(
            ["profile", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "0.4",
             "--samples", "200", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(out_path.open()))
        assert rows[0] == ["d", "magnitude", "t", "u"]
        assert len(rows) == 201
        mags = np.array([float(r[1]) for r in rows[1:]])
        assert mags[0] == pytest.approx(ref_report.T, rel=1e-10)
        assert np.all(np.diff(mags) <= 0)
        w = weight_from_report(ref_params, ref_report)
        ds = np.linspace(0.0, 1.0, 200, endpoint=False)
        ts = np.linspace(w.peak / 200, w.peak, 200)
        us = wl.u_eval(ts, w.mults, ref_params)
        expected = csv_text(("d", "magnitude", "t", "u"), ds, w.profile()(ds / (1.0 - ds)), ts, us)
        assert out_path.read_bytes() == expected.encode()

    def test_single_profile_matches_closed_form(self, capsys, tmp_path):
        for B, side in (("1", "P"), ("0.2", "Q")):
            out_path = tmp_path / f"single{side}.csv"
            code, _, _ = run_cli(
                ["profile", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", B,
                 "--samples", "100", "--out", str(out_path)],
                capsys,
            )
            assert code == 0
            rows = list(csv.reader(out_path.open()))[1:]
            params = wl.ProblemParams(0.5, 2, 4, 1.0, float(B))
            consts = wl.derive_constants(params)
            lam = wl.single_bound(params, consts, side).lam
            alpha = consts.alpha_p if side == "P" else consts.alpha_q
            for r in rows[::17]:
                d, mag = float(r[0]), float(r[1])
                assert mag == pytest.approx(lam * (1 - d) ** (1 / alpha), rel=1e-10)

    def test_removed_center_flag_exit_2(self, capsys, tmp_path):
        # The profile's columns do not depend on the weight's centre.
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "0.4",
                  "--out", str(tmp_path / "x.csv"), "--center", "0,1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --center 0,1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_io_error_exit_4(self, capsys, tmp_path):
        target = tmp_path / "no_such_dir" / "x.csv"
        code, out, err = run_cli(
            ["profile", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "0.4",
             "--out", str(target)],
            capsys,
        )
        assert code == 4
        assert out == ""
        assert err.startswith("I/O error: ") and str(target) in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_budget_u_is_finite(self, capsys, tmp_path):
        out_path = tmp_path / "profile.csv"
        code, _, _ = run_cli(
            ["profile", "--beta", "0.126811563241098", "--p", "53.15894611749433",
             "--q", "53.8223256414798", "--A", "1.6860579765364995e-06",
             "--B", "1.68276119823051e-06", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        us = np.array([float(r[3]) for r in list(csv.reader(out_path.open()))[1:]])
        assert np.all(np.isfinite(us))
        assert np.all(np.diff(us) <= 0) and us[-1] == 0.0


class TestVerifyCommand:
    def test_json_reports_oracle_certificate(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "0.4",
             "--oracle-points", "800", "--format", "json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["oracle_converged"] is True
        assert data["oracle_duality_gap"] <= 1e-6
        assert data["checks"]["oracle_converged"] is True

    def test_default_runs_the_exact_operator_check(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "0.4",
             "--oracle-points", "800", "--format", "json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert list(data) == VERIFY_KEYS
        assert data["schema"] == "wavelock/2"
        assert [data[k] for k in ("beta", "p", "q", "A", "B")] == [0.5, 2.0, 4.0, 1.0, 0.4]
        assert data["checks"]["operator_window"] is True
        assert abs(data["operator_rel_gap"]) <= 1e-8
        assert data["checks"]["oracle_pointwise"] is True
        assert data["oracle_pointwise_err"] <= 0.02
        # A single-regime weight is the dual one with a multiplier at 0, and
        # its profile is checked pointwise too.
        code, out, _ = run_cli(
            ["verify", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "1",
             "--oracle-points", "800", "--format", "json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["regime"] == "SingleP"
        assert data["checks"]["oracle_pointwise"] is True
        assert data["oracle_pointwise_err"] <= 0.02

    def test_text_format(self, capsys, monkeypatch):
        from wavelock import verifier

        argv = ["verify", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "0.4",
                "--oracle-points", "800"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[:5] == ["beta = 0.5", "p = 2", "q = 4", "A = 1", "B = 0.4"]
        keys = [line.split(" = ")[0] for line in lines if " = " in line]
        assert keys == [k for k in VERIFY_KEYS if k not in ("schema", "checks")]
        assert not any(line.startswith(("checks", "isometry_defects", "operator_iterations", "grid"))
                       for line in lines)
        checks = ["oracle_gap", "oracle_feasible", "oracle_converged", "oracle_pointwise", "operator_window"]
        assert lines[len(keys):] == [f"check {name}: pass" for name in checks]

        # The norm of the weight scaled by 1.5, as in test_corruption_exit_5.
        original = verifier.radial_operator_norm
        monkeypatch.setattr(verifier, "radial_operator_norm", lambda w: 1.5 * original(w))
        code, out, err = run_cli(argv, capsys)
        assert code == 5
        assert out.splitlines()[-1] == "check operator_window: FAIL"
        assert err == "verification failed: operator_window\n"

    def test_corruption_exit_5(self, capsys, monkeypatch):
        from wavelock import verifier

        # The norm of the weight scaled by 1.5, past both budgets.
        original = verifier.radial_operator_norm
        monkeypatch.setattr(verifier, "radial_operator_norm", lambda w: 1.5 * original(w))
        code, _, err = run_cli(
            ["verify", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "0.4",
             "--oracle-points", "800"],
            capsys,
        )
        assert code == 5
        assert "operator_window" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--oracle-points", "50"],
            ["profile", "--samples", "0"],
            ["profile", "--samples", "-3"],
        ],
        ids=" ".join,
    )
    def test_bad_flag_values_exit_2(self, argv, capsys, tmp_path):
        params = ["--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "0.4"]
        if argv[0] == "profile":
            params += ["--out", str(tmp_path / "x.csv")]
        code, out, err = run_cli(argv + params, capsys)
        assert code == 2
        assert err.startswith("parameter error: ") and argv[1] in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_oracle_row_exit_3(self, capsys):
        # A tiny-budget draw that compute_bound solves; at p = 53 the oracle's
        # row p t^(p-1) dt underflows to 0 at the grid's deep nodes.
        code, out, err = run_cli(
            ["verify", "--beta", "0.126811563241098", "--p", "53.15894611749433",
             "--q", "53.8223256414798", "--A", "1.6860579765364995e-06",
             "--B", "1.68276119823051e-06", "--format", "json"],
            capsys,
        )
        assert code == 3 and out == ""
        assert err.startswith("solver error: moment row p underflows to 0"), err

    def test_oracle_failure_exit_3(self, capsys, monkeypatch):
        from wavelock import verifier
        from wavelock.oracle import OracleError

        def failing(*args, **kwargs):
            raise OracleError("grid expansion failed to cover the solution support")

        monkeypatch.setattr(verifier, "run_oracle", failing)
        code, out, err = run_cli(
            ["verify", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "0.4"], capsys
        )
        assert code == 3
        assert err.startswith("solver error: ") and "grid expansion failed" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "flag, value",
        [("--omega-max", "44"), ("--nodes-per-panel", "20"), ("--nx", "301"), ("--ny", "280"),
         ("--inject-corruption", None)],
    )
    def test_removed_grid_flags_exit_2(self, flag, value, capsys):
        params = ["--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "0.4"]
        removed = [flag] if value is None else [flag, value]
        with pytest.raises(SystemExit) as exc:
            main(["verify", *removed, *params])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(removed)}" in err
        assert "Traceback" not in err


class TestVerifyGridLimits:
    PARAMS = ["--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "0.4"]

    @pytest.fixture
    def no_grids(self, monkeypatch):
        """An oracle that raises if reached, so a refused flag provably
        allocates nothing."""
        from wavelock import verifier

        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(verifier, "run_oracle", reached)
        return Reached

    @pytest.mark.parametrize(
        "flags, what",
        [
            (["--oracle-points", "10000000000"], "--oracle-points"),
            (["--oracle-points", "2000001"], "--oracle-points"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else "",
    )
    def test_oversized_grids_exit_2(self, flags, what, no_grids, capsys):
        code, out, err = run_cli(["verify", *flags, *self.PARAMS], capsys)
        assert code == 2
        assert err.startswith("parameter error: ") and what in err
        assert "2000000" in err
        assert out == ""

    def test_limit_is_inclusive(self, no_grids, capsys):
        # 2 000 000 oracle points is exactly the limit: the flag passes and
        # the oracle is reached.
        with pytest.raises(no_grids):
            main(["verify", "--oracle-points", "2000000", *self.PARAMS])

    def test_stated_node_count_is_the_grid_size(self):
        # n_omega = nodes-per-panel x (3 + ceil(omega-max - 1.5)) for the
        # library grid FrequencyGrid.default.
        for omega_max, n_omega in ((0.5, 60), (1.5, 60), (1.6, 80), (44.0, 920), (48.5, 1000), (48.6, 1020)):
            assert FrequencyGrid.default(omega_max, 20).size == n_omega

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["profile", *PARAMS, "--out", "x.csv", "--samples", "2000001"], "--samples"),
            (["scan", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1",
              "--ratio-min", "0.2", "--ratio-max", "0.8", "--steps", "2000001"], "--steps"),
        ],
        ids=["profile", "scan"],
    )
    def test_oversized_rows_exit_2(self, argv, flag, capsys, monkeypatch):
        # compute_bound raises if reached, so a refused value provably builds
        # no array (and profile writes no file).
        from wavelock import cli

        def reached(*args, **kwargs):
            raise AssertionError("compute_bound reached")

        monkeypatch.setattr(cli, "compute_bound", reached)
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("parameter error: ") and flag in err
        assert "2000000" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["profile", "scan"])
    def test_help_states_the_row_limits(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "1 to 2000000" in " ".join(capsys.readouterr().out.split())

    def test_help_states_the_limits(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "100 to 2000000" in out
        for flag in ("--omega-max", "--nodes-per-panel", "--nx", "--ny"):
            assert flag not in out


class TestScanCommand:
    def test_regime_transitions(self, capsys):
        code, out, _ = run_cli(
            ["scan", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1",
             "--ratio-min", "0.2", "--ratio-max", "0.8", "--steps", "13"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 13
        regimes = [r["regime"] for r in rows]
        # SingleQ below r1 ~ 0.2699, Dual between, SingleP above r2 ~ 0.5656.
        assert regimes[0] == "SingleQ"
        assert "Dual" in regimes
        assert regimes[-1] == "SingleP"
        tags = {"SingleQ": 0, "Dual": 1, "SingleP": 2}
        assert [tags[r] for r in regimes] == sorted(tags[r] for r in regimes)
        assert all(r["error"] == "" for r in rows)

    def test_single_step_matches_bound(self, capsys):
        code, out, _ = run_cli(
            ["scan", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1",
             "--ratio-min", "0.4", "--ratio-max", "0.4", "--steps", "1"],
            capsys,
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        report = wl.compute_bound(wl.ProblemParams(0.5, 2, 4, 1.0, 0.4))
        assert float(rows[0]["bound"]) == report.bound
        assert float(rows[0]["lambda1"]) == report.lambda1

    def test_q_sweep_limit(self, capsys):
        code, out, _ = run_cli(
            ["scan", "--beta", "0.5", "--p", "2", "--A", "1", "--B", "0.45",
             "--q-sweep", "8,32,200"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        r2_limit = 0.4886025119029199  # (4 pi sigma_p)^(-1/p) at p = 2, beta = 1/2
        r2_at_200 = float(rows[-1]["r2"])
        assert abs(r2_at_200 - r2_limit) / r2_limit <= 0.02
        r2s = [float(r["r2"]) for r in rows]
        assert abs(r2s[2] - r2_limit) < abs(r2s[0] - r2_limit)

    def test_q_sweep_csv_bytes(self, capsys, monkeypatch):
        reports = {}
        for q in (8.0, 32.0, 200.0):
            params = wl.ProblemParams(0.5, 2.0, q, 1.0, 0.45)
            reports[params] = wl.compute_bound(params)
        monkeypatch.setattr(cli, "compute_bound", reports.__getitem__)
        code, out, err = run_cli(
            ["scan", "--beta", "0.5", "--p", "2", "--A", "1", "--B", "0.45",
             "--q-sweep", "8,32,200,2,1"],
            capsys,
        )
        assert code == 0 and err == ""
        lines = ["ratio,q,regime,bound,lambda1,lambda2,r1,r2,error"]
        for params, r in reports.items():
            assert r.regime == "Dual" and r.r1 is None
            lines.append(
                f"0.45,{params.q!r},Dual,{_cell(r.bound)},{_cell(r.lambda1)},{_cell(r.lambda2)},"
                f",{_cell(r.r2)},"
            )
        lines += [
            "0.45,2.0,,,,,,,ParameterError: p and q must be distinct; "
            "the two-constraint problem degenerates at p = q = 2.0",
            '0.45,1.0,,,,,,,"ParameterError: q must exceed 1, got 1.0"',
        ]
        assert out == "\n".join(lines) + "\n"

    def test_rows_in_input_order(self, capsys):
        code, out, _ = run_cli(
            ["scan", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1",
             "--ratio-min", "0.3", "--ratio-max", "0.5", "--steps", "5"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        ratios = [float(r["ratio"]) for r in rows]
        assert ratios == sorted(ratios)
        assert ratios[0] == pytest.approx(0.3) and ratios[-1] == pytest.approx(0.5)

    def test_flag_validation(self, capsys):
        code, _, err = run_cli(
            ["scan", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1",
             "--ratio-min", "0.3"],
            capsys,
        )
        assert code == 2

    def test_q_sweep_through_p_reports_the_error_in_its_row(self, capsys):
        code, out, err = run_cli(
            ["scan", "--beta", "0.5", "--p", "2", "--A", "1", "--B", "0.45",
             "--q-sweep", "4,2,8"],
            capsys,
        )
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["q"] for r in rows] == ["4.0", "2.0", "8.0"]
        assert rows[1]["error"].startswith("ParameterError: p and q must be distinct")
        assert rows[1]["regime"] == rows[1]["bound"] == ""
        assert rows[0]["error"] == rows[2]["error"] == ""

    def test_q_sweep_not_numbers_exit_2(self, capsys):
        code, out, err = run_cli(
            ["scan", "--beta", "0.5", "--p", "2", "--A", "1", "--B", "0.45", "--q-sweep", "2,x"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("parameter error: --q-sweep expects comma-separated numbers")

    def test_neither_sweep_exit_2(self, capsys):
        code, out, err = run_cli(
            ["scan", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1"], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("parameter error: scan needs either a ratio range or --q-sweep")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--ratio-min", "0.3", "--ratio-max", "0.5"], "ratio sweeps need --q"),
            (["--q-sweep", "4,8"], "q sweeps need --B"),
            (["--q", "4", "--B", "0.4", "--ratio-min", "0.2", "--ratio-max", "0.8", "--steps", "2",
              "--q-sweep", "3,5"], "scan needs either a ratio range or --q-sweep, not both"),
            (["--B", "0.4", "--q-sweep="], "--q-sweep expects comma-separated numbers"),
        ],
        ids=["ratio-without-q", "q-sweep-without-B", "both-sweeps", "empty-q-sweep"],
    )
    def test_sweep_without_its_flag_exit_2(self, argv, message, capsys):
        # A missing flag and a malformed sweep are both cmd_scan's ParameterError.
        code, out, err = run_cli(["scan", "--beta", "0.5", "--p", "2", "--A", "1", *argv], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"parameter error: {message}")

    @pytest.mark.parametrize(
        "argv, ratios",
        [
            (["--A", "0", "--B", "0.4", "--q-sweep", "4"], [""]),
            (["--q", "4", "--A", "0", "--ratio-min", "0.2", "--ratio-max", "0.8", "--steps", "2"], ["", ""]),
            (["--q", "4", "--A", "inf", "--ratio-min", "0.2", "--ratio-max", "0.8", "--steps", "2"],
             ["nan", "nan"]),
            (["--q", "4", "--A", "1e308", "--ratio-min", "0.2", "--ratio-max", "1e10", "--steps", "2"],
             ["0.2", "inf"]),
        ],
        ids=["zero-A-q-sweep", "zero-A-ratios", "infinite-A-ratios", "overflowing-B"],
    )
    def test_invalid_budget_rows_report_their_error(self, argv, ratios):
        # The arithmetic of the sweep itself never raises or warns: each row
        # carries the instance's ParameterError, and an undefined B/A is empty.
        code, out, err = _run_quiet(["scan", "--beta", "0.5", "--p", "2", *argv], _warnings_are_errors)
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["ratio"] for r in rows] == ratios
        assert all(r["error"].startswith("ParameterError: A") and r["regime"] == "" for r in rows)

    @pytest.mark.parametrize(
        "bounds",
        [
            ["--ratio-min", "0.3", "--ratio-max", "inf"],
            ["--ratio-min", "nan", "--ratio-max", "0.5"],
            ["--ratio-min=-1e308", "--ratio-max", "1e308"],
        ],
        ids=["inf-max", "nan-min", "overflowing-difference"],
    )
    def test_non_finite_ratio_range_exit_2(self, bounds, capsys):
        code, out, err = run_cli(
            ["scan", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", *bounds,
             "--steps", "3"],
            capsys,
        )
        assert code == 2
        assert err.startswith("parameter error: ")
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert out == ""


class TestNegativeValues:
    def test_help_states_the_joined_form(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "--ratio-min=-1e308" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value, argv",
        [
            ("--A", "-1e-3", ["bound", "--beta", "0.5", "--p", "2", "--q", "4", "--B", "0.4"]),
            ("--ratio-min", "-inf",
             ["scan", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--ratio-max", "0.5"]),
        ],
        ids=["bound-budget", "scan-range"],
    )
    def test_joined_form_reaches_validation(self, flag, value, argv, capsys):
        # Apart, argparse reads the value as a flag; joined, the program's
        # own check rejects it.
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err
        code, out, err = run_cli([*argv, f"{flag}={value}"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("parameter error: "), err


class TestWideDomainContract:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_draw_is_a_result_or_a_typed_error(self, capsys):
        # The documented outcomes on the wide domain: a bound within the
        # residual gate, or a typed error that the CLI maps to exit 2 or 3.
        # At least the 274 draws that solve with the log-space certificate
        # must keep solving.
        rng = np.random.default_rng(7)
        failed = {}
        solved = 0
        for _ in range(300):
            params = wide_dual_params(rng)
            try:
                report = wl.compute_bound(params)
            except (wl.SolverError, wl.QuadratureError, wl.ParameterError) as exc:
                failed.setdefault(type(exc), params)
                continue
            assert math.isfinite(report.bound) and report.bound > 0.0, params
            assert max(report.residual_p, report.residual_q) <= 1e-8, params
            solved += 1
        assert solved >= 274
        for kind, P in failed.items():
            code, out, err = run_cli(
                ["bound", "--beta", repr(P.beta), "--p", repr(P.p), "--q", repr(P.q),
                 "--A", repr(P.A), "--B", repr(P.B)],
                capsys,
            )
            prefix = "parameter error: " if kind is wl.ParameterError else "solver error: "
            assert code == (2 if kind is wl.ParameterError else 3) and out == "", P
            assert err.startswith(prefix), err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_band_draws_are_results_or_typed_errors(self):
        # The band s in (-1.1, -0.6) of the test-suite domain, where the
        # crossover of the two terms of phi can sink below the rule's
        # deepest panel; no share is asserted.
        rng = np.random.default_rng(11)
        for i in range(200):
            params = band_dual_params(rng, near=i % 2 == 1)
            try:
                report = wl.compute_bound(params)
            except (wl.SolverError, wl.QuadratureError):
                continue
            assert report.regime == "Dual", params
            assert math.isfinite(report.bound) and report.bound > 0.0, params
            assert max(report.residual_p, report.residual_q) <= 1e-8, params

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_budgets_are_results_or_typed_errors(self, capsys):
        # Tiny budgets at large exponents push a multiplier out of the float
        # range; that must be a typed error, not a traceback.  At least the
        # 317 draws that solve with the log-space certificate must keep solving.
        rng = np.random.default_rng(0)
        solved = 0
        for _ in range(600):
            params = tiny_budget_dual_params(rng)
            try:
                report = wl.compute_bound(params)
            except (wl.SolverError, wl.QuadratureError, wl.ParameterError):
                continue
            assert math.isfinite(report.bound) and report.bound > 0.0, params
            assert max(report.residual_p, report.residual_q) <= 1e-8, params
            solved += 1
        assert solved >= 317
        code, out, err = run_cli(
            ["bound", "--beta", "2.770300025191308", "--p", "34.87113477438095",
             "--q", "35.34012933752928", "--A", "7.561609926998425e-10",
             "--B", "7.555968847668618e-10"],
            capsys,
        )
        assert code == 3 and out == ""
        assert err.startswith("solver error: "), err


class TestExtremeValues:
    @pytest.mark.parametrize(
        "argv",
        [
            # 2 beta e + 1 overflows, so alpha and sigma round to 0.
            ["bound", "--beta", "inf", "--p", "2", "--q", "4", "--A", "1", "--B", "0.4"],
            ["bound", "--beta", "1e308", "--p", "2", "--q", "4", "--A", "1", "--B", "0.4"],
            ["verify", "--beta", "1e300", "--p", "1e10", "--q", "4", "--A", "1", "--B", "1"],
            # alpha and sigma are positive, but a threshold is beyond the float range.
            ["bound", "--beta", "1e300", "--p", "1.0000000000000002", "--q", "50", "--A", "1", "--B", "2"],
            ["bound", "--beta", "0.5", "--p", "1.7e308", "--q", "1.0000000000000002", "--A", "1", "--B", "1"],
        ],
        ids=["beta-inf", "beta-1e308", "verify-sigma-p", "r2-overflows", "r1-overflows"],
    )
    def test_constants_out_of_the_float_range_exit_2(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("parameter error: "), err

    def test_scan_reports_vanishing_constants_in_each_row(self, capsys):
        code, out, err = run_cli(
            ["scan", "--beta", "1e308", "--p", "2", "--q", "4", "--A", "1",
             "--ratio-min", "0.3", "--ratio-max", "0.5", "--steps", "2"],
            capsys,
        )
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        assert all(r["error"].startswith("ParameterError: alpha_p, alpha_q, sigma_p, sigma_q") for r in rows)

    def test_single_amplitude_out_of_the_float_range_exit_3(self, capsys):
        # sigma_q = 1.1e-316 is positive, but lam = B (4 pi sigma_q)^(-1/q)
        # overflows: a solver failure, like the multiplier lam^-(q-1).
        code, out, err = run_cli(
            ["bound", "--beta", "1e300", "--p", "2", "--q", "1.0000000000000002", "--A", "50", "--B", "1e-320"],
            capsys,
        )
        assert code == 3 and out == ""
        assert err.startswith("solver error: the single-constraint amplitude"), err

    def test_overflowing_unit_pass_set_up_exit_3(self, capsys):
        # (q - p) log x overflows in the unit pass's set-up; the non-finite
        # value must reach Newton's SolverError, with no RuntimeWarning.
        code, out, err = run_cli(
            ["bound", "--beta", "1.2e-05", "--p", "1.7e308", "--q", "7", "--A", "1", "--B", "2.6e8"],
            capsys,
        )
        assert code == 3 and out == ""
        assert err.startswith("solver error: non-finite"), err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # The q row overflows, so every price of it is nan.
            (["--beta", "1e300", "--p", "2", "--q", "7", "--A", "2", "--B", "7"],
             "every descent ends at a nan objective"),
            (["--beta", "1e-10", "--p", "1.0000000000000002", "--q", "7", "--A", "1e-320",
              "--B", "1.0000000000000002"],
             "the bound underflows to 0.0"),
            # The oracle's own seed grid cannot be set up here
            # (tests/test_oracle.py::TestGrid::test_seed_grid_out_of_the_float_range),
            # but verify's 2 T grid can; there the prices overflow and every
            # descent ends at v = 0.
            (["--beta", "1e300", "--p", "50", "--q", "1.0000000000000002", "--A", "0.5", "--B", "1e300"],
             "the best objective is 0.0 (v = 0) against a dual value of 4.819e+05"),
            (["--beta", "1e-300", "--p", "2", "--q", "1.0000000000000002", "--A", "2", "--B", "1e300"],
             "the best objective is 0.0 (v = 0) against a dual value of 8.190e-18"),
        ],
        ids=["nan-objective", "bound-underflows", "support-endpoint-overflows", "grid-end-overflows"],
    )
    def test_verify_failures_past_the_bound_exit_3(self, argv, message, capsys):
        # The first instance's moment rows (t^(q-1) at t ~ 1e150) and the last
        # two's prices overflow with a RuntimeWarning; the typed error is what
        # is checked here.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out, err = run_cli(["verify", "--format", "json", *argv], capsys)
        assert code == 3 and out == ""
        assert err.startswith(f"solver error: {message}"), err


_EXTREMES = [1e-320, 1e-300, 1e-10, 0.5, 1.0, 1.0000000000000002, 2.0, 7.0, 50.0, 1e10, 1e300, 1.7e308, math.inf]
_EPS = 1.0000000000000002  # the double after 1: q - 1 = 2.2e-16


def _run_quiet(argv, warning_filter):
    """(exit code, stdout, stderr) of main(argv) under warning_filter(), with
    the warnings filters restored afterwards."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warning_filter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _flags(values):
    """--beta, --p, --q, --A and --B, each set to the repr of its value."""
    return [arg for flag, value in zip(("--beta", "--p", "--q", "--A", "--B"), values) for arg in (flag, repr(value))]


def _warnings_are_errors():
    warnings.simplefilter("error", RuntimeWarning)


def _library_warnings_are_errors():
    # The oracle's dual Hessian still overflows on some extreme instances, and
    # that warning stays visible on purpose for
    # test_wide_domain_hessian_stays_finite, so only the solver's and the
    # weight layer's RuntimeWarnings are errors here.
    warnings.simplefilter("ignore", RuntimeWarning)
    warnings.filterwarnings("error", category=RuntimeWarning, module=r"wavelock\.(solver|weight)")


class TestErrorContract:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.tuples(*[st.sampled_from(_EXTREMES)] * 5))
    def test_bound_is_a_result_or_a_typed_error(self, values):
        # Every instance the flags can spell ends in exit 0 within the residual
        # gate, or in exit 2 or 3; never a traceback or a RuntimeWarning.
        argv = ["bound", "--format", "json", *_flags(values)]
        code, out, err = _run_quiet(argv, _warnings_are_errors)
        assert code in (0, 2, 3), (argv, err)
        if code == 0:
            data = json.loads(out)
            assert data["bound"] is not None, argv
            assert all(data[k] is None or data[k] <= 1e-8 for k in ("residual_p", "residual_q")), argv

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.tuples(*[st.sampled_from(_EXTREMES)] * 5))
    def test_profile_is_a_result_or_a_typed_error(self, values):
        # profile runs no oracle, so, as for bound, a RuntimeWarning is an error.
        argv = ["profile", "--out", os.devnull, *_flags(values)]
        code, _, err = _run_quiet(argv, _warnings_are_errors)
        assert code in (0, 2, 3, 4), (argv, err)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.tuples(*[st.sampled_from(_EXTREMES)] * 5))
    def test_scan_is_a_result_or_a_typed_error(self, values):
        # Both sweep forms over the drawn instance: a ratio range that crosses
        # 1 with the drawn q, and a q sweep of the drawn q with the drawn B.
        beta, p, q, A, B = map(repr, values)
        head = ["scan", "--beta", beta, "--p", p, "--A", A]
        for argv in ([*head, "--q", q, "--ratio-min", "0.2", "--ratio-max", "5", "--steps", "3"],
                     [*head, "--B", B, "--q-sweep", q]):
            code, _, err = _run_quiet(argv, _warnings_are_errors)
            assert code in (0, 2), (argv, err)

    @pytest.mark.parametrize(
        "values",
        [
            (_EPS, 50.0, _EPS, 1.0, _EPS),
            (1e-320, 7.0, _EPS, 0.5, 1.0),
            (0.5, 50.0, _EPS, 2.0, 2.0),
            (2.0, 50.0, _EPS, 50.0, 2.0),
            (1e-10, 50.0, _EPS, 1.0, 1.0),
            (1.0, 50.0, _EPS, 2.0, 7.0),
            (0.5, 7.0, _EPS, 1.0, 7.0),
        ],
    )
    def test_profile_next_to_q_1_exits_0(self, values, tmp_path):
        # With q - 1 = 2.2e-16 the q term can hold all of phi; Newton's slope
        # in the inversion of phi must not cancel to 0 there.
        out_path = tmp_path / "profile.csv"
        code, _, err = _run_quiet(["profile", "--out", str(out_path), *_flags(values)], _warnings_are_errors)
        assert code == 0, err
        mags = np.array([float(r[1]) for r in list(csv.reader(out_path.open()))[1:]])
        assert np.all(np.isfinite(mags)) and np.all(mags >= 0.0)
        assert np.all(np.diff(mags) <= 0.0)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.tuples(*[st.sampled_from(_EXTREMES)] * 5))
    def test_verify_is_a_result_or_a_typed_error(self, values):
        # Past compute_bound too, every instance ends in a report (exit 0 or
        # 5) or a typed error (exit 2 or 3), never a traceback.
        argv = ["verify", "--format", "json", *_flags(values)]
        code, _, err = _run_quiet(argv, _library_warnings_are_errors)
        assert code in (0, 2, 3, 5), (argv, err)

    @pytest.mark.parametrize(
        "values, expected",
        [
            ((_EPS, 50.0, _EPS, 1.0, _EPS), 0),
            ((0.5, 50.0, _EPS, 2.0, 2.0), 0),
            ((2.0, 50.0, _EPS, 50.0, 2.0), 0),
            ((1.0, 50.0, _EPS, 2.0, 7.0), 0),
            ((0.5, 7.0, _EPS, 1.0, 7.0), 0),
            # The bound is subnormal, and the oracle's best objective is 0.0.
            ((1e-300, 7.0, _EPS, 1e-10, 1e10), 3),
        ],
    )
    def test_verify_next_to_q_1(self, values, expected):
        code, out, err = _run_quiet(["verify", "--format", "json", *_flags(values)], _library_warnings_are_errors)
        assert code == expected, err
        if code == 0:
            assert json.loads(out)["bound"] > 0.0
        else:
            assert out == "" and err.startswith("solver error: the best objective is 0.0 (v = 0)"), err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wavelock.cli", "bound", "--beta", "0.5",
             "--p", "2", "--q", "4", "--A", "1", "--B", "1", "--format", "json"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["regime"] == "SingleP"

    @staticmethod
    def _fresh_interpreter(code):
        src = os.path.dirname(os.path.dirname(wl.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )

    def test_import_pulls_in_no_scipy(self):
        # scipy is a test dependency only; a cold start must not import it.
        code = (
            "import sys, wavelock.cli; "
            "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
        )
        proc = self._fresh_interpreter(code)
        assert proc.returncode == 0, proc.stderr

    def test_bound_loads_only_what_it_runs(self):
        # bound runs on core, closed_form and solver; verify loads the rest.
        ref = ["--beta", "0.5", "--p", "2", "--q", "4", "--A", "1", "--B", "0.4"]
        code = (
            "import sys, wavelock.cli\n"
            "later = {'wavelock.oracle', 'wavelock.verifier', 'wavelock.weight'}\n"
            f"assert wavelock.cli.main(['bound', *{ref!r}, '--format', 'json']) == 0\n"
            "assert not later & set(sys.modules), sorted(later & set(sys.modules))\n"
            f"assert wavelock.cli.main(['verify', *{ref!r}]) == 0\n"
            "assert later <= set(sys.modules)\n"
        )
        proc = self._fresh_interpreter(code)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[0])["regime"] == "Dual"

    # A single-regime bound, --help and a parameter error form no array, so
    # they never import numpy; core's handle imports it at the first array.
    @pytest.mark.parametrize(
        "argv, code",
        [
            *(pytest.param(["bound", *flags, "--format", fmt], 0, id=f"{regime}-{fmt}")
              for regime, flags in (("SingleP", SINGLE_P_FLAGS), ("SingleQ", SINGLE_Q_FLAGS))
              for fmt in ("json", "csv", "text")),
            pytest.param(["--help"], 0, id="help"),
            pytest.param(["bound", "--beta", "0.5", "--p", "2", "--q", "2", "--A", "1", "--B", "1"], 2,
                         id="p-equals-q"),
        ],
    )
    def test_single_regime_commands_never_import_numpy(self, argv, code):
        proc = self._fresh_interpreter(
            "import sys, wavelock.cli\n"
            "try:\n"
            f"    code = wavelock.cli.main({argv!r})\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
            "sys.exit(code)\n"
        )
        assert proc.returncode == code, proc.stderr

    # verify and profile load their layers before they check their flags, and
    # those layers too reach numpy only through core's handle.
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", *REF_FLAGS, "--oracle-points", "50"],
            ["verify", "--beta", "0.5", "--p", "2", "--q", "2", "--A", "1", "--B", "1"],
            ["profile", "--beta", "0.5", "--p", "2", "--q", "2", "--A", "1", "--B", "1", "--out", os.devnull],
            ["scan", "--beta", "0.5", "--p", "2", "--A", "1", "--q-sweep", "4"],
        ],
        ids=["verify-grid", "verify-p-equals-q", "profile-p-equals-q", "scan-without-B"],
    )
    def test_parameter_errors_never_import_numpy(self, argv):
        proc = self._fresh_interpreter(
            "import sys, wavelock.cli\n"
            f"code = wavelock.cli.main({argv!r})\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
            "sys.exit(code)\n"
        )
        assert proc.returncode == 2, proc.stderr

    def test_dual_bound_loads_numpy(self):
        proc = self._fresh_interpreter(
            "import sys, wavelock.cli\n"
            "assert 'numpy' not in sys.modules\n"
            f"assert wavelock.cli.main(['bound', *{REF_FLAGS!r}]) == 0\n"
            "assert 'numpy' in sys.modules\n"
        )
        assert proc.returncode == 0, proc.stderr

    def test_single_regime_records_do_not_depend_on_numpy_being_loaded(self):
        # wall_time_s is pinned to 0 by a constant clock, so the records of
        # the two interpreters can be compared byte for byte.
        runs = "".join(
            f"wavelock.cli.main(['bound', *{flags!r}, '--format', {fmt!r}])\n"
            for flags in (SINGLE_P_FLAGS, SINGLE_Q_FLAGS) for fmt in ("json", "csv", "text")
        )
        body = "import time, wavelock.cli\ntime.perf_counter = lambda: 0.0\n" + runs
        without, with_numpy = (self._fresh_interpreter(head + body) for head in ("", "import numpy\n"))
        assert without.returncode == with_numpy.returncode == 0, without.stderr + with_numpy.stderr
        assert without.stdout == with_numpy.stdout
        assert without.stdout.count('"wall_time_s": 0}') == 2
        assert without.stdout.count("regime = SingleP") == without.stdout.count("regime = SingleQ") == 1

    @pytest.mark.parametrize("spacing", [0.0, 0.01], ids=["together", "10ms-apart"])
    def test_first_dual_bounds_from_eight_threads_at_once(self, spacing, ref_report):
        # Eight threads meet at a barrier and then make the process's first
        # dual bound, so they read core's numpy handle while numpy loads:
        # together, or 10 ms apart, which spreads their first reads over the
        # import (tens of milliseconds), a partly initialised numpy included.
        proc = self._fresh_interpreter(
            "import sys, threading, time\n"
            "from wavelock import ProblemParams, compute_bound\n"
            "assert 'numpy' not in sys.modules\n"
            "barrier, out = threading.Barrier(8), [None] * 8\n"
            "def run(i):\n"
            "    barrier.wait()\n"
            f"    time.sleep({spacing!r} * i)\n"
            "    try:\n"
            "        out[i] = repr(compute_bound(ProblemParams(0.5, 2.0, 4.0, 1.0, 0.4)).bound)\n"
            "    except Exception as exc:\n"
            "        out[i] = f'{type(exc).__name__}: {exc}'\n"
            "threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]\n"
            "for t in threads:\n"
            "    t.start()\n"
            "for t in threads:\n"
            "    t.join()\n"
            "print('\\n'.join(out))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [repr(ref_report.bound)] * 8

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for code in ("0", "2", "3", "4", "5"):
            assert code in out
