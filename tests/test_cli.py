import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatgauss.cli import main
from heatgauss.config import RunConfig, load_run_config, parse_config_text
from heatgauss.errors import ConfigurationError, EllipticityError
from heatgauss.reporting import format_value, line_plot_svg, ratio_table_svg, write_csv

LAPLACE_CFG = """
# reference Laplacian run
[operator]
source = laplace-pi
n = 120

[schedule]
gamma = 0.0 0.4

[sweep]
t_grid = 0.05 0.1 0.2 0.5 1.0 2.0
lam_grid = 0.0 1.0
c2_grid = 0.01 0.05 0.1 0.25
samples = 8
seed = 42
"""


POLY3_CFG = """
[operator]
source = polyharmonic
m = 3
L = 1.0
n = 40

[schedule]
gamma = 0.0 0.4

[sweep]
seed = 3
"""


@pytest.fixture()
def laplace_cfg(tmp_path):
    path = tmp_path / "laplace.cfg"
    path.write_text(LAPLACE_CFG, encoding="utf-8")
    return str(path)


class TestConfigParser:
    def test_sections_and_comments(self):
        out = parse_config_text("[a]\nx = 1 # trailing\n# full line\n[b]\ny = two words\n")
        assert out == {"a": {"x": "1"}, "b": {"y": "two words"}}

    def test_error_carries_line_and_column(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_config_text("[a]\nnot-an-assignment\n")
        with pytest.raises(ConfigurationError, match="line 1, column 1"):
            parse_config_text("x = 1\n")

    def test_malformed_header(self):
        with pytest.raises(ConfigurationError, match="malformed section"):
            parse_config_text("[a\nx = 1\n")

    def test_run_config_bounds(self):
        with pytest.raises(ConfigurationError):
            RunConfig(m=4, length=1.0, n=100, source="polyharmonic", gamma_list=[0.0])
        with pytest.raises(ConfigurationError):
            RunConfig(m=1, length=1.0, n=1000, source="polyharmonic", gamma_list=[0.0])

    def test_profile_defaults(self, laplace_cfg):
        cfg = load_run_config(laplace_cfg)
        assert cfg.m == 1
        assert cfg.length == pytest.approx(math.pi)
        assert cfg.seed == 42
        assert cfg.gamma_list == [0.0, 0.4]

    def test_missing_m_for_custom_operator(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[operator]\nsource = polyharmonic\nn = 50\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="missing the required key `m`"):
            load_run_config(str(path))

    def test_seed_override(self, laplace_cfg):
        assert load_run_config(laplace_cfg, seed_override=7).seed == 7

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        key=st.sampled_from([("operator", "n"), ("operator", "m"), ("sweep", "samples"), ("sweep", "seed")]),
        value=st.one_of(
            st.integers().map(str),
            st.floats().map(repr),
            # no line breaks (str.splitlines splits on all of these) and no comment marker
            st.text(st.characters(exclude_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029#",
                                  exclude_categories=("Cs",)), max_size=12),
        ),
    )
    def test_integer_keys_load_or_raise_configuration_error(self, tmp_path_factory, key, value):
        sections = {"operator": {"source": "polyharmonic", "m": "1", "L": "1.0", "n": "20"}, "sweep": {}}
        sections[key[0]][key[1]] = value
        text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                       for name, body in sections.items())
        path = tmp_path_factory.mktemp("cfg") / "run.cfg"
        path.write_text(text, encoding="utf-8")
        try:
            cfg = load_run_config(str(path))
        except ConfigurationError:
            return
        field = {"samples": "sample_count"}.get(key[1], key[1])
        assert type(getattr(cfg, field)) is int


class TestCliRuns:
    def test_spectrum_gap_oracle(self, laplace_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["spectrum", "--config", laplace_cfg, "--out", str(out)])
        assert code == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "index,eigenvalue"
        gap = float((out / "gap.csv").read_text().splitlines()[1])
        assert abs(gap - 1.0) / 1.0 <= 5e-3

    def test_kernel_dump_schema(self, laplace_cfg, tmp_path):
        out = tmp_path / "out"
        code = main(["kernel", "--config", laplace_cfg, "--out", str(out)])
        assert code == 0
        lines = (out / "kernel.csv").read_text().splitlines()
        assert lines[0] == "t,x,y,d_x,d_y,k,envelope,ratio"
        assert len(lines) > 1
        first = lines[1].split(",")
        assert len(first) == 8
        # envelope dominates the kernel at the fitted constants
        ratios = [float(ln.split(",")[-1]) for ln in lines[1:]]
        assert max(ratios) <= 1.0 + 1e-9

    @pytest.mark.parametrize("config, coefficients", [
        pytest.param("[operator]\nsource = polyharmonic\n", None, id="missing-m"),
        pytest.param("[operator]\nsource = laplace-pi\nn = 1e2\n", None, id="n-not-integer"),
        pytest.param("[operator]\nsource = polyharmonic\nm = two\nL = 1\n", None, id="m-not-numeric"),
        pytest.param("[operator]\nsource = polyharmonic\nm = 1\nL = one\n", None, id="L-not-numeric"),
        pytest.param("[operator]\nsource = polyharmonic\nm = 1\nL = inf\n", None, id="L-not-finite"),
        pytest.param("[operator]\nsource = laplace-pi\n[sweep]\nsamples = 8.5\n", None, id="samples-not-integer"),
        pytest.param("[operator]\nsource = laplace-pi\n[sweep]\nseed = x\n", None, id="seed-not-numeric"),
        pytest.param("[operator]\nsource = laplace-pi\nm = 2\n", None, id="profile-m-mismatch"),
        pytest.param("[operator]\nsource = csv:{csv}\nm = 1\nL = 1\nn = 20\n",
                     "i,j,x,value\n1.5,1,0.0,1.0\n", id="csv-i-not-integer"),
        pytest.param("[operator]\nsource = csv:{csv}\nm = 1\nL = 1\nn = 20\n",
                     "i,j,x,value\n1,1,zero,1.0\n", id="csv-x-not-numeric"),
        pytest.param("[operator]\nsource = csv:{csv}\nm = 1\nL = 1\nn = 20\n",
                     "i,j,x,value\n1,1,0.0,high\n", id="csv-value-not-numeric"),
        pytest.param("[operator]\nsource = csv:{csv}\nm = 1\nL = 1\nn = 20\n", None, id="csv-missing-file"),
        pytest.param("[operator]\nsource = laplace-pi\n[schedule]\ngamma = 5\n", None, id="gamma-inadmissible"),
        pytest.param("[operator]\nsource = laplace-pi\n[schedule]\neps = 0.75\n", None, id="eps-inadmissible"),
        pytest.param("[operator]\nsource = laplace-pi\n[schedule]\ngamma =\n", None, id="gamma-empty"),
        pytest.param("[operator]\nsource = laplace-pi\n[sweep]\nt_grid = -0.1 0.5 1.0\n", None, id="t-grid-negative"),
        pytest.param("[operator]\nsource = laplace-pi\n[sweep]\nc2_grid = -0.1 0.5\n", None, id="c2-grid-negative"),
        pytest.param("[operator]\nsource = csv:{csv}\nm = 1\nL = 1\nn = 40\n",
                     "i,j,x,value\n1,1,0.0,1.0\n0,0,0.0,-50\n", id="csv-not-positive"),
        pytest.param("[operator]\nsource = csv:{csv}\nm = 1\nL = 1\nn = 20\n",
                     "i,j,x,value\n1,1,0.0,1.0\n0,1,0.0,0.5\n", id="csv-non-hermitian-missing"),
        pytest.param("[operator]\nsource = csv:{csv}\nm = 1\nL = 1\nn = 20\n",
                     "i,j,x,value\n1,1,0.0,1.0\n0,1,0.0,0.5\n1,0,0.0,0.25\n", id="csv-non-hermitian-unequal"),
    ])
    def test_malformed_config_exits_2_without_artifacts(self, tmp_path, capsys, config, coefficients):
        csv_path = tmp_path / "coeffs.csv"
        if coefficients is not None:
            csv_path.write_text(coefficients, encoding="utf-8")
        bad = tmp_path / "bad.cfg"
        bad.write_text(config.format(csv=csv_path), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["spectrum", "--config", str(bad), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("config error: ")

    def test_kernel_dump_reads_zero_over_zero_as_zero(self, tmp_path):
        # the m = 3 kernel and envelope both underflow at the larger t
        cfg = tmp_path / "poly3.cfg"
        cfg.write_text(POLY3_CFG, encoding="utf-8")
        out = tmp_path / "out"
        main(["kernel", "--config", str(cfg), "--out", str(out)])
        rows = [[float(v) for v in ln.split(",")] for ln in (out / "kernel.csv").read_text().splitlines()[1:]]
        both_zero = [r for r in rows if r[5] == 0.0 and r[6] == 0.0]
        assert both_zero and all(r[7] == 0.0 for r in both_zero)
        for *_, k, env, ratio in rows:
            if env > 0:
                assert ratio == abs(k) / env
            elif k != 0:
                assert ratio == math.inf

    def test_verify_inequalities_passes(self, laplace_cfg, tmp_path):
        out = tmp_path / "out"
        code = main(["verify-inequalities", "--config", laplace_cfg, "--out", str(out)])
        assert code == 0
        text = (out / "verify_inequalities.csv").read_text()
        assert "false" not in text.split("\n", 1)[1]

    def test_verify_inequalities_runs_one_eigensolve(self, tmp_path, monkeypatch):
        # the Laplacian has closed-form modes and the ellipticity comes from
        # Cholesky factors: only the configured operator is decomposed
        from heatgauss import spectral

        calls = []
        solve = spectral.jacobi_eigh

        def counted(M):
            calls.append(M.shape)
            return solve(M)

        monkeypatch.setattr(spectral, "jacobi_eigh", counted)
        cfg = tmp_path / "poly3.cfg"
        cfg.write_text(POLY3_CFG, encoding="utf-8")
        main(["verify-inequalities", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert calls == [(40, 40)]

    def test_ellipticity_error_is_a_failing_row(self, tmp_path, capsys, monkeypatch):
        from heatgauss import cli

        def reject(form, grid, m):
            raise EllipticityError("form is not positive definite: a pencil extreme is non-positive")

        monkeypatch.setattr(cli, "measure_ellipticity", reject)
        cfg = tmp_path / "poly3.cfg"
        cfg.write_text(POLY3_CFG, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["verify-inequalities", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "FAIL ellipticity" in err and "Traceback" not in err
        rows = list(csv.reader((out / "verify_inequalities.csv").open(encoding="utf-8", newline="")))
        (row,) = [r for r in rows if r[0] == "ellipticity"]
        assert row == ["ellipticity", "m=3", "nan", "false",
                       "error=form is not positive definite: a pencil extreme is non-positive"]
        assert all(r[3] == "true" for r in rows[1:] if r[0] != "ellipticity")

    def test_verify_bounds_without_sobolev_nodes_fails_that_row(self, tmp_path, capsys):
        # at n = 3 the runner's nodes range(2, n - 2, ...) are empty: no C is measured
        cfg = tmp_path / "poly3.cfg"
        cfg.write_text(POLY3_CFG.replace("n = 40", "n = 3"), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["verify-bounds", "--config", str(cfg), "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        rows = list(csv.reader((out / "verify_bounds.csv").open(encoding="utf-8", newline="")))[1:]
        assert [r[0] for r in rows[:4]] == ["fit-envelope", "sobolev-pointwise"] * 2
        for fit, sob in (rows[0:2], rows[2:4]):
            assert fit[3] == "true"
            assert sob[2:4] == ["nan", "false"] and sob[4].startswith("error=no evaluation nodes")

    @pytest.mark.parametrize("sub", ["spectrum", "kernel", "verify-bounds", "verify-twist",
                                     "verify-inequalities", "report"])
    def test_general_csv_table_runs_every_subcommand(self, sub, tmp_path, capsys):
        # m = 2 on (0, 1) with a_12 = a_21 != 0 and |a_12|^2 < a_11 a_22: uniformly elliptic
        xs = np.linspace(0.0, 1.0, 9)
        u = np.random.default_rng(5).uniform(0.0, 1.0, size=(4, xs.size))
        a12 = 0.1 * (2.0 * u[3] - 1.0)
        table = {(0, 0): 0.5 * u[0], (1, 1): 0.2 + 0.5 * u[1], (2, 2): 1.0 + 0.5 * u[2], (1, 2): a12, (2, 1): a12}
        lines = ["i,j,x,value"] + [f"{i},{j},{float(x)!r},{float(v)!r}"
                                   for (i, j), vals in sorted(table.items()) for x, v in zip(xs, vals)]
        coeffs = tmp_path / "general.csv"
        coeffs.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = tmp_path / "general.cfg"
        cfg.write_text(f"[operator]\nsource = csv:{coeffs}\nm = 2\nL = 1.0\nn = 40\n\n[sweep]\nseed = 3\n",
                       encoding="utf-8")
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_verify_twist_passes(self, laplace_cfg, tmp_path):
        out = tmp_path / "out"
        code = main(["verify-twist", "--config", laplace_cfg, "--out", str(out)])
        assert code == 0

    def test_verify_bounds_deterministic(self, laplace_cfg, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(["verify-bounds", "--config", laplace_cfg, "--out", str(out1)]) == 0
        assert main(["verify-bounds", "--config", laplace_cfg, "--out", str(out2)]) == 0
        assert (out1 / "verify_bounds.csv").read_bytes() == (out2 / "verify_bounds.csv").read_bytes()

    def test_report_artifacts(self, laplace_cfg, tmp_path):
        out = tmp_path / "out"
        code = main(["report", "--config", laplace_cfg, "--out", str(out)])
        assert code == 0
        for name in ("kernel_boundary.svg", "longtime_norm.svg", "envelope_ratio.svg"):
            body = (out / name).read_text()
            assert body.startswith("<?xml")
            assert "<svg" in body

    def test_report_m3_underflow_is_a_failing_row(self, tmp_path, capsys):
        # the m = 3 kernel underflows at the median t, leaving the boundary plot empty
        cfg = tmp_path / "poly3.cfg"
        cfg.write_text(POLY3_CFG, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["report", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "FAIL report-boundary" in err and "witness:" in err
        assert "Traceback" not in err
        for name in ("kernel_boundary.svg", "longtime_norm.svg", "envelope_ratio.svg"):
            assert (out / name).read_text().startswith("<?xml")
        assert "<polyline" not in (out / "kernel_boundary.svg").read_text()

    def test_verify_bounds_m3_unresolved_longtime_rate_is_a_failing_row(self, tmp_path, capsys):
        # at m = 3, n = 40, only t = 0.0129 keeps sup|k| above the regression floor
        cfg = tmp_path / "poly3.cfg"
        cfg.write_text(POLY3_CFG.replace("[sweep]\n", "[sweep]\nt_grid = 0.0129 0.02 0.05\n"), encoding="utf-8")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.RankWarning)
            code = main(["verify-bounds", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "FAIL longtime-rate" in err and "two distinct t" in err
        assert "Traceback" not in err
        rows = [ln.split(",") for ln in (out / "verify_bounds.csv").read_text().splitlines()]
        (row,) = [r for r in rows if r[0] == "longtime-rate"]
        assert row[2:4] == ["nan", "false"] and row[4].startswith("error=")


class TestCsvWriter:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(rows=st.lists(
        st.lists(st.one_of(st.text(), st.floats(), st.integers(), st.booleans()), min_size=1, max_size=5),
        min_size=1, max_size=6,
    ))
    def test_rows_round_trip_through_csv_reader(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(str(path), ["a"], rows)
        with open(path, encoding="utf-8", newline="") as fh:
            back = list(csv.reader(fh))
        assert back == [["a"]] + [[format_value(v) for v in row] for row in rows]

    def test_plain_fields_keep_their_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), ["check", "witness"],
                  [["x", "a=1;b=2"], ["y", "error=direct=1, leibniz=2"], ["z", 'say "hi"']])
        assert path.read_text(encoding="utf-8") == (
            'check,witness\nx,a=1;b=2\ny,"error=direct=1, leibniz=2"\nz,"say ""hi"""\n'
        )


class TestRatioTable:
    def test_non_finite_entries_are_drawn(self, tmp_path):
        path = tmp_path / "ratio.svg"
        ratio_table_svg(str(path), np.array([[0.0, 0.5], [math.inf, math.nan]]), "r")
        body = path.read_text()
        assert body.count("<rect") == 5  # background plus four cells
        assert body.count('fill="rgb(255,0,0)"') == 2
        assert 'fill="rgb(0,0,0)"' in body and 'fill="rgb(255,255,255)"/>' in body


class TestLinePlot:
    def test_empty_series(self, tmp_path):
        path = tmp_path / "empty.svg"
        line_plot_svg(str(path), [("none", np.empty(0), np.empty(0))], "t", "x", "y")
        body = path.read_text()
        assert body.rstrip().endswith("</svg>")
        assert "<polyline" not in body and ">none</text>" in body

    def test_empty_series_beside_data(self, tmp_path):
        path = tmp_path / "mixed.svg"
        line_plot_svg(str(path), [("none", [], []), ("data", [0.0, 1.0], [2.0, 3.0])], "t", "x", "y")
        assert path.read_text().count("<polyline") == 1
