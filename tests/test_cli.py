import csv
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatgauss import bounds as bounds_mod
from heatgauss import cli as cli_mod
from heatgauss import twist as twist_mod
from heatgauss.assembly import OperatorSpec, assemble_form, load_coefficients_csv
from heatgauss.cli import main
from heatgauss.config import RunConfig, load_run_config, parse_config_text
from heatgauss.core import Grid1D
from heatgauss.errors import ConfigurationError, EllipticityError, PropertyViolation, ResolutionWarning
from heatgauss.reporting import format_value, line_plot_svg, ratio_table_svg, witness_text, write_csv

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


def general_csv_config(tmp_path, n: int):
    """Config for a csv: source holding a seeded non-diagonal m = 2 table on (0, 1) at n nodes:
    a_12 = a_21 != 0 with |a_12|^2 < a_11 a_22, so the operator is uniformly elliptic."""
    xs = np.linspace(0.0, 1.0, 9)
    u = np.random.default_rng(5).uniform(0.0, 1.0, size=(4, xs.size))
    a12 = 0.1 * (2.0 * u[3] - 1.0)
    table = {(0, 0): 0.5 * u[0], (1, 1): 0.2 + 0.5 * u[1], (2, 2): 1.0 + 0.5 * u[2], (1, 2): a12, (2, 1): a12}
    lines = ["i,j,x,value"] + [f"{i},{j},{float(x)!r},{float(v)!r}"
                               for (i, j), vals in sorted(table.items()) for x, v in zip(xs, vals)]
    coeffs = tmp_path / "general.csv"
    coeffs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = tmp_path / "general.cfg"
    cfg.write_text(f"[operator]\nsource = csv:{coeffs}\nm = 2\nL = 1.0\nn = {n}\n\n[sweep]\nseed = 3\n",
                   encoding="utf-8")
    return cfg


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
        with pytest.raises(ConfigurationError, match="n must be 16..800, got 15"):
            RunConfig(m=1, length=1.0, n=15, source="polyharmonic", gamma_list=[0.0])
        assert RunConfig(m=1, length=1.0, n=16, source="polyharmonic", gamma_list=[0.0]).n == 16

    def test_profile_defaults(self, laplace_cfg):
        cfg = load_run_config(laplace_cfg)
        assert cfg.m == 1
        assert cfg.length == pytest.approx(math.pi)
        assert cfg.seed == 42
        assert cfg.gamma_list == [0.0, 0.4]

    def test_eps_schedule(self, tmp_path):
        path = tmp_path / "eps.cfg"
        path.write_text("[operator]\nsource = laplace-pi\nn = 40\n[schedule]\neps = 0.3\n", encoding="utf-8")
        (schedule,) = load_run_config(str(path)).schedules
        assert schedule.eps == 0.3 and schedule.gamma == pytest.approx(0.2)

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
        # |lam| * L = 100 pi past the twist cap of 40
        pytest.param("[operator]\nsource = laplace-pi\nn = 40\n[sweep]\nlam_grid = 0 100\n", None,
                     id="lam-grid-past-cap"),
        pytest.param("[operator]\nsource = laplace-pi\nn = 40\n[sweep]\nlam_grid = inf\n", None,
                     id="lam-grid-infinite"),
        pytest.param("[operator]\nsource = laplace-pi\nn = 40\n[sweep]\nlam_grid = nan\n", None,
                     id="lam-grid-nan"),
        # the m = 3 diagonal entry 20/h^6 is 4.8e248, whose square overflows; at m = 1, 1/h^2 itself does
        pytest.param("[operator]\nsource = polyharmonic\nm = 3\nL = 1e-40\nn = 16\n", None, id="scale-overflow-m3"),
        pytest.param("[operator]\nsource = polyharmonic\nm = 1\nL = 1e-200\nn = 16\n", None, id="scale-overflow-m1"),
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

    @pytest.mark.parametrize("section, named", [
        pytest.param("[sweep]\nt-grid = 0.1 0.2\n", "[sweep] unknown key `t-grid`", id="t-grid"),
        pytest.param("[sweep]\nsamles = 8\n", "[sweep] unknown key `samles`", id="samles"),
        pytest.param("[sweep]\nn = 80\n", "[sweep] unknown key `n`", id="key-in-another-section"),
        pytest.param("[sweeep]\nseed = 3\n", "unknown section [sweeep]", id="sweeep"),
        pytest.param("[schedule]\ngamma = 0.4\neps = 0.3\n", "both `gamma` and `eps`", id="gamma-and-eps"),
    ])
    def test_unknown_or_doubled_entry_exits_2_naming_it(self, tmp_path, capsys, section, named):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("[operator]\nsource = laplace-pi\nn = 40\n" + section, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["verify-bounds", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err and err.count("\n") == 1
        assert not out.exists()

    def test_refine_past_the_largest_grid_exits_2_before_decomposing(self, tmp_path, capsys, monkeypatch):
        built = []

        def build_form(cfg, n):
            built.append(n)
            raise ConfigurationError("stopped before the decomposition")

        monkeypatch.setattr(cli_mod, "_build_form", build_form)
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        cfg.write_text("[operator]\nsource = laplace-pi\nn = 401\n", encoding="utf-8")
        assert main(["verify-bounds", "--config", str(cfg), "--out", str(out), "--refine"]) == 2
        err = capsys.readouterr().err
        assert built == [] and err.startswith("config error: --refine") and "2n = 802" in err
        cfg.write_text("[operator]\nsource = laplace-pi\nn = 400\n", encoding="utf-8")
        assert main(["verify-bounds", "--config", str(cfg), "--out", str(out), "--refine"]) == 2
        assert built == [400] and "stopped before" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_bounds_refine_passes(self, tmp_path):
        # the default grids, on which the refined mesh admits t slices below the ones the fit reads
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        cfg.write_text("[operator]\nsource = laplace-pi\nn = 40\n", encoding="utf-8")
        assert main(["verify-bounds", "--config", str(cfg), "--out", str(out), "--refine"]) == 0
        rows = list(csv.DictReader((out / "verify_bounds.csv").open(encoding="utf-8")))
        assert [r["check"] for r in rows][:2] == ["fit-envelope", "sobolev-pointwise"]
        assert all(r["passed"] == "true" for r in rows)

    def test_default_lam_grid_keeps_the_twists_a_long_interval_admits(self, tmp_path, capsys):
        # 2 * 30 is past the twist cap of 40: the default grid drops lam = 2 instead of exiting 2
        cfg = tmp_path / "long.cfg"
        cfg.write_text("[operator]\nsource = polyharmonic\nm = 1\nL = 30\nn = 40\n", encoding="utf-8")
        assert load_run_config(str(cfg)).lam_grid == [0.0, 0.5, 1.0]
        at_20 = RunConfig(m=1, length=20.0, n=40, source="polyharmonic", gamma_list=[0.0])
        assert at_20.lam_grid == [0.0, 0.5, 1.0, 2.0]
        codes = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)  # the default t grid starts below h^2 here
            for sub in cli_mod.SUBCOMMANDS:
                codes[sub] = main([sub, "--config", str(cfg), "--out", str(tmp_path / sub)])
                assert "lam_grid" not in capsys.readouterr().err
        assert codes["spectrum"] == codes["verify-inequalities"] == 0
        # the twisted kernel's two routes at lam = 1 (weights up to e^15) agree within their error scale
        assert codes["verify-twist"] == 0
        rows = list(csv.DictReader((tmp_path / "verify-twist" / "verify_twist.csv").open(encoding="utf-8")))
        fits = [r["params"] for r in rows if r["check"] == "twisted-norm-fit"]
        assert fits == ["lam=0;n=40", "lam=0.5;n=40", "lam=1;n=40"]
        # an explicit entry past the cap still exits 2
        cfg.write_text("[operator]\nsource = polyharmonic\nm = 1\nL = 30\nn = 40\n[sweep]\nlam_grid = 0 2\n",
                       encoding="utf-8")
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "explicit")]) == 2
        assert "lam_grid" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", [s for s in cli_mod.SUBCOMMANDS if s != "verify-bounds"])
    def test_refine_outside_verify_bounds_exits_2(self, tmp_path, capsys, sub):
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        cfg.write_text("[operator]\nsource = laplace-pi\nn = 40\n", encoding="utf-8")
        assert main([sub, "--config", str(cfg), "--out", str(out), "--refine"]) == 2
        assert capsys.readouterr().err == f"config error: --refine applies to verify-bounds only, not to {sub}\n"
        assert not out.exists()

    def test_kernel_dump_reads_zero_over_zero_as_zero(self, tmp_path):
        # every row's k and ratio are the kernel block and envelope_ratios on it, exactly; the
        # m = 3 kernel and envelope both underflow at the larger t, where the ratio reads 0
        from heatgauss.cli import _decompose, _fitted_envelope

        path = tmp_path / "poly3.cfg"
        path.write_text(POLY3_CFG, encoding="utf-8")
        out = tmp_path / "out"
        main(["kernel", "--config", str(path), "--out", str(out)])
        rows = np.array([[float(v) for v in ln.split(",")] for ln in (out / "kernel.csv").read_text().splitlines()[1:]])
        cfg = load_run_config(str(path))
        _, _, ev = _decompose(cfg)
        _, env = _fitted_envelope(cfg, ev)
        idx = bounds_mod.sample_indices(cfg.n, max(cfg.n // 24, 1))
        ts = bounds_mod.admissible_times(ev, cfg.t_grid)
        assert rows.shape == (len(ts) * idx.size**2, 8)
        for t, block in zip(ts, rows.reshape(len(ts), idx.size**2, 8)):
            K = ev.block(t, idx, idx)
            assert np.all(block[:, 0] == t) and np.array_equal(block[:, 5], K.ravel())
            assert np.array_equal(block[:, 7], bounds_mod.envelope_ratios(env, ev.grid, idx, t, K).ravel())
        both_zero = (rows[:, 5] == 0.0) & (rows[:, 6] == 0.0)
        assert np.any(both_zero) and np.all(rows[both_zero, 7] == 0.0)

    def test_kernel_with_every_slice_flushed_exits_2_naming_the_cap(self, tmp_path, capsys):
        # m = 3, n = 40 (mu_1 = 4.6e4): every t of the grid is admissible, but mu_1 t > 700 flushes
        # each kernel block to exactly 0, so no envelope constant can be fitted
        cfg = tmp_path / "poly3.cfg"
        cfg.write_text(POLY3_CFG.replace("[sweep]\n", "[sweep]\nt_grid = 0.05 0.1 0.2\n"), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["kernel", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: the kernel is exactly 0 on every admissible t slice: mu_1 t >= ")
        assert "past the underflow cap 700.0" in err and "resolvable floor" not in err
        assert not out.exists()

    def test_non_positive_operator_exits_2_without_artifacts(self, tmp_path, capsys):
        # a_00 = -1000 pulls mu_1 below 0: the decomposition's own check, read as a config error
        (tmp_path / "neg.csv").write_text("i,j,x,value\n0,0,0.0,-1000\n1,1,0.0,1\n", encoding="utf-8")
        cfg = tmp_path / "neg.cfg"
        cfg.write_text(f"[operator]\nsource = csv:{tmp_path / 'neg.csv'}\nm = 1\nL = 1\nn = 40\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "config error: the configured operator is not positive: mu_1 = -990.1352235797423\n"
        assert not out.exists()

    def test_infinite_c1_fails_verify_bounds_and_exits_2_elsewhere(self, tmp_path, capsys):
        # c2 = 10 drives every envelope past the float range where the kernel is not 0, so the sup
        # ratio reads inf at the only c2: a failing fit-envelope row, and no envelope for kernel or report
        cfg = tmp_path / "steep.cfg"
        cfg.write_text("[operator]\nsource = laplace-pi\nn = 40\n\n[sweep]\nc2_grid = 10\n", encoding="utf-8")
        message = "no c2 in the c2 grid [10.0] gives a finite c1"
        assert main(["verify-bounds", "--config", str(cfg), "--out", str(tmp_path / "bounds")]) == 1
        rows = list(csv.DictReader((tmp_path / "bounds" / "verify_bounds.csv").open()))
        fit = [r for r in rows if r["check"] == "fit-envelope"]
        assert fit and all(r["passed"] == "false" and message in r["witness"] for r in fit)
        capsys.readouterr()
        for sub in ("kernel", "report"):
            out = tmp_path / sub
            assert main([sub, "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {message}") and err.count("\n") == 1
            assert not out.exists()

    def test_verify_inequalities_passes(self, laplace_cfg, tmp_path):
        out = tmp_path / "out"
        code = main(["verify-inequalities", "--config", laplace_cfg, "--out", str(out)])
        assert code == 0
        text = (out / "verify_inequalities.csv").read_text()
        assert "false" not in text.split("\n", 1)[1]

    def test_verify_inequalities_runs_one_eigensolve(self, tmp_path, monkeypatch):
        # the Laplacian has closed-form modes and the ellipticity comes from
        # Cholesky factors: only the configured operator is decomposed
        from heatgauss.spectral import SpectralDecomposition

        calls = []
        decompose = SpectralDecomposition.from_form.__func__

        def counted(cls, form):
            calls.append(form.grid.n_interior)
            return decompose(cls, form)

        monkeypatch.setattr(SpectralDecomposition, "from_form", classmethod(counted))
        cfg = tmp_path / "poly3.cfg"
        cfg.write_text(POLY3_CFG, encoding="utf-8")
        main(["verify-inequalities", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert calls == [40]

    def test_ellipticity_error_is_a_failing_row(self, tmp_path, capsys, monkeypatch):
        from heatgauss import cli

        def reject(form):
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
        # at n = 3 the runner's nodes range(2, n - 2, ...) would be empty; the config
        # rejects n < 16, and the empty node set stays a library error
        # (TestSobolevPointwise.test_empty_node_set_rejected)
        cfg = tmp_path / "poly3.cfg"
        cfg.write_text(POLY3_CFG.replace("n = 40", "n = 3"), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["verify-bounds", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: n must be 16..800, got 3\n"
        assert not out.exists()

    @pytest.mark.parametrize("sub, target, check, later", [
        pytest.param("verify-twist", (twist_mod, "evolved_twisted_form_check"), "evolved-twisted-form",
                     ["twisted-kernel", "per-lambda-dual-path", "appendix-b", "sector"], id="verify-twist"),
        pytest.param("verify-bounds", (bounds_mod, "sobolev_pointwise_check"), "sobolev-pointwise",
                     ["fit-envelope", "evolved-form-gtilde"], id="verify-bounds"),
    ])
    def test_a_raising_check_hides_no_other_row(self, sub, target, check, later, tmp_path, monkeypatch, capsys):
        def reject(*args, **kwargs):
            raise PropertyViolation("rejected", witness={"probe": 1})

        monkeypatch.setattr(*target, reject)
        cfg = tmp_path / "small.cfg"
        cfg.write_text(LAPLACE_CFG.replace("n = 120", "n = 40"), encoding="utf-8")
        out = tmp_path / "out"
        assert main([sub, "--config", str(cfg), "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        rows = list(csv.reader((out / f"{sub.replace('-', '_')}.csv").open(encoding="utf-8", newline="")))[1:]
        failing = [r for r in rows if r[3] == "false"]
        assert failing and all(r[0] == check and r[2:] == ["nan", "false", "probe=1"] for r in failing)
        assert len(failing) == 2  # one per gamma, or one per lambda
        assert set(later) <= {r[0] for r in rows}
        assert all(r[3] == "true" for r in rows if r[0] != check)

    def test_sector_rows_show_the_applied_shift(self, tmp_path):
        # shift= is the shift c (1+p) u that the verdict applies and multiplier= is c; the m = 3 rows
        # used to print c alone (2.8e-25 at lam = 1, n = 80, for a shift of 9,377)
        cfg = tmp_path / "poly3.cfg"
        cfg.write_text(POLY3_CFG, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["verify-twist", "--config", str(cfg), "--out", str(out)]) == 0
        s = cli_mod._decompose(load_run_config(str(cfg)))[1].gap
        rows = [r for r in csv.DictReader((out / "verify_twist.csv").open(encoding="utf-8")) if r["check"] == "sector"]
        assert rows
        for row in rows:
            params = dict(kv.split("=") for kv in row["params"].split(";"))
            lam, p, c = float(params["lam"]), float(params["p"]), float(params["multiplier"])
            assert float(params["shift"]) == c * ((1.0 + p) * (1.0 + s) ** 6 * lam**6) > 1.0

    def test_failing_appendix_b_row_names_the_failing_half(self, laplace_cfg, tmp_path, monkeypatch):
        # a 1e-6 error in one entry of H_lambda fails both halves; the witness carries both ratios
        original = twist_mod.conjugate

        def planted(M, tw):
            out = original(M, tw)
            out[60, 60] *= 1.0 + 1e-6
            return out

        monkeypatch.setattr(twist_mod, "conjugate", planted)
        out = tmp_path / "out"
        assert main(["verify-twist", "--config", laplace_cfg, "--out", str(out)]) == 1
        rows = [r for r in csv.DictReader((out / "verify_twist.csv").open(encoding="utf-8"))
                if r["check"] == "appendix-b"]
        assert len(rows) == 1 and rows[0]["passed"] == "false"
        witness = split_witness(rows[0]["witness"])
        assert set(witness) == {"z", "resolvent_ratio", "spectrum_ratio"}
        assert float(witness["resolvent_ratio"]) >= 10.0 and float(witness["spectrum_ratio"]) >= 10.0

    def test_failing_evolved_twisted_form_row_shows_its_numbers(self, tmp_path):
        # near the twist cap (lambda L = 39.3) the held-out sample beats the training sup; the
        # row's statistic is nan, so the witness carries the held-out sup, c1 and where it sits
        cfg = tmp_path / "cap.cfg"
        cfg.write_text("[operator]\nsource = laplace-pi\nn = 40\n[sweep]\nlam_grid = 12.5\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["verify-twist", "--config", str(cfg), "--out", str(out)]) == 1
        rows = [r for r in csv.DictReader((out / "verify_twist.csv").open(encoding="utf-8"))
                if r["passed"] == "false"]
        assert [r["check"] for r in rows] == ["evolved-twisted-form"] and rows[0]["statistic"] == "nan"
        witness = split_witness(rows[0]["witness"])
        assert set(witness) == {"alpha", "c1", "c2", "held", "held_at", "lam"}
        assert float(witness["held"]) > float(witness["c1"]) > 0.0
        assert re.fullmatch(r"\(\d+, \d+\)", witness["held_at"])

    def test_verify_twist_asks_each_norm_once(self, tmp_path, monkeypatch):
        # one norm fit per lambda and an explicit c2 for the evolved check: the
        # norm memo never hits, and each lambda takes its own QR pair
        requests, qr = [], []
        norms, factor = twist_mod._twisted_norms, twist_mod.np.linalg.qr

        def counted_norms(d, tw, keys):
            requests.extend((tw, *key) in d.derived for key in keys)
            return norms(d, tw, keys)

        def counted_qr(*args, **kwargs):
            qr.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(twist_mod, "_twisted_norms", counted_norms)
        monkeypatch.setattr(twist_mod.np.linalg, "qr", counted_qr)
        cfg = tmp_path / "small.cfg"
        cfg.write_text(LAPLACE_CFG.replace("n = 120", "n = 40"), encoding="utf-8")
        assert main(["verify-twist", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(requests) == 2 * 6 and not any(requests)  # two lambdas, six t
        assert len(qr) == 2 * 2

    def test_witness_value_holding_the_separator(self, tmp_path, monkeypatch, capsys):
        def reject(*args, **kwargs):
            raise PropertyViolation("rejected", witness={"error": "a;b=c", "t": 0.5})

        monkeypatch.setattr(bounds_mod, "sobolev_pointwise_check", reject)
        cfg = tmp_path / "small.cfg"
        cfg.write_text(LAPLACE_CFG.replace("n = 120", "n = 40"), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["verify-bounds", "--config", str(cfg), "--out", str(out)]) == 1
        rows = list(csv.reader((out / "verify_bounds.csv").open(encoding="utf-8", newline="")))[1:]
        witnesses = {r[4] for r in rows if r[0] == "sobolev-pointwise"}
        assert witnesses == {'error="a;b=c";t=0.5'}
        (text,) = witnesses
        assert split_witness(text) == {"error": "a;b=c", "t": "0.5"}
        assert f"witness: {text}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["spectrum", "kernel", "verify-bounds", "verify-twist",
                                     "verify-inequalities", "report"])
    def test_general_csv_table_runs_every_subcommand(self, sub, tmp_path, capsys):
        cfg = general_csv_config(tmp_path, 40)
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_general_csv_table_at_the_largest_n(self, tmp_path):
        # n = 800 tops the config's range; the non-diagonal table is decomposed by LAPACK eigh
        cfg = general_csv_config(tmp_path, 800)
        spectra = []
        for out in (tmp_path / "first", tmp_path / "second"):
            assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
            spectra.append((out / "spectrum.csv").read_bytes())
        assert spectra[0] == spectra[1]
        mu1 = float(spectra[0].decode().splitlines()[1].split(",")[1])
        spec = OperatorSpec(m=2, coefficients=load_coefficients_csv(str(tmp_path / "general.csv")))
        want = float(np.linalg.eigvalsh(assemble_form(spec, Grid1D(length=1.0, n_interior=800)).operator)[0])
        # eigh and eigvalsh share LAPACK's Householder reduction and differ only in the tridiagonal
        # solver; they agree to 1.6e-12 here. Both sit about 6.8e-7 below the exact mu_1 of this
        # stored matrix (bisection on 40-digit inertia counts): eigh's error is about eps ||H|| / mu_1
        assert abs(mu1 - want) <= 1e-11 * want

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

    @pytest.mark.parametrize("sub", ["kernel", "report"])
    def test_kernel_and_report_build_no_full_table(self, laplace_cfg, tmp_path, monkeypatch, sub):
        # each reads the block, column or diagonal it uses; an n x n kernel table would raise here
        from heatgauss.spectral import HeatKernelEvaluator

        def no_table(self, t):
            raise AssertionError("full kernel table built")

        monkeypatch.setattr(HeatKernelEvaluator, "matrix", no_table)
        out = tmp_path / "out"
        assert main([sub, "--config", laplace_cfg, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir() if p.stat().st_size > 0) == sorted(
            ["kernel.csv"] if sub == "kernel" else ["envelope_ratio.svg", "kernel_boundary.svg", "longtime_norm.svg"])

    @pytest.mark.parametrize("text", [
        "[operator]\nsource = laplace-pi\nn = 40\n",
        "[operator]\nsource = beam-1\nn = 40\n",
        POLY3_CFG,
    ], ids=["laplace-pi", "beam-1", "m3"])
    def test_report_longtime_sups_are_the_full_tables_sups(self, tmp_path, monkeypatch, text):
        # report plots log sup|k| from the largest diagonal entry of each t slice (the kernel is
        # positive semidefinite); it equals the full table's sup, and both read 0 where mu_1 t > 700
        from heatgauss import cli
        from heatgauss.spectral import HeatKernelEvaluator

        diagonal, sups, plots = HeatKernelEvaluator.diagonal, [], {}

        def recorded(self, t):
            k = diagonal(self, t)
            sups.append((t, float(np.max(k))))
            return k

        monkeypatch.setattr(HeatKernelEvaluator, "diagonal", recorded)
        monkeypatch.setattr(cli, "line_plot_svg", lambda path, series, *labels: plots.update({path: series}))
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        main(["report", "--config", str(path), "--out", str(out)])
        cfg = load_run_config(str(path))
        assert [t for t, _ in sups] == [float(t) for t in cfg.t_grid]
        got = np.array([s for _, s in sups])
        ((_, _, logs),) = plots[str(out / "longtime_norm.svg")]
        assert np.array_equal(logs, np.log(np.maximum(got, 1e-300)))
        ev = cli._decompose(cfg)[2]
        full = np.array([np.max(np.abs(ev.matrix(float(t)))) for t in cfg.t_grid])
        assert np.all(np.abs(got - full) <= 1e-14 * full)
        assert np.any(full == 0.0) == (cfg.m > 1)  # flushed slices on the default grid

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


def split_witness(text):
    """key -> value of a witness text; a double-quoted value may hold ';', with '""' for '"'."""
    pairs = re.findall(r'([^=;]+)=("(?:[^"]|"")*"|[^;]*)(?:;|$)', text)
    return {k: v[1:-1].replace('""', '"') if v.startswith('"') else v for k, v in pairs}


class TestWitnessText:
    def test_plain_values_keep_their_bytes(self):
        assert witness_text({"t": 0.5, "error": "direct=1, leibniz=2", "n": 3}) == (
            "error=direct=1, leibniz=2;n=3;t=0.5"
        )
        assert witness_text(None) == witness_text({}) == ""

    def test_quoted_values_split_back(self):
        witness = {"error": 'say "a;b"', "q": '"', "t": 0.5}
        text = witness_text(witness)
        assert text == 'error="say ""a;b""";q="""";t=0.5'
        assert split_witness(text) == {k: format_value(v) for k, v in witness.items()}


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
