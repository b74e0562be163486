"""Run configuration, decay fitting, and the CLI stages end to end.

The CLI writes flat artifacts into the configured output directory, so
the end-to-end checks run the cheap stages on a miniature grid and
assert on the files.  Heavier stages have their own acceptance runs.
"""

from __future__ import annotations

import ast
import csv
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import hartree_mix
from hartree_mix.cli import main
from hartree_mix.pipeline import (
    NONLINEAR_BUDGET,
    ConfigError,
    RunConfig,
    _GROUP_KEYS,
    _TOP_KEYS,
    _decay_payload,
    _marginal,
    _write_csv,
    fit_decay,
    load_config,
    parse_config,
    run,
)
from hartree_mix.dynamics import (DensityTrajectory, free_density_trajectory,
                                  y_norm)
from hartree_mix.nonlinear import solve_bytes
from hartree_mix import dispersion, green, profiles, quadrature, stability


def nonlinear_bytes(cfg: RunConfig) -> int:
    return solve_bytes(cfg.d, cfg.nl_points, cfg.nl_dt, cfg.nl_t_max)


def _doc(**over):
    doc = {
        "d": 3,
        "equilibrium": {"kind": "gaussian"},
        "potential": {"kind": "screened_coulomb"},
        "k_grid": {"count": 4, "min": 0.1, "max": 1.0},
        "t_grid": {"dt": 0.5, "t_max": 4.0},
        "out": "unused",
    }
    doc.update(over)
    return doc


class TestConfig:
    def test_exponent_defaults_from_profile(self):
        cfg = parse_config(_doc())
        # gaussian d=3 declares n1 = 4: time weight 2*4 - 3 + 1 = 6,
        # space weight d + 1 = 4, leaving one derivative order in reserve
        assert cfg.n1 == 6
        assert cfg.n2 == 4
        assert cfg.n3 == 0

    def test_explicit_exponents_win(self):
        cfg = parse_config(_doc(N1=7, N2=5))
        assert (cfg.n1, cfg.n2, cfg.n3) == (7, 5, 1)

    def test_missing_required_field(self):
        doc = _doc()
        del doc["d"]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_missing_n1_without_finite_decay_rate(self):
        # fermi_zero_t declares n1 = inf, so N1 has no default to fall
        # back on and must be named, not overflow in the weight formula
        doc = _doc(equilibrium={"kind": "fermi_zero_t"})
        with pytest.raises(ConfigError, match="'N1'"):
            parse_config(doc)
        assert parse_config(dict(doc, N1=12, N2=6)).n1 == 12

    def test_negative_reserve_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(_doc(N1=3, N2=3))

    def test_fit_window_default(self):
        cfg = parse_config(_doc())
        assert cfg.fit_window == (5.0, 50.0)
        cfg2 = parse_config(_doc(tolerances={"fit_window": [2.0, 20.0]}))
        assert cfg2.fit_window == (2.0, 20.0)

    def test_roundtrip_is_dataclass(self):
        assert isinstance(parse_config(_doc()), RunConfig)

    def test_nonlinear_points_default_by_dimension(self):
        assert parse_config(_doc()).nl_points == 9
        assert parse_config(_doc(d=2)).nl_points == 33
        assert parse_config(_doc(d=1)).nl_points == 33

    def test_nonlinear_points_capped_in_d3(self):
        with pytest.raises(ConfigError, match="'nonlinear.points'"):
            parse_config(_doc(nonlinear={"points": 33}))
        assert parse_config(_doc(nonlinear={"points": 9})).nl_points == 9
        assert parse_config(_doc(d=1, nonlinear={"points": 33})).nl_points \
            == 33

    @pytest.mark.parametrize("eq", [
        {"kind": "gaussian", "scale": 1.0, "amplitude": 1.0},
        {"kind": "fermi_zero_t", "upsilon": 1.0},
        {"kind": "smooth_bump", "upsilon": 1.0, "smoothness": 1.0},
        {"kind": "power_decay", "n1": 4.0},
    ])
    def test_documented_equilibrium_kinds_parse(self, eq):
        # the README names N1 for the kinds without a finite decay rate
        assert parse_config(_doc(equilibrium=eq, N1=12, N2=6)).d == 3

    @pytest.mark.parametrize("pot", [
        {"kind": "screened_coulomb", "amplitude": 0.1, "screening": 1.0},
        {"kind": "delta", "coupling": 0.2},
        {"kind": "gaussian", "amplitude": 1.0, "width": 1.0},
    ])
    def test_documented_potential_kinds_parse(self, pot):
        params = {k: v for k, v in pot.items() if k != "kind"}
        assert parse_config(_doc(potential=pot)).potential.params == params

    def test_readme_example_parses(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        block = text.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(json.loads(block))
        assert (cfg.d, cfg.nl_points) == (3, 9)

    def test_out_of_range_parameter_names_group(self):
        with pytest.raises(ConfigError, match="'equilibrium'"):
            parse_config(_doc(equilibrium={"kind": "power_decay", "n1": 2}))
        with pytest.raises(ConfigError, match="'potential'"):
            parse_config(_doc(potential={"kind": "screened_coulomb",
                                         "screening": 0.0}))

    def test_power_decay_bound_names_equilibrium(self):
        # at d = 3 the bound is n1 >= 3.5 (2 n1 - d + 1 >= 5)
        with pytest.raises(ConfigError, match="'equilibrium'.*n1 >= 3.5"):
            parse_config(_doc(equilibrium={"kind": "power_decay", "n1": 3}))
        assert parse_config(_doc(equilibrium={"kind": "power_decay",
                                              "n1": 3.5})).profile.n1 == 3.5

    def test_built_objects_carried(self):
        cfg = parse_config(_doc(initial={"alpha": 0.5}, epsilon=0.02))
        assert cfg.profile.kind == "gaussian" and cfg.profile.d == 3
        assert cfg.potential.kind == "screened_coulomb"
        assert cfg.kernel.d == 3
        assert cfg.kernel.alpha == 0.5
        assert cfg.kernel.epsilon == 0.02

    def test_bad_initial_parameter_names_field(self):
        with pytest.raises(ConfigError, match="'initial.alpha'"):
            parse_config(_doc(initial={"alpha": -1}))
        with pytest.raises(ConfigError, match="'initial.beta'"):
            parse_config(_doc(initial={"beta": 1.0}))
        with pytest.raises(ConfigError, match="'initial.kind'"):
            parse_config(_doc(initial={"kind": "grid"}))

    def test_readme_names_every_config_key(self):
        # the README's config section documents the whole surface: each
        # top-level key is in its JSON example or in backticks, and each
        # group key is in its group of the example, or in backticks bare
        # or as `group.key`
        text = (Path(__file__).parents[1] / "README.md").read_text()
        section = text.split("Config schema", 1)[1].split(
            "Every decay fit", 1)[0]
        example = json.loads(section.split("```json\n", 1)[1]
                             .split("```", 1)[0])
        for key in _TOP_KEYS:
            assert key in example or f"`{key}`" in section, key
        for group, keys in _GROUP_KEYS.items():
            for key in keys:
                assert (key in example.get(group, {})
                        or f"`{key}`" in section
                        or f"`{group}.{key}`" in section), f"{group}.{key}"

    def test_readme_example_values_are_defaults(self):
        # the sentence after the README's example names the required
        # fields and the optional ones whose defaults differ from the
        # example; dropping any other key of the example leaves the parsed
        # config as it was (the built profile and potential aside, whose
        # callables do not compare)
        text = (Path(__file__).parents[1] / "README.md").read_text()
        block, after = text.split("Config schema", 1)[1].split(
            "```json\n", 1)[1].split("```\n", 1)
        example = json.loads(block)
        sentence = re.split(r"\.\s", after, maxsplit=1)[0]
        named = set(re.findall(r"`([^`]+)`", sentence))

        def parsed(doc):
            cfg = parse_config(doc)
            return {f.name: getattr(cfg, f.name) for f in fields(cfg)
                    if f.name not in ("profile", "potential")}

        want = parsed(example)
        dropped = []
        for key, value in example.items():
            paths = [(key, k) for k in value] \
                if isinstance(value, dict) and value else [(key,)]
            for path in paths:
                if key in named or ".".join(path) in named:
                    continue
                doc = json.loads(block)
                del (doc[key] if len(path) == 2 else doc)[path[-1]]
                assert parsed(doc) == want, ".".join(path)
                dropped.append(".".join(path))
        assert {"epsilon", "N1", "seed", "tau_grid.count",
                "nonlinear.box"} <= set(dropped)

    def test_green_tolerance_must_be_positive(self):
        for bad in (0.0, -1e-8):
            with pytest.raises(ConfigError, match="'tolerances.green'"):
                parse_config(_doc(tolerances={"green": bad}))
        assert parse_config(_doc(tolerances={"green": 1e-6})).green_tol \
            == 1e-6

    @pytest.mark.parametrize("window", [[50, 5], [0, 5], [-1, 5], [5, 5],
                                        [5], [1, 2, 3], "5-50", [5, "x"],
                                        ["5", 50], [True, 50], [5, "inf"]])
    def test_fit_window_must_be_increasing_pair(self, window):
        with pytest.raises(ConfigError, match="'tolerances.fit_window'"):
            parse_config(_doc(tolerances={"fit_window": window}))

    @pytest.mark.parametrize("over, name", [
        ({"k_gird": {}}, "'k_gird'"),
        ({"k_grid": {"count": 4, "min": 0.1, "max": 1.0, "cnt": 4}},
         "'k_grid.cnt'"),
        ({"t_grid": {"dt": 0.5, "t_max": 4.0, "tmax": 4.0}}, "'t_grid.tmax'"),
        ({"tau_grid": {"maximum": 4.0}}, "'tau_grid.maximum'"),
        ({"nonlinear": {"pts": 9}}, "'nonlinear.pts'"),
        ({"tolerances": {"fit_window": [5, 50], "gren": 1e-3}},
         "'tolerances.gren'"),
        ({"k_gird": {}, "tgrid": {}}, "'k_gird', 'tgrid'"),
        # the datum's one size is `epsilon`; `initial` holds `alpha` alone
        ({"initial": {"alpha": 0.5, "kind": "gaussian_pure"}},
         "'initial.kind'"),
        ({"initial": {"amplitude": 1.0}}, "'initial.amplitude'"),
        ({"initial": {"hat_amplitude": 1.0}}, "'initial.hat_amplitude'"),
    ])
    def test_unknown_key_rejected_naming_it(self, over, name):
        with pytest.raises(ConfigError, match=name):
            parse_config(_doc(**over))

    # every numeric field; integer fields with a valid value
    @pytest.mark.parametrize("path, good", [
        (("d",), 3), (("N1",), 6), (("N2",), 4), (("seed",), 0),
        (("epsilon",), None), (("k_grid", "count"), 4),
        (("k_grid", "min"), None), (("k_grid", "max"), None),
        (("t_grid", "dt"), None), (("t_grid", "t_max"), None),
        (("tau_grid", "max"), None), (("tau_grid", "count"), 401),
        (("nonlinear", "box"), None), (("nonlinear", "points"), 9),
        (("nonlinear", "dt"), None), (("nonlinear", "t_max"), None),
        (("tolerances", "green"), None)])
    def test_numeric_fields_checked_naming_them(self, path, good):
        def doc_with(value):
            doc = _doc()
            group = doc.setdefault(path[0], {}) if len(path) == 2 else doc
            group[path[-1]] = value
            return doc

        name = ".".join(path)
        bad = ["three", None, True, [3], float("nan")]
        if good is not None:
            bad.append(good + 0.5)
        for value in bad:
            with pytest.raises(ConfigError, match=f"'{name}'"):
                parse_config(doc_with(value))
        if good is not None:
            # an integral float is an integer
            got = getattr(parse_config(doc_with(float(good))), {
                "d": "d", "N1": "n1", "N2": "n2", "seed": "seed",
                "k_grid.count": "k_count", "tau_grid.count": "tau_count",
                "nonlinear.points": "nl_points"}[name])
            assert type(got) is int and got == good

    @pytest.mark.parametrize("doc, message", [
        (_doc(k_grid=[4, 0.1, 1.0]), "field 'k_grid' must be an object"),
        ([_doc()], "top level must be a JSON object"),
        (_doc(d=0), "field 'd': must be >= 1"),
        (_doc(equilibrium={"scale": 1.0}), "field 'equilibrium': needs"),
        (_doc(potential={"amplitude": 0.1}), "field 'potential': needs"),
        (_doc(k_grid={"count": 1, "min": 0.1, "max": 1.0}), "field 'k_grid'"),
        (_doc(k_grid={"count": 4, "min": 0.0, "max": 1.0}), "field 'k_grid'"),
        (_doc(k_grid={"count": 4, "min": 1.0, "max": 1.0}), "field 'k_grid'"),
        (_doc(t_grid={"dt": 0.0, "t_max": 4.0}), "field 't_grid'"),
        (_doc(t_grid={"dt": 0.5, "t_max": 0.5}), "field 't_grid'"),
        (_doc(tau_grid={"count": 1}), "field 'tau_grid'"),
        (_doc(tau_grid={"max": 0.0}), "field 'tau_grid'"),
        (_doc(nonlinear={"box": 0.0}), "field 'nonlinear'"),
        (_doc(nonlinear={"dt": -0.1}), "field 'nonlinear'"),
        (_doc(nonlinear={"t_max": 0.0}), "field 'nonlinear'"),
        (None, "cannot read '{path}'"),
        ('{"d": 3,', "invalid JSON in '{path}' at line 1"),
    ])
    def test_invalid_config_names_field_or_path(self, tmp_path, doc,
                                                message):
        # doc None leaves no file to read; a string is written as it is
        path = tmp_path / "run.json"
        if doc is not None:
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        with pytest.raises(ConfigError,
                           match=re.escape(message.format(path=path))):
            load_config(str(path))

    def test_custom_kinds_rejected(self):
        with pytest.raises(ConfigError, match="'equilibrium.kind'"):
            parse_config(_doc(equilibrium={"kind": "custom"}))
        with pytest.raises(ConfigError, match="'potential.kind'"):
            parse_config(_doc(potential={"kind": "custom"}))
        # a kind that is not a string is just as unknown
        with pytest.raises(ConfigError, match="'equilibrium.kind'"):
            parse_config(_doc(equilibrium={"kind": ["gaussian"]}))


class TestDecayFit:
    def test_recovers_exact_power_law(self):
        t = np.linspace(1.0, 80.0, 400)
        rows = np.column_stack([t, 7.3 * t ** -2.5])
        fit = fit_decay(rows, window=(5.0, 50.0))
        assert fit["slope"] == pytest.approx(-2.5, abs=1e-10)
        assert fit["intercept"] == pytest.approx(np.log(7.3), abs=1e-9)
        assert fit["residual"] < 1e-12

    def test_window_bounds_are_respected(self):
        t = np.linspace(1.0, 80.0, 400)
        vals = np.where(t < 5.0, 1e6, t ** -3.0)
        fit = fit_decay(np.column_stack([t, vals]), window=(5.0, 50.0))
        assert abs(fit["slope"] + 3.0) < 1e-8

    def test_too_few_samples(self):
        rows = np.column_stack([np.array([6.0, 8.0, 10.0]),
                                np.array([1.0, 0.5, 0.2])])
        assert fit_decay(rows, window=(5.0, 50.0)) == {
            "samples": 3,
            "error": "InsufficientSamples: 3 samples in [5, 50]; need 8"}

    def test_rejects_nonpositive_values(self):
        t = np.linspace(5.0, 50.0, 40)
        vals = t ** -2.0
        vals[7] = 0.0
        assert fit_decay(np.column_stack([t, vals]), window=(5.0, 50.0)) == {
            "samples": 40,
            "error": f"NonPositiveValue: value <= 0 at t = {t[7]:g}"}


def _csv_by_row(path, header, rows):
    """The row-by-row CSV writer the array writer replaced: csv.writer,
    strings as they are and numbers through format(x, ".17g")."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        for row in rows:
            out.writerow([x if isinstance(x, str) else format(float(x), ".17g")
                          for x in row])


class TestWriteCsv:
    EDGE = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308]

    @pytest.mark.parametrize("rows", [0, 1, 2047, 2048, 2049])
    def test_array_bytes_match_row_writer(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        table = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(
            -300, 300, (rows, 4))
        flat = table.ravel()
        flat[:len(self.EDGE)] = self.EDGE[:flat.size]
        header = ["t", "k", "re_rho", "im_rho"]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        assert _write_csv(str(got), header, table) == rows
        _csv_by_row(str(want), header, table.tolist())
        assert got.read_bytes() == want.read_bytes()
        assert got.read_bytes().count(b"\r\n") == rows + 1

    @pytest.mark.parametrize("rows", [0, 1, 2049])
    def test_string_column_bytes_match_row_writer(self, tmp_path, rows):
        # the column layout of dispersion.csv: a route name among numbers
        rng = np.random.default_rng(rows)
        nums = rng.standard_normal((6, rows))
        nums[:, :len(self.EDGE)] = np.array(self.EDGE)[:rows]
        route = np.where(np.arange(rows) % 3 == 0, "hilbert_form",
                         "plemelj_boundary")
        cols = [nums[0], nums[1], nums[2], route, nums[3], nums[4], nums[5]]
        header = ["k", "re_lambda", "im_lambda", "route", "re_D", "im_D",
                  "err"]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        assert _write_csv(str(got), header, cols) == rows
        _csv_by_row(str(want), header, zip(*[c.tolist() for c in cols]))
        assert got.read_bytes() == want.read_bytes()


class TestYNorm:
    def test_single_entry_weight(self):
        tr = DensityTrajectory(k_grid=np.array([2.0]), t_grid=np.array([3.0]),
                               rho_hat=np.array([[1.0 + 0j]]))
        want = (1.0 + 36.0) ** 1.0 * np.sqrt(5.0)
        assert y_norm(tr, 2, 1) == pytest.approx(want, rel=1e-12)


def _count_builds(monkeypatch) -> list:
    """Make profiles.build_marginal record each profile it builds."""
    built, real = [], profiles.build_marginal
    monkeypatch.setattr(profiles, "build_marginal",
                        lambda prof: built.append(prof) or real(prof))
    return built


def _marginal_stage(out, **over) -> RunConfig:
    """Run the marginal stage of ``_doc(**over)`` into ``out``."""
    cfg = parse_config(_doc(out=str(out), **over))
    assert run(cfg, "marginal") == 0
    return cfg


class TestMarginalFile:
    @pytest.mark.parametrize("over", [
        {"equilibrium": {"kind": "gaussian", "scale": 1.1}}, {"d": 4},
        {"equilibrium": {"kind": "gaussian", "n1": 5.0}}])
    def test_stamp_mismatch_builds_and_only_the_marginal_stage_writes(
            self, tmp_path, monkeypatch, over):
        _marginal_stage(tmp_path)
        path = tmp_path / "marginal.npz"
        data = path.read_bytes()
        built = _count_builds(monkeypatch)
        cfg = parse_config(_doc(out=str(tmp_path), **over))
        m = _marginal(cfg, str(tmp_path))
        assert built == [cfg.profile]
        assert path.read_bytes() == data
        _marginal_stage(tmp_path, **over)
        assert len(built) == 2
        again = _marginal(cfg, str(tmp_path))
        assert len(built) == 2
        assert again.total_mass == m.total_mass
        assert again.d == cfg.d
        assert path.read_bytes() != data

    def test_stamp_tracks_the_table_code(self, tmp_path, monkeypatch):
        # an edit to the modules that compute the tables, here one more
        # comment line in quadrature.py, makes an existing file stale
        cfg = _marginal_stage(tmp_path)
        edited = tmp_path / "quadrature.py"
        edited.write_bytes(Path(quadrature.__file__).read_bytes() + b"#\n")
        monkeypatch.setattr(quadrature, "__file__", str(edited))
        built = _count_builds(monkeypatch)
        _marginal(cfg, str(tmp_path))
        assert len(built) == 1

    def test_undeclared_decay_is_not_served_from_the_file(self, tmp_path):
        # n1 <= (d - 1)/2 cannot make the radial integral converge: the
        # build refuses it, so a file built under another n1 must not
        # serve it either
        _marginal_stage(tmp_path)
        cfg = parse_config(_doc(out=str(tmp_path), N1=7, equilibrium={
            "kind": "gaussian", "n1": 0.5}))
        with pytest.raises(profiles.NonIntegrableError):
            _marginal(cfg, str(tmp_path))

    def test_file_bytes_are_reproducible(self, tmp_path):
        _marginal_stage(tmp_path / "a")
        _marginal_stage(tmp_path / "b")
        assert (tmp_path / "a" / "marginal.npz").read_bytes() == \
            (tmp_path / "b" / "marginal.npz").read_bytes()

    @pytest.mark.parametrize("damage", ["truncated", "not_npz", "empty"])
    def test_unreadable_file_is_rebuilt(self, tmp_path, monkeypatch, damage):
        cfg = _marginal_stage(tmp_path)
        path = tmp_path / "marginal.npz"
        want = _marginal(cfg, str(tmp_path))
        data = path.read_bytes()
        bad = {"truncated": data[:len(data) // 2],
               "not_npz": b"phi,dphi\r\n1,2\r\n", "empty": b""}[damage]
        path.write_bytes(bad)
        built = _count_builds(monkeypatch)
        got = _marginal(cfg, str(tmp_path))
        assert len(built) == 1
        assert path.read_bytes() == bad
        u = np.linspace(0.0, 3.0, 7)
        assert np.array_equal(got.phi(u), want.phi(u))


class TestCliStages:
    @pytest.fixture()
    def cfg_path(self, tmp_path):
        doc = _doc(out=str(tmp_path / "out"))
        doc["tau_grid"] = {"max": 4.0, "count": 9}
        p = tmp_path / "run.json"
        p.write_text(json.dumps(doc))
        return p, tmp_path / "out"

    def test_marginal_stage_writes_tables(self, cfg_path):
        path, out = cfg_path
        assert main(["marginal", "--config", str(path)]) == 0
        assert (out / "marginal.csv").exists()
        assert (out / "marginal_hat.csv").exists()
        report = json.loads((out / "marginal.json").read_text())
        assert "total_mass" in report
        assert report["ok"] is True

    def test_later_stages_load_the_marginal_stage_file(self, tmp_path,
                                                       cfg_path, monkeypatch):
        path, out = cfg_path
        fresh = tmp_path / "fresh"
        assert main(["stability", "--config", str(path), "--out",
                     str(fresh)]) == 0
        assert "marginal.npz" not in os.listdir(fresh)
        assert main(["marginal", "--config", str(path)]) == 0
        assert (out / "marginal.npz").exists()

        def no_build(prof):
            raise RuntimeError("the marginal was built again")
        monkeypatch.setattr(profiles, "build_marginal", no_build)
        for stage in ("dispersion", "stability", "green"):
            assert main([stage, "--config", str(path)]) == 0, stage
        assert (out / "stability.json").read_bytes() == \
            (fresh / "stability.json").read_bytes()

    def test_dispersion_stage_writes_samples(self, cfg_path):
        path, out = cfg_path
        assert main(["dispersion", "--config", str(path)]) == 0
        text = (out / "dispersion.csv").read_text().splitlines()
        assert text[0].startswith("k,")
        assert len(text) > 4

    def test_dispersion_stage_on_support_end_poles(self, tmp_path):
        # d = 5 zero-T Fermi: the tau step 0.2 puts Plemelj poles on the
        # support end +Upsilon at k = 0.2 and k = 2, where phi vanishes
        doc = _doc(d=5, equilibrium={"kind": "fermi_zero_t"},
                   potential={"kind": "delta", "coupling": 0.2}, N1=12, N2=6,
                   k_grid={"count": 3, "min": 0.2, "max": 2.0},
                   tau_grid={"max": 40.0, "count": 201},
                   out=str(tmp_path / "out"))
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        assert main(["dispersion", "--config", str(path)]) == 0
        rows = np.genfromtxt(tmp_path / "out" / "dispersion.csv",
                             delimiter=",", names=True, dtype=None,
                             encoding="utf-8")
        boundary = rows[rows["route"] == "plemelj_boundary"]
        assert boundary.size == 3 * 201
        assert np.all(np.isfinite(rows["re_D"]) & np.isfinite(rows["im_D"]))

    def test_free_stage_reports_decay(self, cfg_path):
        path, out = cfg_path
        assert main(["free", "--config", str(path)]) == 0
        assert (out / "free.csv").exists()
        decay = json.loads((out / "free_decay.json").read_text())
        fits = decay["sup_norm_fits"]
        # the miniature grid ends before the fit window opens, so every
        # entry must carry either a slope or an explanatory error
        assert fits
        assert all(("slope" in f) or ("error" in f) for f in fits.values())
        assert all(f["samples"] == 0 for f in fits.values())

    def test_linear_stage_writes_rows_and_fits(self, cfg_path):
        path, out = cfg_path
        assert main(["linear", "--config", str(path)]) == 0
        with open(out / "linear.csv") as fh:
            # the miniature grid: 4 k rows by 9 times, under one header
            assert sum(1 for _ in fh) == 1 + 36
        decay = json.loads((out / "linear_decay.json").read_text())
        # N3 = min(6, 4) - 3 - 1 = 0: the density itself, no derivative
        assert set(decay["sup_norm_fits"]) == {"0"}

    def test_report_stage_collects_outputs(self, cfg_path):
        path, out = cfg_path
        assert main(["free", "--config", str(path)]) == 0
        assert main(["report", "--config", str(path)]) == 0
        report = json.loads((out / "report.json").read_text())
        # the miniature grid: 4 k rows by 9 times
        assert report["csv"]["free.csv"] == {"rows": 36}
        assert report["json"]["free_decay.json"] == \
            json.loads((out / "free_decay.json").read_text())

    @pytest.mark.parametrize("window, k_min_t_hi", [((5.0, 50.0), 2.5),
                                                     ((5.0, 20.0), 1.0)])
    def test_decay_payload_carries_k_resolution(self, window, k_min_t_hi):
        # the benchmark's d = 1 grid: 40 rows from k = 0.05, t to 50; the
        # fit window's end, capped at t_max, sets k_min * t_hi
        cfg = parse_config(_doc(
            d=1, k_grid={"count": 40, "min": 0.05, "max": 2.0},
            t_grid={"dt": 0.1, "t_max": 50.0}, initial={"alpha": 0.125},
            tolerances={"fit_window": list(window)}))
        traj = free_density_trajectory(
            cfg.kernel, np.linspace(cfg.k_min, cfg.k_max, cfg.k_count),
            np.arange(501) * cfg.dt)
        payload = _decay_payload(cfg, traj)
        assert payload["k_count"] == 40
        assert payload["k_min_t_hi"] == pytest.approx(k_min_t_hi, rel=1e-15)

    @pytest.mark.parametrize("d, n1, n2, orders", [
        (3, 6, 4, {"0"}), (3, 6, 5, {"0", "1"}), (3, 7, 6, {"0", "1", "2"}),
        (1, 6, 6, {"0", "1", "2"})])
    def test_decay_payload_fits_orders_up_to_n3_capped_at_2(
            self, d, n1, n2, orders):
        # N3 = min(N1, N2) - d - 1 is 0, 1, 2 and 4 here; the payload fits
        # the sup norms of n = 0 .. min(N3, 2) derivatives
        cfg = parse_config(_doc(d=d, N1=n1, N2=n2))
        traj = free_density_trajectory(
            cfg.kernel, np.linspace(cfg.k_min, cfg.k_max, cfg.k_count),
            np.arange(9) * cfg.dt)
        assert set(_decay_payload(cfg, traj)["sup_norm_fits"]) == orders

    def test_stability_stage_writes_phi_curve_where_phi_is_finite(
            self, tmp_path):
        # zero-T Fermi, delta coupling 0.2: the criterion integral diverges
        # at d = 1 and d = 3 alike, yet the edge Phi(k) is finite at d = 3,
        # so its rows are written; at d = 1 Phi(k) diverges, and no file is
        # written
        for d, written in ((1, False), (3, True)):
            out = tmp_path / f"d{d}"
            doc = _doc(d=d, equilibrium={"kind": "fermi_zero_t"},
                       potential={"kind": "delta", "coupling": 0.2},
                       N1=2 * d + 2, out=str(out))
            path = tmp_path / f"d{d}.json"
            path.write_text(json.dumps(doc))
            assert main(["stability", "--config", str(path)]) == 0
            report = json.loads((out / "stability.json").read_text())
            assert report["criterion"]["kind"] == "divergent"
            assert (out / "phi_curve.csv").exists() == written, d
        rows = np.loadtxt(tmp_path / "d3" / "phi_curve.csv", delimiter=",",
                          skiprows=1)
        assert rows.shape == (4, 2) and np.all(np.isfinite(rows))

    def test_green_fit_drops_blocks_under_noise_floor(self, tmp_path,
                                                      monkeypatch):
        # a t^-4 row fits on its quarter-octave blocks in [5, 50]; a row at
        # 1e-7, under 100 x tolerances.green, keeps none of its blocks
        doc = _doc(out=str(tmp_path / "out"),
                   k_grid={"count": 2, "min": 0.5, "max": 1.0},
                   t_grid={"dt": 0.1, "t_max": 60.0},
                   tolerances={"green": 1e-8})
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))

        def fake_table(m, w, ks, ts, tol):
            vals = np.stack([1e3 * (1.0 + ts) ** -4.0,
                             np.full(ts.size, 1e-7)])
            return green.GreenTable(k_grid=ks, t_grid=ts, values=vals + 0j,
                                    theta0=0.0, tau_max_used=1.0)

        monkeypatch.setattr(green, "green_table", fake_table)
        assert main(["green", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "green_envelope.json")
                            .read_text())
        fit, flat = report["envelope_fits"]["0.5"], report["envelope_fits"]["1"]
        assert fit["noise_floor"] == flat["noise_floor"] == pytest.approx(1e-6)
        # blocks [r^j, r^(j+1)), r = 2^(1/4), centred at r^(j+1/2) in
        # [5, 50]: j = 9, ..., 22
        assert fit["samples"] == 14
        assert fit["below_floor"] == 0
        assert -4.2 < fit["slope"] < -3.6
        assert flat["samples"] == 0
        assert flat["below_floor"] == 14
        assert flat["error"].startswith("InsufficientSamples")

    def test_unknown_stage_rejected(self, cfg_path):
        path, _ = cfg_path
        with pytest.raises(SystemExit):
            main(["no_such_stage", "--config", str(path)])

    def test_bad_config_reports_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text(json.dumps({"d": 3}))
        assert main(["marginal", "--config", str(p)]) == 1

    def test_inconclusive_stability_exits_2(self, cfg_path, monkeypatch):
        path, out = cfg_path
        crit = stability.CriterionResult(kind="vacuous", value=None,
                                         shell_slope=None)
        cert = stability.StabilityCertificate(
            verdict="Inconclusive", phi0=None, criterion=crit)
        monkeypatch.setattr(stability, "certify", lambda m, w: cert)
        assert main(["stability", "--config", str(path)]) == 2
        report = json.loads((out / "stability.json").read_text())
        assert report["verdict"] == "Inconclusive"

    def test_nonlinear_stage_refuses_state_over_budget(self, tmp_path,
                                                        capsys):
        # d = 2 at 129 points: one slab of 129^4 entries is 4.4 GB
        doc = _doc(d=2, nonlinear={"points": 129}, out=str(tmp_path / "out"))
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        assert nonlinear_bytes(parse_config(doc)) > 2.5e9 > NONLINEAR_BUDGET
        assert main(["nonlinear", "--config", str(path)]) == 1
        assert "'nonlinear.points'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("d", [2, 3])
    def test_nonlinear_stage_exits_1_when_the_solve_fails(self, tmp_path, d,
                                                          capsys):
        # data far outside the perturbative regime: the distances blow up,
        # and the stage must say so rather than write NaN rows and exit 0
        doc = _doc(d=d, potential={"kind": "screened_coulomb",
                                   "amplitude": 0.5},
                   initial={"alpha": 0.125}, epsilon=(np.pi / 0.125) ** d,
                   nonlinear={"points": 5, "t_max": 3.0},
                   out=str(tmp_path / "out"))
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(), \
                np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["nonlinear", "--config", str(path)]) == 1
        assert "NoContraction" in capsys.readouterr().err
        assert not (tmp_path / "out" / "nonlinear_report.json").exists()

    def test_nonlinear_budget_admits_readme_example(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        cfg = parse_config(json.loads(
            text.split("```json\n", 1)[1].split("```", 1)[0]))
        # no history: thirteen slabs, and per node twelve density rows,
        # three 18^3 spectra and four Filon amplitudes per point, and
        # 256 KiB
        assert nonlinear_bytes(cfg) == 16 * (
            13 * 9 ** 6 + 31 * (12 * 9 ** 3 + 3 * 18 ** 3 + 4 * 9)) + 2 ** 18
        assert nonlinear_bytes(cfg) <= NONLINEAR_BUDGET
        # the d = 1 benchmark run: 65 points to t = 30, spectra of 132
        small = parse_config(_doc(d=1, nonlinear={"points": 65}))
        assert nonlinear_bytes(small) == 16 * (
            13 * 65 ** 2 + 301 * (12 * 65 + 3 * 132 + 4 * 65)) + 2 ** 18
        # the d = 3 defaults, 9 points to t = 30, hold no history either
        assert nonlinear_bytes(parse_config(_doc())) <= NONLINEAR_BUDGET

    @pytest.mark.parametrize("d,points", [(1, 33), (2, 9)])
    def test_nonlinear_stage_peak_is_under_its_budget(self, tmp_path, d,
                                                      points, peak_bytes):
        # the whole stage, solve and artifacts, on the same grid, so the
        # budget never admits a run that holds more than it says
        cfg = parse_config(_doc(
            d=d, potential={"kind": "screened_coulomb", "amplitude": 0.5},
            initial={"alpha": 0.125},
            nonlinear={"points": points, "t_max": 30.0 if d == 1 else 3.0},
            out=str(tmp_path)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            peak = peak_bytes(lambda: run(cfg, "nonlinear"))
        report = json.loads((tmp_path / "nonlinear_report.json").read_text())
        assert peak <= nonlinear_bytes(cfg)
        # the grid's resolution facts: box 4, so h = 8/(points - 1)
        h = 8.0 / (points - 1)
        assert (report["box"], report["points"]) == (4.0, points)
        assert report["h"] == pytest.approx(h)
        assert report["h_t_max"] == pytest.approx(
            h * (30.0 if d == 1 else 3.0))


class TestStartup:
    def test_stages_load_only_fft_and_special(self, tmp_path):
        # a fresh process, as each CLI stage is: every stage runs on numpy
        # and the standard library alone, so after all of them no module
        # named scipy or scipy.* may be loaded, nor numpy.random (12-22 ms
        # to import; the sampled checks of the fermi5 marginal stage draw
        # from the stdlib's generator); the d = 1 run covers the other
        # stages, among them the FFTs of the green table's chirp-z Filon
        # rows and of the nonlinear shift terms
        docs = {"gauss3": (_doc(), ("marginal", "stability")),
                "fermi5": (_doc(d=5, equilibrium={"kind": "fermi_zero_t"},
                                potential={"kind": "delta", "coupling": 0.2},
                                N1=12, N2=6), ("marginal", "stability")),
                "gauss1": (_doc(d=1, nonlinear={"points": 9, "t_max": 2.0}),
                           ("dispersion", "green", "free", "linear",
                            "nonlinear"))}
        calls = []
        for name, (doc, stages) in docs.items():
            doc["out"] = str(tmp_path / name)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            calls += [[stage, "--config", str(path)] for stage in stages]
        script = ("import json, sys\n"
                  "from hartree_mix.cli import main\n"
                  f"codes = [main(a) for a in {calls!r}]\n"
                  "extra = [m for m in sys.modules"
                  " if m == 'scipy' or m.startswith('scipy.')"
                  " or m == 'numpy.random']\n"
                  "print(json.dumps([codes, extra]))\n")
        src = str(Path(__file__).parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        codes, extra = json.loads(done.stdout.splitlines()[-1])
        assert codes == [0] * len(calls)
        assert extra == []
        report = json.loads((tmp_path / "fermi5" / "stability.json")
                            .read_text())
        assert report["verdict"] == "Unstable"


class TestLayering:
    # the package's module graph runs one way: a module imports only
    # modules of a lower rank, so the dispersion engine loads without the
    # Green rows built on it
    RANKS = {"quadrature": 0, "profiles": 1, "dispersion": 2, "dynamics": 2,
             "stability": 3, "green": 3, "nonlinear": 3, "pipeline": 4,
             "cli": 5}

    def test_modules_import_only_lower_layers(self):
        src = Path(hartree_mix.__file__).parent
        assert {p.stem for p in src.glob("*.py")} == \
            set(self.RANKS) | {"__init__"}
        upward = []
        for mod, rank in self.RANKS.items():
            for node in ast.walk(ast.parse((src / f"{mod}.py").read_text())):
                if not (isinstance(node, ast.ImportFrom) and node.level):
                    continue
                # ``from .mod import x`` or ``from . import mod [as alias]``
                names = [node.module] if node.module else [
                    a.name for a in node.names if a.name != "__version__"]
                upward += [f"{mod} -> {name}" for name in names
                           if self.RANKS[name] >= rank]
        assert upward == []


class TestTracerContract:
    """What the stage benchmark's tracer (``perfbench/tracer.py``) reads
    of the package: it wraps every public function by name and counts the
    lookups of every ``HilbertTransformCache``, so a deletion here would
    break a traced run, not this suite."""

    def test_every_public_name_resolves(self):
        for info in pkgutil.iter_modules(hartree_mix.__path__):
            mod = importlib.import_module(f"hartree_mix.{info.name}")
            for name in getattr(mod, "__all__", ()):
                assert hasattr(mod, name), f"{info.name}.{name}"
        assert callable(quadrature.filon_weights)

    def test_cli_calls_the_pipeline_run_binding(self):
        # perfbench/stage.py stamps a stage's set-up at the first call of
        # pipeline.run, rebinding every module attribute that is it; the
        # CLI must reach the stage through such an attribute
        import hartree_mix.cli
        import hartree_mix.pipeline
        assert hartree_mix.cli.run is hartree_mix.pipeline.run

    def test_cache_keeps_init_and_counters(self, gauss3):
        assert "__init__" in vars(dispersion.HilbertTransformCache)
        cache = dispersion.HilbertTransformCache(gauss3)
        assert (cache.hits, cache.misses) == (0, 0)

    # public names that nothing in src/ loads, each kept for a caller
    # outside it
    UNUSED_IN_SRC = {
        "green.convolve_green":
            "criterion 6's second route beside the Volterra solve",
        "dispersion.dispersion_time_integral":
            "criterion 1's second route for D",
        "profiles.shifted_l2_difference":
            "criterion 8's shift-difference ratio",
        "dispersion.HilbertTransformCache":
            "the tracer counts the lookups of every instance",
    }

    def test_every_public_name_is_loaded_in_src(self):
        # a name counts as loaded by a bare load in its own module, by
        # ``from .mod import name`` elsewhere, or as ``alias.name`` after
        # ``from . import mod [as alias]``
        trees = {path.stem: ast.parse(path.read_text())
                 for path in Path(hartree_mix.__file__).parent.glob("*.py")}
        exported, loaded = {}, set()
        for mod, tree in trees.items():
            aliases = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets):
                    exported[mod] = ast.literal_eval(node.value)
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    for a in node.names:
                        if node.module is None:
                            aliases[a.asname or a.name] = a.name
                        else:
                            loaded.add((node.module, a.name))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Load):
                    loaded.add((mod, node.id))
                elif isinstance(node, ast.Attribute) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id in aliases:
                    loaded.add((aliases[node.value.id], node.attr))
        assert "nonlinear" in exported and "profiles" in exported
        unused = {f"{mod}.{name}" for mod, names in exported.items()
                  for name in names if (mod, name) not in loaded}
        assert sorted(unused - set(self.UNUSED_IN_SRC)) == []
        assert sorted(set(self.UNUSED_IN_SRC) - unused) == []
