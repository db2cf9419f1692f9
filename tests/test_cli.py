"""Command-line surface: every subcommand end to end, and its CSV cells."""

import csv
import json
import math
import re

import numpy as np
import pytest

from sphereshrink import cli, numerics
from sphereshrink.radial_models import poly_exp
from sphereshrink.risk_sim import RiskCurve, RiskPoint
from sphereshrink.special_integrals import kernel_mass_identity

MODEL = ["--family", "gaussian", "--p", "5"]

SUBCOMMANDS = {
    "model-info": MODEL,
    "phi": MODEL + ["--points", "5"],
    "check": MODEL,
    "risk": MODEL + ["--n", "2000", "--theta", "0,2"],
    "hseq": ["--points", "3", "--i", "1,10"],
    "prior": ["--p", "5", "--no-blyth"],
    "verify": MODEL + ["--identity", "kernelmass"],
    "probe": MODEL + ["--radii", "10,100"],
}


def run(command, tmp_path):
    out = tmp_path / f"{command}.csv"
    code = cli.main([command, *SUBCOMMANDS[command], "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == f"# command = {command}"
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    return rows[0], rows[1:]


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_subcommand_writes_csv(command, tmp_path):
    header, rows = run(command, tmp_path)
    assert header and all(header)
    assert rows and all(len(row) == len(header) for row in rows)


def as_config(flags):
    """The flags of a run as a config document, with JSON numbers, lists and booleans."""
    doc, words = {}, iter(flags)
    for flag in words:
        key = flag[2:].replace("-", "_")
        if key.startswith("no_"):
            doc[key[3:]] = False
            continue
        text = next(words)
        try:
            doc[key] = json.loads(f"[{text}]" if "," in text else text)
        except json.JSONDecodeError:
            doc[key] = text  # a name
    return doc


def write_config(tmp_path, doc):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    return str(config)


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_a_config_document_runs_as_its_flags_do(command, tmp_path):
    # one parser per option: the header echoes the same typed values
    doc = as_config(SUBCOMMANDS[command])
    assert any(not isinstance(v, str) for v in doc.values())
    flags, config = tmp_path / "flags.csv", tmp_path / "config.csv"
    assert cli.main([command, *SUBCOMMANDS[command], "--out", str(flags)]) == cli.EXIT_OK
    assert cli.main([command, "--config", write_config(tmp_path, doc), "--out", str(config)]) == cli.EXIT_OK
    assert config.read_bytes() == flags.read_bytes()


def test_a_name_is_read_as_its_canonical_name(tmp_path):
    flags, config = tmp_path / "flags.csv", tmp_path / "config.csv"
    assert cli.main(["prior", "--p", "3", "--prior", "logthick", "--no-blyth", "--out", str(flags)]) == cli.EXIT_OK
    doc = {"p": 3, "prior": "log_thickened", "blyth": False}
    assert cli.main(["prior", "--config", write_config(tmp_path, doc), "--out", str(config)]) == cli.EXIT_OK
    assert config.read_bytes() == flags.read_bytes()
    assert "# prior = log_thickened" in flags.read_text().splitlines()


@pytest.mark.parametrize("argv, doc", [
    # each ran with a value other than the one its header showed, or crashed
    (["risk", *MODEL], {"paired": "false"}),
    (["risk", *MODEL], {"seed": 1.7}),
    (["phi", *MODEL], {"points": 3.7}),
    (["hseq"], {"eta_min": "abc"}),
    (["hseq"], {"i": [1, "x"]}),
    (["prior", "--p", "3"], {"blyth": "no"}),
    (["verify"], {"identity": "bogus"}),
    (["risk", *MODEL], {"theta": "0:1e15:1"}),  # allocated 7 PiB before anything bounded it
])
def test_a_config_value_of_the_wrong_kind_is_refused_naming_its_key(argv, doc, tmp_path, capsys, monkeypatch):
    rounds = []
    pair = numerics._gauss_pair
    monkeypatch.setattr(numerics, "_gauss_pair", lambda *args: rounds.append(1) or pair(*args))
    out = tmp_path / "x.csv"
    assert cli.main([*argv, "--config", write_config(tmp_path, doc), "--out", str(out)]) == cli.EXIT_CONFIG
    (key, value), = doc.items()
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key!r} must be ") and err.endswith(f", not {json.dumps(value)}\n")
    assert err.count("\n") == 1
    assert rounds == [] and not out.exists()


def test_svg_plots_a_curve(tmp_path):
    svg = tmp_path / "phi.svg"
    assert cli.main(["phi", *SUBCOMMANDS["phi"], "--out", str(tmp_path / "phi.csv"), "--svg", str(svg)]) == cli.EXIT_OK
    text = svg.read_text(encoding="utf-8")
    assert text.startswith("<svg") and "<polyline" in text


def test_a_refused_plot_leaves_no_files(tmp_path, capsys):
    # one theta is one numeric row, too few to plot
    out, svg = tmp_path / "one.csv", tmp_path / "one.svg"
    argv = ["risk", *MODEL, "--n", "200", "--theta", "8", "--out", str(out), "--svg", str(svg)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: not enough numeric rows to plot\n"
    assert not out.exists() and not svg.exists()


def test_a_theta_range_is_sized_before_it_is_built(tmp_path, capsys):
    assert len(cli._THETA("0:9999:1")) == cli._THETA_POINTS
    for text in ("0:10000:1", "0:1e15:1", "0:inf:1", "0:1:0"):
        with pytest.raises(cli.argparse.ArgumentTypeError, match="at most 10000 points"):
            cli._THETA(text)
    assert cli.main(["risk", *MODEL, "--theta", "0:1e15:1", "--out", str(tmp_path / "x.csv")]) == cli.EXIT_CONFIG
    assert "argument --theta: must be " in capsys.readouterr().err


@pytest.mark.parametrize("argv, doc, named", [
    (["--prior", "power", "--k", "3"], {}, "--prior"),  # ran harmonic_bayes, echoing prior = power
    (["--k", "3"], {}, "--k"),
    (["--estimator", "harmonic", "--depth", "1"], {}, "--depth"),
    (["--estimator", "identity"], {"offset": 2.0}, "--offset"),
    ([], {"prior": "harmonic"}, "--prior"),
])
def test_risk_refuses_prior_options_without_the_gb_estimator(argv, doc, named, tmp_path, capsys, monkeypatch):
    rounds = []
    pair = numerics._gauss_pair
    monkeypatch.setattr(numerics, "_gauss_pair", lambda *args: rounds.append(1) or pair(*args))
    out = tmp_path / "x.csv"
    config = ["--config", write_config(tmp_path, doc)] if doc else []
    assert cli.main(["risk", *MODEL, *argv, *config, "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {named} is not used by this risk run")
    assert rounds == [] and not out.exists()


@pytest.mark.parametrize("estimator, echoed", [
    ("gb", ["# depth = 0", "# k = None", "# offset = 2.718281828459045", "# prior = harmonic"]),
    ("harmonic", ["# depth = None", "# k = None", "# offset = None", "# prior = None"]),
])
def test_risk_echoes_the_prior_only_when_its_estimator_takes_one(estimator, echoed, tmp_path):
    out = tmp_path / "risk.csv"
    argv = ["risk", *MODEL, "--estimator", estimator, "--n", "200", "--theta", "0,1", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    keys = ("# depth", "# k", "# offset", "# prior")
    assert [line for line in out.read_text().splitlines() if line.split(" = ")[0] in keys] == echoed


@pytest.mark.parametrize("command", ["risk", "hseq"])
def test_cells_are_plain_numbers_and_lowercase_booleans(command, tmp_path):
    _, rows = run(command, tmp_path)
    for row in rows:
        for cell in row:
            if cell in ("", "true", "false") or re.fullmatch(r"[a-z_]+", cell):
                continue  # empty, boolean or a label such as "win"
            float(cell)  # raises on np.float64(...) or True/False


def test_unknown_family_is_a_config_error(tmp_path):
    code = cli.main(["model-info", "--family", "cauchy", "--p", "5", "--out", str(tmp_path / "x.csv")])
    assert code == cli.EXIT_CONFIG


def test_missing_family_parameters_are_a_config_error(tmp_path):
    code = cli.main(["model-info", "--family", "polyexp", "--p", "5", "--alpha", "2",
                     "--out", str(tmp_path / "x.csv")])
    assert code == cli.EXIT_CONFIG


def test_parametric_family_options_reach_the_model(tmp_path):
    out = tmp_path / "pe.csv"
    assert cli.main(["model-info", "--family", "polyexp", "--p", "5", "--alpha", "2", "--beta", "1",
                     "--out", str(out)]) == cli.EXIT_OK
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    rows = dict(row[:2] for row in csv.reader(lines))
    assert float(rows["inf_ratio"]) == 0.5  # 1 / (2 beta)


def write_table(tmp_path):
    r = np.geomspace(0.02, 3.0, 220)
    table = tmp_path / "table.csv"
    np.savetxt(table, np.column_stack([r, np.exp(-(r**4))]), delimiter=",")
    return table


def test_tabulated_family_reads_its_table(tmp_path):
    table = write_table(tmp_path)
    out = tmp_path / "tab.csv"
    assert cli.main(["model-info", "--family", "tabulated", "--p", "3", "--table", str(table),
                     "--out", str(out)]) == cli.EXIT_OK
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    rows = dict(row[:2] for row in csv.reader(lines))
    assert rows["f_nonincreasing"] == "holds"


def test_model_info_reports_divergent_moments_of_a_heavy_table(tmp_path, capsys):
    # (1 + r^2)^-2.25 on p = 3: tail exponent 4.5 <= p + 2, so E||X||^2
    # diverges while E||X||^-2 is finite
    r = np.geomspace(0.01, 1000.0, 400)
    table = tmp_path / "heavy.csv"
    np.savetxt(table, np.column_stack([r, (1.0 + r**2) ** -2.25]), delimiter=",")
    model = ["--family", "tabulated", "--p", "3", "--table", str(table)]
    out = tmp_path / "info.csv"
    assert cli.main(["model-info", *model, "--out", str(out)]) == cli.EXIT_OK
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    rows = dict(row[:2] for row in csv.reader(lines))
    for key in ("c_f", "second_moment", "phi_limit"):
        assert rows[key] == "divergent", key
    assert math.isfinite(float(rows["inverse_second_moment"]))
    # the weight profile needs E||X||^2: the model is refused as configured
    assert cli.main(["phi", *model, "--out", str(tmp_path / "phi.csv")]) == cli.EXIT_CONFIG
    assert "moment 2.0 diverges" in capsys.readouterr().err


def test_phi_runs_on_a_tabulated_model(tmp_path):
    table = write_table(tmp_path)
    out = tmp_path / "phi.csv"
    assert cli.main(["phi", "--family", "tabulated", "--p", "3", "--table", str(table),
                     "--points", "5", "--out", str(out)]) == cli.EXIT_OK
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    header, *rows = list(csv.reader(lines))
    assert header == ["r", "phi", "multiplier", "limit_value"]
    for row in rows:
        r, phi, mult, limit = map(float, row)
        # phi rises to its limit; the table's kernel moments and its
        # second moment agree, so phi stays below it but for rounding
        assert 0.0 <= phi <= limit * (1.0 + 1e-9)
        assert 2.0 / 3.0 <= mult < 1.0


def test_phi_reaches_its_limit_far_beyond_a_power_tailed_table(tmp_path):
    # the (1 + r^2)^-4 table's profile grid ends at r = 58, with phi 0.089
    # below its limit; at r = 1e6 phi is within 6e-6 of it
    r = np.geomspace(0.01, 100.0, 300)
    table = tmp_path / "heavy.csv"
    np.savetxt(table, np.column_stack([r, (1.0 + r**2) ** -4.0]), delimiter=",")
    out = tmp_path / "phi.csv"
    assert cli.main(["phi", "--family", "tabulated", "--p", "5", "--table", str(table),
                     "--r-min", "1e5", "--r-max", "1e6", "--points", "3", "--out", str(out)]) == cli.EXIT_OK
    _, phi, _, limit = map(float, data_rows(out)[-1])
    assert abs(phi - limit) <= 1e-4 * limit


@pytest.mark.parametrize("flags", [[], ["--n", "2", "--c", "16"]])
def test_hseq_strict_passes_on_its_default_config(flags, tmp_path):
    # the grid's eta H'/H dips to -1.17 near eta = 100 at i = 1, and the
    # far rows hold it to the kernel's closed form
    out = tmp_path / "hseq.csv"
    assert cli.main(["hseq", "--strict", *flags, "--out", str(out)]) == cli.EXIT_OK
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    header, *rows = list(csv.reader(lines))
    labels = [row[header.index("h_prime")] for row in rows]
    assert labels.count("scaling") == labels.count("elasticity") == 3
    assert all(row[-1] == "true" for row in rows)


def test_hseq_strict_passes_at_a_timescale_of_a_million(tmp_path):
    # the far-field laws are off by about i/eta: at eta = i = 1e6 the
    # scaling ratio reads 0.56, so the far rows sit 1e4 timescales out
    out = tmp_path / "hseq.csv"
    assert cli.main(["hseq", "--strict", "--i", "1e6", "--out", str(out)]) == cli.EXIT_OK
    far = [row for row in data_rows(out) if row[3] in ("scaling", "elasticity")]
    assert len(far) == 2 and all(float(row[0]) == 1e10 and row[-1] == "true" for row in far)


@pytest.mark.parametrize("flags", [["--eta-min", "0"], ["--eta-min", "-1"], ["--points", "0"]])
def test_hseq_refuses_an_empty_or_nonpositive_range(flags, tmp_path):
    assert cli.main(["hseq", *flags, "--out", str(tmp_path / "hseq.csv")]) == cli.EXIT_CONFIG


def test_hseq_integrates_each_i_in_one_array_call(monkeypatch, tmp_path):
    # the far rows' eta (1e6, the grid's last point by default) joins the
    # grid's array call instead of a second scalar call per i
    calls = []

    def counted(name):
        method = getattr(cli.HSequence, name)

        def call(self, eta):
            calls.append(name)
            return method(self, eta)

        return call

    for name in ("h_eval", "h_derivative"):
        monkeypatch.setattr(cli.HSequence, name, counted(name))
    out = tmp_path / "hseq.csv"
    assert cli.main(["hseq", "--strict", "--points", "4", "--i", "1,64", "--out", str(out)]) == cli.EXIT_OK
    assert calls.count("h_eval") == calls.count("h_derivative") == 2


def data_rows(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return list(csv.reader(lines))[1:]


def test_prior_takes_the_log_thickened_prior(tmp_path):
    # --depth/--offset set the prior alone; the Blyth kernel follows from it
    out = tmp_path / "prior.csv"
    assert cli.main(["prior", "--p", "3", "--prior", "logthick", "--depth", "0", "--offset", "2",
                     "--i", "1,4", "--out", str(out)]) == cli.EXIT_OK
    js = [float(row[2]) for row in data_rows(out) if row[1].startswith("J(")]
    assert len(js) == 2 and all(j > 0 for j in js)


@pytest.mark.parametrize("flags,verdict", [
    (["--prior", "logthick", "--depth", "0", "--offset", "1e8"], "admissible_certified"),
    (["--prior", "power", "--k", "-0.7"], "inadmissible_certified"),
])
def test_prior_prints_its_verdict_and_no_boundary_margin(flags, verdict, capsys):
    # the log-thickened prior at offset 1e8 read uncertified, with a boundary_margin of 4.49
    assert cli.main(["prior", "--p", "3", *flags, "--no-blyth"]) == cli.EXIT_OK
    rows = list(csv.reader(line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")))
    assert ["classification", "verdict", verdict] in rows
    assert not any("boundary_margin" in row for row in rows)


def test_prior_takes_a_depth_four_blyth_kernel(tmp_path):
    # --depth 2 asks for a depth-4 kernel, whose Log_4(c) = 1 no double holds
    out = tmp_path / "prior.csv"
    assert cli.main(["prior", "--p", "3", "--prior", "logthick", "--depth", "2", "--offset", "1e6",
                     "--i", "1,4", "--out", str(out)]) == cli.EXIT_OK
    js = [float(row[2]) for row in data_rows(out) if row[1].startswith("J(")]
    assert len(js) == 2 and all(j > 0 for j in js)


def test_prior_refuses_a_kernel_deeper_than_a_double_holds(tmp_path, capsys):
    out = tmp_path / "prior.csv"
    assert cli.main(["prior", "--p", "3", "--prior", "logthick", "--depth", "3", "--offset", "1e7",
                     "--i", "1,4", "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")


def test_prior_refusal_names_the_kernel_depth_the_prior_asks_for(tmp_path, capsys):
    out = tmp_path / "prior.csv"
    assert cli.main(["prior", "--p", "3", "--prior", "logthick", "--depth", "3", "--offset", "1e7",
                     "--i", "1,4", "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "the prior's log depth 4 asks for a boundary kernel of depth 5, which no double supports" in err
    assert "15257116" not in err


@pytest.mark.parametrize("i_list", ["0", "1,-4"])
def test_prior_refuses_a_timescale_that_is_not_positive(i_list, tmp_path, capsys):
    assert cli.main(["prior", "--p", "3", "--i", i_list, "--out", str(tmp_path / "x.csv")]) == cli.EXIT_CONFIG
    assert "timescale i must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["prior", "hseq"])
def test_an_infinite_timescale_is_refused(command, tmp_path, capsys):
    # it used to end in integrate_rows' NaN-edge ValueError, exit 1
    argv = [command, "--p", "3"] if command == "prior" else [command]
    assert cli.main([*argv, "--i", "1,inf", "--out", str(tmp_path / "x.csv")]) == cli.EXIT_CONFIG
    assert "timescale i must be positive and finite" in capsys.readouterr().err


def test_prior_takes_a_tiny_timescale(tmp_path):
    # H rows at i = 1e-300 grade from a layer scale clipped at 1/2, where
    # 1/(3 i |(log beta)'|) overflowed in the tail and made a NaN edge
    out = tmp_path / "prior.csv"
    assert cli.main(["prior", "--p", "3", "--i", "1e-300,1", "--out", str(out)]) == cli.EXIT_OK
    js = [float(row[2]) for row in data_rows(out) if row[1].startswith("J(")]
    assert len(js) == 2 and 0.0 <= js[0] < js[1] < math.inf


def test_risk_takes_the_log_thickened_prior(tmp_path):
    out = tmp_path / "risk.csv"
    assert cli.main(["risk", *MODEL, "--estimator", "gb", "--prior", "logthick", "--n", "2000",
                     "--theta", "0,4", "--out", str(out)]) == cli.EXIT_OK
    assert [row[0] for row in data_rows(out)] == ["0.0", "4.0", "dominance"]


@pytest.mark.parametrize("argv", [
    ["risk", *MODEL, "--gamma", "1"],  # gamma changes no number of risk or probe
    ["probe", *MODEL, "--gamma", "1"],
    ["phi", *MODEL, "--strict"],  # phi has no verdict
    ["model-info", *MODEL, "--svg", "x.svg"],  # a first column of labels is no curve
    ["prior", "--p", "5", "--svg", "x.svg"],
])
def test_options_a_subcommand_does_not_use_are_refused(argv, tmp_path, capsys):
    assert cli.main([*argv, "--out", str(tmp_path / "x.csv")]) == cli.EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


# --depth/--offset shape the log-thickened prior and reach no other
@pytest.mark.parametrize("flags, tower", [
    (["--depth", "2", "--offset", "16"], cli.LogTower(1, math.e)),
    (["--prior", "power", "--k", "-2.7", "--depth", "2", "--offset", "16"], cli.LogTower(1, math.e)),
    (["--prior", "logthick"], cli.LogTower(2, math.exp(math.e))),
])
def test_blyth_kernel_is_one_log_level_deeper_than_the_prior(flags, tower, monkeypatch, tmp_path):
    towers = []

    def blyth_decay(prior, kernel, i_list):
        towers.append(kernel.tower)
        return [1.0] * len(i_list)

    monkeypatch.setattr(cli, "blyth_decay", blyth_decay)
    out = tmp_path / "prior.csv"
    assert cli.main(["prior", "--p", "5", *flags, "--i", "1,4", "--out", str(out)]) == cli.EXIT_OK
    assert towers == [tower]


@pytest.mark.parametrize("argv", [
    ["--identity", "kernelmass", "--family", "gaussian", "--p", "3", "--order", "-5"],  # p + order <= 0
    ["--identity", "gegenbauer", "--gegen-alpha", "1", "--gegen-a", "3"],  # |a| > 0.99
    ["--identity", "minpower", "--p", "2", "--t", "0.5"],
    ["--identity", "minpower", "--t", "-1"],
])
def test_verify_out_of_range_parameters_are_a_config_error(argv, tmp_path, capsys):
    assert cli.main(["verify", *argv, "--out", str(tmp_path / "x.csv")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")


def test_verify_identity_parameters_are_not_model_parameters(tmp_path):
    # --alpha 2 is the model's alpha and --order 1 the moment order
    out = tmp_path / "verify.csv"
    argv = ["verify", "--identity", "kernelmass", "--family", "polyexp", "--p", "5",
            "--alpha", "2", "--beta", "1", "--order", "1", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    (row,) = data_rows(out)
    assert row[:2] == ["kernelmass", "family=poly_exp;order=1.0"]
    want = kernel_mass_identity(poly_exp(2.0, 1.0, 5), 1.0)
    assert [float(v) for v in row[2:4]] == [want.lhs, want.rhs]
    out = tmp_path / "gegen.csv"
    argv = ["verify", "--identity", "gegenbauer", "--gegen-alpha", "1.5", "--gegen-a", "0.5", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert [row[1] for row in data_rows(out)] == ["a=0.5;alpha=1.5"]


@pytest.mark.parametrize("command", ["model-info", "phi", "check", "risk", "probe"])
@pytest.mark.parametrize("extra, named", [
    (["--alpha", "3", "--b", "7"], "--alpha"),  # the gaussian model takes neither
    (["--table", "t.csv"], "--table"),
])
def test_a_model_option_the_family_does_not_take_is_refused(command, extra, named, tmp_path, capsys):
    argv = [command, *SUBCOMMANDS[command], *extra, "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {named} is a model parameter, and the gaussian model")
    assert not (tmp_path / "x.csv").exists()


def test_table_config_keys_are_refused_for_a_parametric_family(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text('{"table_r": [0.1, 1.0], "table_f": [1.0, 0.5]}', encoding="utf-8")
    argv = ["model-info", "--family", "polyexp", "--p", "5", "--alpha", "2", "--beta", "1", "--config", str(config)]
    assert cli.main([*argv, "--out", str(tmp_path / "x.csv")]) == cli.EXIT_CONFIG
    assert "config key 'table_r' is a model parameter" in capsys.readouterr().err


@pytest.mark.parametrize("argv, hint", [
    (["--identity", "gegenbauer", "--alpha", "1", "--a", "3"], "--gegen-alpha or --order"),
    (["--identity", "kernelmass", "--family", "gaussian", "--p", "3", "--alpha", "1"], "--gegen-alpha or --order"),
    (["--identity", "gegenbauer", "--gegen-alpha", "1", "--a", "0.5"], "--gegen-a"),
    (["--identity", "all", "--beta", "1"], "--beta is a model parameter"),
])
def test_verify_refuses_the_old_identity_spellings(argv, hint, tmp_path, capsys):
    # a model parameter no model of the run takes is refused, not dropped
    assert cli.main(["verify", *argv, "--out", str(tmp_path / "x.csv")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: --") and hint in err


def test_every_violating_theta_is_labelled_a_violation(monkeypatch, tmp_path):
    # d - 3 se > 0 at theta = 1 and 3: both rows are violations, the
    # first one decides the curve's verdict
    diffs = [(-1.0, 0.1), (1.0, 0.1), (0.0, 0.1), (2.0, 0.1)]
    points = [RiskPoint(float(t), 5.0 + d, 0.1, 5.0, d, se) for t, (d, se) in enumerate(diffs)]
    monkeypatch.setattr(cli, "estimate_risk", lambda config: RiskCurve(tuple(points), {"paired": True}))
    out = tmp_path / "risk.csv"
    assert cli.main(["risk", *MODEL, "--theta", "0,1,2,3", "--out", str(out)]) == cli.EXIT_OK
    labels = [(row[0], row[-1]) for row in data_rows(out)]
    assert labels == [("0.0", "win"), ("1.0", "violation"), ("2.0", "tie"), ("3.0", "violation"),
                      ("dominance", "violation_at")]


def test_exit_codes_follow_the_kind_of_failure(tmp_path, capsys):
    # one radius is an ill-posed probe request, wherever it is refused
    argv = ["probe", *MODEL, "--prior", "power", "--k", "-2.5", "--radii", "10"]
    assert cli.main([*argv, "--out", str(tmp_path / "probe.csv")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: probe radii must be positive and finite numbers in a 1-d list of 2 or more, not [10.0]")
    # on a (1 + r^2)^-3.525 table the oracle fails far out in the GB table's
    # tail: a numeric failure, though the risk module raises it
    r = np.geomspace(0.01, 100.0, 300)
    table = tmp_path / "heavy.csv"
    np.savetxt(table, np.column_stack([r, (1.0 + r**2) ** -3.525]), delimiter=",")
    argv = ["risk", "--family", "tabulated", "--p", "5", "--table", str(table), "--estimator", "gb",
            "--prior", "power", "--k", "-2.5", "--n", "2000", "--theta", "0"]
    assert cli.main([*argv, "--out", str(tmp_path / "risk.csv")]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numeric failure: GB table's tail cannot be checked")


@pytest.mark.parametrize("argv, message", [
    (["hseq", "--eta-max", "inf"], "need 0 < eta_min <= eta_max < inf"),
    (["probe", *MODEL, "--prior", "power", "--k", "-2.5", "--radii", "nan,10"],
     "probe radii must be positive and finite numbers in a 1-d list of 2 or more, not [nan, 10.0]"),
    (["prior", "--p", "3", "--prior", "power", "--k", "nan", "--no-blyth"], "power k must be finite"),
    (["probe", *MODEL, "--prior", "harmonic", "--radii", "10,inf"],
     "probe radii must be positive and finite numbers in a 1-d list of 2 or more, not [10.0, inf]"),
    (["risk", *MODEL, "--theta", "nan"], "theta_norms must be nonempty, nonnegative and finite numbers in a 1-d list, not [nan]"),
    # exited 0 with normalization_constant nan
    (["model-info", "--family", "polyexp", "--p", "5", "--alpha", "inf", "--beta", "1"],
     "poly_exp alpha must be finite and in [0, inf), not inf"),
    # exited 1 with NonFiniteIntegrand
    (["prior", "--p", "3", "--prior", "logthick", "--offset", "inf"], "log offset c must be finite, not inf"),
    (["hseq", "--c", "inf"], "kernel offset c must be finite, not inf"),
    (["verify", "--identity", "gegenbauer", "--gegen-alpha", "nan"], "alpha must be finite and in (-0.5, inf), not nan"),
    (["verify", "--identity", "kernelmass", *MODEL, "--order", "nan"], "order must be finite and in (-5, inf), not nan"),
    # exited 0, with ok true or a nan row
    (["verify", "--identity", "minpower", "--t", "inf"], "t must be positive and finite, not inf"),
    (["phi", *MODEL, "--r-max", "inf"], "need 0 < r_min < r_max < inf"),
])
def test_a_value_outside_its_domain_is_a_configuration_error(argv, message, tmp_path, capsys, monkeypatch):
    # the first rows each reached a quadrature as a non-finite integrand: exit 1
    rounds = []
    pair = numerics._gauss_pair
    monkeypatch.setattr(numerics, "_gauss_pair", lambda *args: rounds.append(1) or pair(*args))
    assert cli.main([*argv, "--out", str(tmp_path / "x.csv")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert rounds == []


@pytest.mark.parametrize("argv, named", [
    (["--gegen-a", "0.5"], "--gegen-a"),  # without --gegen-alpha: the full grid ran
    (["--identity", "gegenbauer", "--gegen-a", "0.5"], "--gegen-a"),
    (["--order", "3"], "--order"),  # without --family: orders 0, 1 and 2 ran
    (["--identity", "kernelmass", "--order", "3"], "--order"),
    (["--t", "0.9"], "--t"),  # with --identity all: the default rows ran
    (["--identity", "gegenbauer", "--t", "0.9"], "--t"),
    (["--identity", "minpower", "--gegen-alpha", "1"], "--gegen-alpha"),
    (["--identity", "minpower", "--p", "4"], "--p"),  # without --t: p = 3, 4 and 5 ran
    (["--identity", "all", "--family", "gaussian", "--p", "3"], "--family"),
])
def test_verify_refuses_an_identity_option_its_run_does_not_use(argv, named, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli.main(["verify", *argv, "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {named} is not used by this verify run")
    assert not out.exists()


def _heavy_table(tmp_path):
    r = np.geomspace(0.01, 100.0, 300)
    table = tmp_path / "heavy.csv"
    np.savetxt(table, np.column_stack([r, (1.0 + r**2) ** -4.0]), delimiter=",")
    return table


@pytest.mark.parametrize("command, extra", [
    ("model-info", []),
    ("phi", []),
    ("check", []),
    ("risk", ["--n", "200", "--theta", "0,4"]),
])
@pytest.mark.parametrize("family", ["gaussian", "polyexp", "mixdiff", "tabulated"])
def test_every_catalogue_family_runs_through_every_model_subcommand(family, command, extra, tmp_path):
    options = {
        "gaussian": [],
        "polyexp": ["--alpha", "2", "--beta", "1"],
        "mixdiff": ["--a", "0.5", "--b", "0.5"],
        "tabulated": ["--table", str(_heavy_table(tmp_path))],
    }[family]
    out = tmp_path / "x.csv"
    assert cli.main([command, "--family", family, "--p", "5", *options, *extra, "--out", str(out)]) == cli.EXIT_OK
    assert data_rows(out)


def test_the_probe_refuses_a_power_tailed_table(tmp_path, capsys):
    argv = ["probe", "--family", "tabulated", "--p", "5", "--table", str(_heavy_table(tmp_path)), "--radii", "10,100"]
    assert cli.main([*argv, "--out", str(tmp_path / "x.csv")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: model tail too heavy")
