"""Command-line surface: every subcommand end to end, and its CSV cells."""

import csv
import math
import re

import numpy as np
import pytest

from sphereshrink import cli
from sphereshrink.risk_sim import RiskCurve, RiskPoint

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


def test_risk_takes_the_log_thickened_prior(tmp_path):
    out = tmp_path / "risk.csv"
    assert cli.main(["risk", *MODEL, "--estimator", "gb", "--prior", "logthick", "--n", "2000",
                     "--theta", "0,4", "--out", str(out)]) == cli.EXIT_OK
    assert [row[0] for row in data_rows(out)] == ["0.0", "4.0", "dominance"]


@pytest.mark.parametrize("argv", [
    ["risk", *MODEL, "--gamma", "1"],  # gamma changes no number of risk or probe
    ["probe", *MODEL, "--gamma", "1"],
    ["phi", *MODEL, "--strict"],  # phi has no verdict
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
    ["--identity", "kernelmass", "--family", "gaussian", "--p", "3", "--alpha", "-5"],  # p + alpha <= 0
    ["--identity", "gegenbauer", "--alpha", "1", "--a", "3"],  # |a| > 0.99
    ["--identity", "minpower", "--p", "2", "--t", "0.5"],
    ["--identity", "minpower", "--t", "-1"],
])
def test_verify_out_of_range_parameters_are_a_config_error(argv, tmp_path, capsys):
    assert cli.main(["verify", *argv, "--out", str(tmp_path / "x.csv")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")


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
