import json
import os

import numpy as np
import pytest

from heavyq.cli import ConfigError, main, parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAPER = os.path.join(ROOT, "paper")


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GOOD = """
mmpp.rates = [10, 1/2]
mmpp.p = [[8/9, 1/9], [97/100, 3/100]]
service.exp = 3
heavytail.abate_whitt = 2
eps = 1/100
variants = both
grid.points = 40
grid.tmax = 25
"""


def test_parse_config_rationals(tmp_path):
    cfg = parse_config(write(tmp_path, GOOD))
    assert cfg.eps == pytest.approx(0.01)
    assert cfg.model.n_states == 2
    np.testing.assert_allclose(cfg.model.trans[0], [8 / 9, 1 / 9], rtol=1e-15)
    assert cfg.variants == ("replace", "discard")


def test_parse_config_rejects_unknown_key(tmp_path):
    path = write(tmp_path, GOOD + "\nbogus = 3\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "bogus" in str(err.value) and "line" in str(err.value)


def test_parse_config_rejects_missing_service(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "d1 = [[-1]]\nd2 = [[1]]\nheavytail.abate_whitt = 2\n"))


def test_cli_rejects_bad_rowsums(tmp_path, capsys):
    bad = "d1 = [[-1, 1], [0, -1]]\nd2 = [[0, 0.5], [1, 0]]\n" \
          "service.exp = 3\nheavytail.abate_whitt = 2\n"
    code = main(["solve", "--config", write(tmp_path, bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "row" in capsys.readouterr().err


def test_cli_solve_mmpp2_report(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["solve", "--config", os.path.join(PAPER, "mmpp2.cfg"), "--out", str(out)])
    assert code == 0
    text = (out / "report.txt").read_text()
    assert "0.908336" in text  # mixture load, figure-caption value
    assert "states: 2" in text
    csv = (out / "base_survival.csv").read_text().splitlines()
    assert csv[0] == "t,survival"
    assert len(csv) > 100


def test_cli_solve_mm1(tmp_path):
    out = tmp_path / "out"
    code = main(["solve", "--config", os.path.join(PAPER, "mm1.cfg"), "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in (out / "base_survival.csv").read_text().splitlines()[1:]]
    ts = np.array([float(r[0]) for r in rows])
    sv = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(sv, (1 / 3) * np.exp(-2 * ts), atol=1e-9)


def test_cli_approx_csv_schema_and_determinism(tmp_path):
    cfgpath = write(tmp_path, GOOD)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["approx", "--config", cfgpath, "--out", str(out1)]) == 0
    assert main(["approx", "--config", cfgpath, "--out", str(out2)]) == 0
    for variant in ("replace", "discard"):
        a = (out1 / f"approx_{variant}.csv").read_bytes()
        b = (out2 / f"approx_{variant}.csv").read_bytes()
        assert a == b  # byte-identical reruns
        header = a.decode().splitlines()[0]
        assert header == ("t,base,theta1,theta2,corrected,simplified,"
                          "corrected_raw,simplified_raw")


def test_cli_approx_eps_zero_collapses(tmp_path):
    cfgpath = write(tmp_path, GOOD.replace("eps = 1/100", "eps = 0"))
    out = tmp_path / "o"
    assert main(["approx", "--config", cfgpath, "--out", str(out), "--variant", "replace"]) == 0
    lines = (out / "approx_replace.csv").read_text().splitlines()[1:]
    for line in lines:
        vals = [float(x) for x in line.split(",")]
        assert vals[4] == pytest.approx(vals[1], abs=1e-12)  # corrected == base


MINIMAL = """mmpp.rates = [10, 1/2]
mmpp.p = [[8/9, 1/9], [97/100, 3/100]]
service.exp = 3
heavytail.abate_whitt = 2
"""


@pytest.mark.parametrize("line, args", [
    ("eps = -0.01", []),
    ("eps = 1", []),
    ("grid.points = 0", []),
    ("grid.points = 2.5", []),
    ("grid.tmax = -5", []),
    ("seed = -1", []),
    ("simulate.customers = 100", []),
    ("", ["--eps", "-0.05"]),
    ("", ["--seed", "-1"]),
])
def test_cli_rejects_out_of_range_values(tmp_path, capsys, line, args):
    text = MINIMAL + line + "\n"
    cfgpath = write(tmp_path, text)
    code = main(["simulate", "--config", cfgpath, "--out", str(tmp_path / "o")] + args)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    if line:
        assert f"line {len(text.splitlines())}: {line.split()[0]} must be" in err
    else:
        assert f"{args[0]}: {args[0][2:]} must be" in err


def test_cli_unstable_eps_rejected(tmp_path, capsys):
    # heavy mean 1/1.05 at eps 0.2 tips the two-state model over
    text = GOOD.replace("heavytail.abate_whitt = 2", "heavytail.abate_whitt = 1.05")
    text = text.replace("eps = 1/100", "eps = 1/5")
    code = main(["approx", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")])
    assert code == 2


def test_cli_approx_fails_cleanly_on_a_coefficient_entered_fourfold_pole(tmp_path, capsys):
    # Erlang shape 4 rate 3 as q/p: the companion spectrum scatters, and a
    # contour node of the families lands on one of its eigenvalues
    text = ("d1 = [[-0.5]]\nd2 = [[0.5]]\nservice.q = [81]\n"
            "service.p = [81, 108, 54, 12, 1]\nheavytail.abate_whitt = 2\n"
            "eps = 1/100\nvariants = replace\ngrid.points = 20\n")
    code = main(["approx", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "numerical failure: transform evaluated at a pole" in capsys.readouterr().err


def test_cli_simulate_runs(tmp_path):
    text = GOOD + "simulate.customers = 20000\n"
    out = tmp_path / "o"
    assert main(["simulate", "--config", write(tmp_path, text), "--out", str(out),
                 "--seed", "5"]) == 0
    lines = (out / "simulated.csv").read_text().splitlines()
    assert lines[0] == "t,survival,half_width"
    assert len(lines) > 10


def test_cli_compare_self_consistency(tmp_path):
    # small grid keeps the oracle inversion cheap
    text = GOOD.replace("grid.points = 40", "grid.points = 25")
    out = tmp_path / "o"
    assert main(["compare", "--config", write(tmp_path, text), "--out", str(out),
                 "--variant", "replace"]) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0].startswith("variant,max_abs_corrected_vs_simplified")
    fields = lines[1].split(",")
    assert fields[0] == "replace"
    gap = float(fields[1])
    err = float(fields[2])
    assert gap < 0.01 and err < 0.01


def test_cli_compare_runs_on_thirteen_states(tmp_path):
    # one state past the subset-sum cap (N_CAP = 12): no src path expands it
    from test_perturbation import random_mmpp

    model, _ = random_mmpp(13, 7, 0.8)
    rows = ", ".join("[" + ", ".join(repr(float(v)) for v in row) + "]" for row in model.trans)
    text = (f"mmpp.rates = [{', '.join(repr(float(r)) for r in model.rates)}]\n"
            f"mmpp.p = [{rows}]\nservice.exp = 3\nheavytail.abate_whitt = 2\n"
            "eps = 1/100\ngrid.points = 20\n")
    out = tmp_path / "o"
    assert main(["compare", "--config", write(tmp_path, text), "--out", str(out)]) == 0
    assert (out / "compare.csv").read_text().startswith("variant,")


def test_paper_configs_parse_and_match_fixtures():
    from heavyq.model import stability_report

    with open(os.path.join(PAPER, "expected.json"), "r", encoding="utf-8") as fh:
        expected = json.load(fh)
    for name in ("mmpp2", "mmpp5"):
        cfg = parse_config(os.path.join(PAPER, f"{name}.cfg"))
        mix_mean = (1 - cfg.eps) * cfg.pt.mean + cfg.eps * cfg.ht.mean
        load = stability_report(cfg.model, mix_mean)["load"]
        assert load == pytest.approx(expected[name]["load_mixture"],
                                     abs=expected[name]["load_tol"])
    for name in ("erlang2", "mm1"):
        parse_config(os.path.join(PAPER, f"{name}.cfg"))


def test_cli_approx_mmpp5_within_budget(tmp_path):
    # five-state experiment end to end through the CLI, both variants
    import time
    start = time.time()
    out = tmp_path / "o"
    assert main(["approx", "--config", os.path.join(PAPER, "mmpp5.cfg"),
                 "--out", str(out)]) == 0
    elapsed = time.time() - start
    assert elapsed < 10.0
    for variant in ("replace", "discard"):
        assert (out / f"approx_{variant}.csv").exists()
