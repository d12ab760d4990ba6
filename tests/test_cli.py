import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from heavyq.cli import ConfigError, _parse_value, main, parse_config

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


@pytest.mark.parametrize("text, want", [
    ("8/9", float(Fraction(8, 9))),
    ("-1/2", float(Fraction(-1, 2))),
    ("8 / 9", float(Fraction(8, 9))),
    ("1/-2", float(Fraction(-1, 2))),
    ("1e-3", float(Fraction(1, 1000))),
    ("1e-3/2", float(Fraction(1, 2000))),
    ("[10, 1/2]", [10.0, float(Fraction(1, 2))]),
    ("[[8/9, 1/9], [97/100, 3/100]]", [[float(Fraction(8, 9)), float(Fraction(1, 9))],
                                       [float(Fraction(97, 100)), float(Fraction(3, 100))]]),
    ("both", "both"),
])
def test_values_parse_exactly(text, want):
    # each number is the exact ratio rounded to float once (repr tells
    # floats apart bit for bit, and a float from an int)
    assert repr(_parse_value(text, 1)) == repr(want)


def test_random_spaced_ratios_parse_exactly():
    # small-integer ratios, some plain integers, in vectors and matrices
    # written with random spacing around every token
    rng = np.random.default_rng(35)

    def gap():
        return " " * int(rng.integers(0, 3))

    def number():
        p, q = int(rng.integers(-20, 21)), int(rng.integers(1, 21))
        if rng.random() < 0.2:
            return str(p), float(p)
        if rng.random() < 0.2:
            return f"{p}{gap()}/{gap()}-{q}", float(Fraction(-p, q))
        return f"{p}{gap()}/{gap()}{q}", float(Fraction(p, q))

    def vector(size):
        cells = [number() for _ in range(size)]
        text = "[" + gap() + f"{gap()},{gap()}".join(c[0] for c in cells) + gap() + "]"
        return text, [c[1] for c in cells]

    for draw in range(200):
        size = int(rng.integers(1, 6))
        if draw % 2:
            rows = [vector(size) for _ in range(int(rng.integers(1, 5)))]
            text = "[" + gap() + f"{gap()},{gap()}".join(r[0] for r in rows) + gap() + "]"
            want = [r[1] for r in rows]
        else:
            text, want = vector(size)
        got = _parse_value(gap() + text + gap(), 1)
        assert repr(got) == repr(want), text


@pytest.mark.parametrize("key, value, reason", [
    ("mmpp.p", "[[8/9, 1/9], [97/100, 3/100]], [1/2, 1/2]]", "cannot parse value"),
    ("mmpp.p", "[[8/9, 1/9]]", "transition matrix shape does not match rates"),
    ("mmpp.p", "[[8/9, 1/9], 97/100, 3/100]", "[8 / 9, 1 / 9] is not a number"),
    ("mmpp.rates", "[1, [2, 3]]", "[2, 3] is not a number"),
    ("mmpp.rates", "[10, 1/2]]", "unmatched ']'"),
    ("mmpp.p", "[[8/9, 1/9]], [97/100, 3/100]]", "unmatched ']'"),
    ("mmpp.rates", "[1,,2]", "invalid syntax"),
    ("mmpp.p", "[[8/9, 1/9] [97/100, 3/100]]", "is not a number"),
    ("eps", "3/0", "division by zero"),
    ("seed", "True", "True is not a number"),
    ("service.exp", "fast", "could not convert string to float: 'fast'"),
    ("service.exp", "[3]", "float() argument must be a string or a real number"),
    ("heavytail.abate_whitt", "1", "confluent"),
    ("variants", "bogus", "variants must be replace, discard or both, got 'bogus'"),
])
def test_a_bad_value_in_a_paper_run_file_names_its_line(tmp_path, capsys, key, value, reason):
    # malformed values and the builders' errors alike: nothing is dropped
    # and the message names the line of the key, not the file's last line
    lines = open(os.path.join(PAPER, "mmpp2.cfg"), encoding="utf-8").read().splitlines()
    line_no = next(n for n, line in enumerate(lines, 1) if line.startswith(key + " = "))
    lines[line_no - 1] = f"{key} = {value}"
    path = write(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value).startswith(f"line {line_no}: ") and reason in str(err.value)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"configuration error: {err.value}\n"
    assert not (tmp_path / "o").exists()


def test_an_overflowing_number_is_named_out_of_range(tmp_path):
    # 1e999 is a float literal past the largest float: the message says so,
    # at the key's line, instead of quoting Fraction's 'inf'
    lines = open(os.path.join(PAPER, "mmpp2.cfg"), encoding="utf-8").read().splitlines()
    line_no = next(n for n, line in enumerate(lines, 1) if line.startswith("eps = "))
    lines[line_no - 1] = "eps = 1e999"
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, "\n".join(lines) + "\n"))
    assert str(err.value) == f"line {line_no}: cannot parse value '1e999': number out of range"


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
    # a two-point grid ends at the run file's grid end
    two = tmp_path / "two"
    cfg = write(tmp_path, GOOD.replace("grid.points = 40", "grid.points = 2")
                .replace("grid.tmax = 25", "grid.tmax = 10"))
    assert main(["solve", "--config", cfg, "--out", str(two)]) == 0
    rows = (two / "base_survival.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.0, 10.0]


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


LUMPABLE = """
mmpp.rates = [2, 2, 3]
mmpp.p = [[1/2, 1/5, 3/10], [1/5, 1/2, 3/10], [1/4, 1/4, 1/2]]
service.exp = 3
heavytail.abate_whitt = 2
eps = 1/100
variants = both
grid.points = 40
"""


def test_cli_lumpable_environment(tmp_path):
    # states 0 and 1 are interchangeable: the mode the delay cannot see is a
    # pole and a zero of the transform, and the correction families take it
    cfgpath = write(tmp_path, LUMPABLE)
    out = tmp_path / "o"
    assert main(["approx", "--config", cfgpath, "--out", str(out)]) == 0
    for variant in ("replace", "discard"):
        assert len((out / f"approx_{variant}.csv").read_text().splitlines()) == 41
    assert main(["solve", "--config", cfgpath, "--out", str(out)]) == 0
    lines = (out / "report.txt").read_text().splitlines()
    for prefix in ("transform numerator roots: ", "transform denominator roots: "):
        [line] = [line for line in lines if line.startswith(prefix)]
        assert "-2.37123151772 (x1)" in line


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
    # Erlang shape 4 rate 3 as q/p: the companion spectrum scatters, and the
    # excess law cannot separate the scattered cluster (the families build)
    text = ("d1 = [[-0.5]]\nd2 = [[0.5]]\nservice.q = [81]\n"
            "service.p = [81, 108, 54, 12, 1]\nheavytail.abate_whitt = 2\n"
            "eps = 1/100\nvariants = replace\ngrid.points = 20\n")
    code = main(["approx", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure: could not separate the eigenvalue cluster at" in err


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


def test_cli_import_leaves_scipy_interpolate_unloaded():
    # a fresh interpreter: the correction needs no interpolation table
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    code = "import sys, heavyq.cli; print('scipy.interpolate' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"
