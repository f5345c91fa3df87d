import argparse
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from yinyang import cli
from yinyang.cli import run
from yinyang.curves import MAX_K, MAX_TURNS
from yinyang.geometry import MAX_PARTS
from yinyang.render import RenderConfig, render
from yinyang.verify import MAX_G_GRID, MAX_MC_SAMPLES, MAX_Q, MAX_V_QUADRATURE

FIXTURES = Path(__file__).parent / "fixtures"
FAST_VERIFY = ["--g-grid", "64", "--v-quad", "5001"]


def test_verify_fermat_exits_zero(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--family", "fermat", "--turns", "1", *FAST_VERIFY,
                "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["axioms"]["A1"]["pass"] and doc["axioms"]["A4"]["pass"]
    assert doc["profile"]["max_dev"] <= 1e-6


def test_verify_report_to_stdout(capsys):
    code = run(["verify", "--family", "fermat", "--turns", "1", *FAST_VERIFY])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == 1
    assert doc["spec"]["family"] == "fermat"


def test_verify_custom_counterexample_exits_one(tmp_path):
    out = tmp_path / "bad.json"
    code = run(["verify", "--family", "custom", "--samples", str(FIXTURES / "bad_alpha.json"),
                *FAST_VERIFY, "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["axioms"]["A4"]["pass"] is False
    assert doc["axioms"]["A1"]["pass"] and doc["axioms"]["A2"]["pass"] and doc["axioms"]["A3"]["pass"]


def test_verify_two_turns_with_a3pp_axioms(tmp_path):
    out = tmp_path / "two.json"
    default = run(["verify", "--family", "fermat", "--turns", "2", *FAST_VERIFY,
                   "--out", str(out)])
    assert default == 1  # A3 fails for the two-turn spiral
    doc = json.loads(out.read_text())
    assert doc["axioms"]["A3"]["pass"] is False
    assert doc["axioms"]["A3''"]["pass"] is True
    swapped = run(["verify", "--family", "fermat", "--turns", "2", *FAST_VERIFY,
                   "--axioms", "A1,A2,A3pp,A4", "--out", str(out)])
    assert swapped == 0


def test_verify_rotation_section(tmp_path):
    out = tmp_path / "rot.json"
    code = run(["verify", "--family", "fermat", "--turns", "1", "--q-max", "4",
                *FAST_VERIFY, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["rotation"]["pass"] is True
    assert set(doc["rotation"]["integrals"]) == {"1/2", "1/3", "2/3", "1/4", "3/4"}


def test_verify_seeded_reports_bit_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--family", "sine", "--lambda", "0.1", *FAST_VERIFY, "--seed", "11"]
    assert run([*args, "--out", str(a)]) == 0
    assert run([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_bad_lambda_exits_two(capsys):
    code = run(["verify", "--family", "sine", "--lambda", "0.3"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--turns", "inf"], "turns"),
        (["--turns", "nan"], "turns"),
        (["--family", "ck", "--k", "1", "--lambda", "nan"], "lambda"),
        (["--family", "ck", "--k", "1", "--lambda", "inf"], "lambda"),
        (["--family", "sine", "--lambda", "inf"], "lambda"),
        (["--tolerance", "nan"], "tolerance"),
        (["--tolerance", "inf"], "tolerance"),
        (["--tolerance=-1"], "tolerance"),
    ],
)
def test_verify_bad_number_exits_two(argv, flag, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["verify", *argv, *FAST_VERIFY])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and flag in captured.err
    assert not caught, [str(w.message) for w in caught]


def test_verify_non_finite_sample_table_exits_two(tmp_path, capsys):
    table = tmp_path / "nan.json"
    table.write_text("[[0.1, NaN], [0.25, 0.5], [0.5, 1.0]]")
    code = run(["verify", "--family", "custom", "--samples", str(table), *FAST_VERIFY])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "sample table" in captured.err
    assert "JSON compliant" not in captured.err


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["verify", "--g-grid", str(MAX_G_GRID + 1)], MAX_G_GRID),
        (["verify", "--v-quad", str(MAX_V_QUADRATURE + 1)], MAX_V_QUADRATURE),
        (["oracle", "--g", "0.3", "--mc-samples", str(MAX_MC_SAMPLES + 1)], MAX_MC_SAMPLES),
        (["verify", "--family", "ck", "--lambda", "1", "--k", str(MAX_K + 1)], MAX_K),
        # 400 digits overflowed math.sqrt inside Ck: a traceback and exit 1
        (["verify", "--family", "ck", "--lambda", "1", "--k", "1" + "0" * 400], MAX_K),
    ],
)
def test_work_size_over_cap_exits_two(argv, limit, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and str(limit) in captured.err
    # the message gives the bounds, and a 401-digit value by its digit count
    assert len(captured.err) < 120, captured.err


def test_verify_huge_integer_in_sample_table_exits_two(tmp_path, capsys):
    # an integer beyond the float range made math.isfinite raise OverflowError: a traceback
    table = tmp_path / "huge.json"
    table.write_text("[[0.1, 0.2], [1" + "0" * 400 + ", 1.0]]")
    code = run(["verify", "--family", "custom", "--samples", str(table), *FAST_VERIFY])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: sample table entry 1 must be a finite number, "
                            "got an integer of 401 digits\n")


def test_verify_a_t_rule_too_coarse_for_a4_exits_two(capsys):
    # 9 knots step the tent centres by 1/8, half the four-part sine's tent side
    code = run(["verify", "--family", "sine", "--lambda", "0.1", "--parts", "4", "--v-quad", "9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--v-quad" in captured.err, captured.err
    assert run(["verify", "--family", "sine", "--lambda", "0.1", "--parts", "4", "--v-quad", "11",
                "--axioms", "A2"]) == 0


def test_verify_a2_passes_a_near_flat_table(capsys):
    # a table that rises by less than an ulp per A2 grid step exited 1 on A2
    assert run(["verify", "--family", "custom", "--samples", str(FIXTURES / "near_flat.json"),
                *FAST_VERIFY, "--axioms", "A2"]) == 0
    assert json.loads(capsys.readouterr().out)["axioms"]["A2"]["pass"] is True


def test_verify_many_turn_fermat_passes_a4_at_the_default_t_rule(capsys):
    # fermat is its own interpolant, so no knot count is too coarse for it
    assert run(["verify", "--family", "fermat", "--turns", "100000", "--axioms", "A4"]) == 0
    assert json.loads(capsys.readouterr().out)["profile"]["v_nodes"] == 100_001


@pytest.mark.parametrize("curve, a5", [
    (["--family", "ck", "--lambda", "1", "--k", "1"], 1),
    (["--family", "sine", "--lambda", "0.1"], 0),
], ids=["ck-k1", "sine-0.1"])
def test_verify_a5_sets_the_exit_code_only_when_requested(curve, a5, capsys):
    # ck is C^2 at its seam and fails A5; the default axioms leave A5 out
    assert run(["verify", *curve, *FAST_VERIFY, "--axioms", "A5"]) == a5
    assert json.loads(capsys.readouterr().out)["axioms"]["A5"]["pass"] is (a5 == 0)
    assert run(["verify", *curve, *FAST_VERIFY]) == 0


def test_verify_bad_axiom_id_exits_two():
    code = run(["verify", "--family", "fermat", *FAST_VERIFY, "--axioms", "A9"])
    assert code == 2


def test_unknown_flag_exits_two():
    assert run(["verify", "--nonsense"]) == 2


def test_missing_subcommand_exits_two():
    assert run([]) == 2


def test_oracle_json(capsys):
    code = run(["oracle", "--family", "fermat", "--turns", "1", "--g", "0.3",
                "--mc-samples", "50000", "--seed", "3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"value", "stderr", "samples", "seed", "g", "spec"}
    assert doc["samples"] == 50000
    assert abs(doc["value"] - 0.25) < 0.02


@pytest.mark.parametrize("g", ["nan", "inf", "-inf", "NaN"])
def test_oracle_non_finite_axis_exits_two(g, capsys):
    code = run(["oracle", "--family", "fermat", f"--g={g}", "--mc-samples", "100"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err and "finite" in captured.err


def test_reports_are_strict_json():
    assert json.loads(cli._dumps({"value": 0.25})) == {"value": 0.25}
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cli._dumps({"value": bad})


def test_parser_is_reused_without_leaking_arguments(capsys):
    assert cli._parser() is cli._parser()
    assert run(["oracle", "--family", "fermat", "--g", "0.3", "--mc-samples", "100",
                "--seed", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 9
    assert run(["oracle", "--family", "fermat", "--g", "0.3", "--mc-samples", "100"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0
    assert run(["oracle", "--family", "fermat"]) == 2  # --g is still required
    assert "--g" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: yy")
    assert run(["verify", "--help"]) == 0
    assert "--q-max" in capsys.readouterr().out


def test_render_writes_svg(tmp_path):
    out = tmp_path / "sym.svg"
    assert run(["render", "--preset", "britannica", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<?xml")
    assert "<svg" in text


def test_render_unknown_preset_exits_two():
    assert run(["render", "--preset", "nope", "--out", "/tmp/x.svg"]) == 2


def test_render_overrides_and_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"turn": 0.6, "rotate_deg": -8, "parts": 2}))
    out = tmp_path / "from_config.svg"
    assert run(["render", "--config", str(cfg), "--out", str(out)]) == 0
    out2 = tmp_path / "from_flags.svg"
    assert run(["render", "--turn", "0.6", "--rotate", "-8", "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--radius", "inf", "radius_px"),
        ("--rotate", "nan", "rotate_deg"),
        ("--stroke-width", "inf", "stroke_width_px"),
        ("--turn", "inf", "turn"),
        ("--interpol", "nan", "interpol"),
        ("--interpol", "5e-6", "MAX_SPIRAL_STEPS"),
        # finite values whose geometry overflows a float
        ("--turn", "1e308", "turn = 1e+308"),
        ("--interpol", "1e-320", "sampling step 9.99989e-321"),
        ("--radius", "1e308", "radius_px = 1e+308"),
        ("--stroke-width", "1e308", "stroke_width_px = 1e+308"),
    ],
)
def test_render_bad_number_exits_two(flag, value, field, tmp_path, capsys):
    out = tmp_path / "x.svg"
    assert run(["render", f"{flag}={value}", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


def test_render_evolution_phases(tmp_path):
    out = tmp_path / "evo.svg"
    assert run(["render", "--evolution", "--out", str(out)]) == 0
    files = sorted(p.name for p in tmp_path.glob("evo-*.svg"))
    assert files == ["evo-a.svg", "evo-b.svg", "evo-c.svg", "evo-d.svg"]


def test_presets_listing(capsys):
    assert run(["presets"]) == 0
    text = capsys.readouterr().out
    assert "britannica" in text and "chosun" in text and "korea1882" in text


def test_presets_json(capsys):
    assert run(["presets", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["render"]["britannica"]["turn"] == pytest.approx(2.0 / 9.0)
    assert doc["render"]["chosun"]["turn"] == pytest.approx(0.6)
    assert doc["render"]["korea1882"]["turn"] == pytest.approx(1.5)
    assert "classic" in doc["curves"] or "classic" in doc["render"]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "yinyang.cli", "presets"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "render presets" in proc.stdout


# -- malformed outside input: exit 2, a message naming the field, no traceback ----------


def _assert_usage_error(argv, field, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and field in captured.err, captured.err
    assert len(captured.err) < 1024, len(captured.err)  # a long refused value is cut short
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


HUGE = list(range(200_000))  # 1.3 MB of JSON


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"dark": 5}', "dark"),
        ('{"dark": [0.1, 0.2]}', "dark"),
        ('{"dark": [null, 0, 0]}', "dark"),
        ('{"turn": [1]}', "turn"),
        ('{"turn": true}', "turn"),
        ('{"radius_px": "200"}', "radius_px"),
        ("[1, 2]", "render configuration"),
        ('{"clockwise": "no"}', "clockwise"),
        ('{"parts": 2.7}', "parts"),
        ('{"rotate": 10}', "rotate_deg"),  # unknown key: the message lists the allowed ones
        pytest.param(json.dumps(HUGE), "render configuration", id="huge-array"),
        pytest.param(json.dumps({"clockwise": HUGE}), "clockwise", id="huge-clockwise"),
        pytest.param(json.dumps({"dark": HUGE}), "dark", id="huge-dark"),
    ],
)
def test_render_config_file_rejects_malformed(text, field, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "x.svg"
    _assert_usage_error(["render", "--config", str(cfg), "--out", str(out)], field, capsys)
    assert not out.exists()


def test_render_config_null_keeps_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"parts": null, "turn": null, "interpol": null}')
    out = tmp_path / "x.svg"
    assert run(["render", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text() == render(RenderConfig()).to_xml()


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        "[[null, 1]]",
        '{"samples": 5}',
        '"ab"',
        "[[true, 0.5], [0.5, 1.0]]",
        '[["0.25", 0.5], [0.5, 1.0]]',
        "[[0.25, 0.5, 1.0], [0.5, 1.0]]",
        pytest.param(json.dumps({"samples": [[0.25, 0.5], [0.5, 1.0]] * 50_000}), id="huge-object"),
        pytest.param(json.dumps([[0.5, *HUGE]]), id="huge-pair"),
    ],
)
def test_sample_table_file_rejects_malformed(text, tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(text)
    argv = ["verify", "--family", "custom", "--samples", str(table), *FAST_VERIFY]
    _assert_usage_error(argv, "sample table", capsys)


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--family", "fermat", "--samples", str(FIXTURES / "bad_alpha.json")], "samples"),
        (["--family", "fermat", "--lambda", "0.3"], "lambda"),
        (["--family", "fermat", "--k", "1"], "k"),
        (["--family", "sine", "--lambda", "0.1", "--k", "2"], "k"),
        (["--family", "sine", "--lambda", "0.1", "--samples", str(FIXTURES / "bad_alpha.json")],
         "samples"),
        (["--family", "ck", "--lambda", "1", "--k", "1", "--samples",
          str(FIXTURES / "bad_alpha.json")], "samples"),
        (["--family", "custom", "--samples", str(FIXTURES / "bad_alpha.json"), "--lambda", "0.1"],
         "lambda"),
        (["--family", "custom", "--samples", str(FIXTURES / "bad_alpha.json"), "--k", "1"], "k"),
    ],
)
@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_family_refuses_parameters_it_does_not_take(command, flags, field, capsys):
    extra = FAST_VERIFY if command == "verify" else ["--g", "0.3", "--mc-samples", "100"]
    _assert_usage_error([command, *flags, *extra], f"takes no {field}", capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--turns=1e300", *FAST_VERIFY],
        ["verify", "--turns=1e-308", *FAST_VERIFY],
        ["verify", "--turns=1e16", *FAST_VERIFY],
        ["verify", f"--turns={2 * MAX_TURNS}", *FAST_VERIFY],
        ["oracle", "--turns=1e300", "--g", "0.3", "--mc-samples", "100"],
        ["verify", "--family", "custom", "--samples", "TABLE", *FAST_VERIFY],
    ],
)
def test_turns_out_of_range_exit_two(argv, tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text("[[1e-9, 1.0]]")  # spans 2e-9 turns
    _assert_usage_error([str(table) if a == "TABLE" else a for a in argv], "turns", capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", f"--parts={MAX_PARTS + 1}", *FAST_VERIFY],
        ["oracle", f"--parts={MAX_PARTS + 1}", "--g", "0.3", "--mc-samples", "100"],
        ["render", f"--parts={MAX_PARTS + 1}"],
        ["render", "--config", "CONFIG"],
    ],
)
def test_parts_over_cap_exit_two(argv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"parts": MAX_PARTS + 1}))
    out = tmp_path / "x.svg"
    argv = [str(cfg) if a == "CONFIG" else a for a in argv]
    if argv[0] == "render":
        argv += ["--out", str(out)]
    _assert_usage_error(argv, "parts", capsys)
    assert not out.exists()


@pytest.mark.parametrize("text", [b"[" * 100_000, b"not json", b"\xff\xfe[[0.5,1.0]]"],
                         ids=["deeply-nested", "not-json", "not-utf-8"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--family", "custom", "--samples", "FILE", *FAST_VERIFY],
        ["render", "--config", "FILE"],
    ],
)
def test_unreadable_json_file_exits_two_naming_it(argv, text, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    argv = [str(bad) if a == "FILE" else a for a in argv]
    if argv[0] == "render":
        argv += ["--out", str(tmp_path / "x.svg")]
    _assert_usage_error(argv, str(bad), capsys)


@pytest.mark.parametrize("argv", [["oracle", "--g", "0.3", "--mc-samples", "100"], ["verify", *FAST_VERIFY]],
                         ids=["oracle", "verify"])
def test_negative_seed_exits_two_naming_it(argv, capsys):
    # numpy's "expected non-negative integer" named no flag, and verify recorded any seed
    _assert_usage_error([*argv, "--seed", "-1"], "seed must be an integer", capsys)


def test_q_max_over_cap_refused_before_any_work(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("axiom checks ran")
    monkeypatch.setattr(cli, "check_axioms", no_work)
    _assert_usage_error(["verify", f"--q-max={MAX_Q + 1}"], "q_max", capsys)


@pytest.mark.parametrize("argv, field", [
    (["verify", *FAST_VERIFY, "--axioms", "A1," + "x" * 100_000], "unknown axiom id 'xxx"),
    (["render", "--preset", "x" * 100_000, "--out", "OUT"], "unknown preset 'xxx"),
], ids=["axioms", "preset"])
def test_a_long_unknown_axiom_or_preset_is_cut_short(argv, field, tmp_path, capsys):
    # both messages used to repeat the whole refused token: 100 027 and 100 070 bytes
    out = tmp_path / "x.svg"
    _assert_usage_error([str(out) if a == "OUT" else a for a in argv], field, capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--family"], ["oracle", "--g"], ["verify", "--lambda"], ["verify", "--k"], ["render", "--dark"],
], ids=lambda argv: argv[1])
def test_argparse_cuts_a_long_refused_token_short(argv, capsys):
    # argparse's invalid choice and invalid value messages repeated all 100 000 characters
    assert run([*argv, "x" * 100_000]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {argv[1]}: invalid " in captured.err and "'xxx" in captured.err
    assert len(captured.err) < 1024, len(captured.err)


@pytest.mark.parametrize("command", ["verify", "render"])
@pytest.mark.parametrize("prefix", ["", "--"], ids=["bare", "dashed"])
def test_argparse_cuts_a_long_unrecognized_word_short(command, prefix, capsys):
    # argparse's unrecognized arguments message repeats the extra words whole and unquoted
    assert run([command, prefix + "x" * 100_000]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {prefix}xxx" in captured.err
    assert len(captured.err) < 1024, len(captured.err)


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "bogus"], ["verify", "--k", "1.5"], ["oracle", "--g", "x"], ["render", "--dark", "a,b"],
    ["bogus"], ["verify", "--family", "it's"], ["verify", "extra", "--words"], ["render", "--fam"],
])
def test_argparse_keeps_a_short_refused_token_whole(argv, monkeypatch, capsys):
    # a short token's usage message is argparse's own, byte for byte
    assert run(argv) == 2
    ours = capsys.readouterr().err
    monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
    assert run(argv) == 2
    assert capsys.readouterr().err == ours


def test_render_steps_times_parts_capped(tmp_path, capsys):
    out = tmp_path / "x.svg"
    _assert_usage_error(["render", "--parts", "100", "--interpol", "1e-4", "--out", str(out)],
                        "MAX_RENDER_STEPS", capsys)
    assert not out.exists()
