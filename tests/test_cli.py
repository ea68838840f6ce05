import json
from fractions import Fraction

import pytest

from cutstack.cli import main
from cutstack.familyfile import (family_from_json, family_to_json, load_family,
                                 save_family)
from cutstack.synthesis import DirectionSpec, synthesize_R
from cutstack.tower import LevelSet, product_correlation

EXAMPLE = {
    "format_version": 1, "kind": "afs4", "label": "example",
    "rules": {"a": {"kind": "const", "value": 3},
              "b": {"kind": "const", "value": 10},
              "c": {"kind": "const", "value": 4},
              "d": {"kind": "const", "value": 20}},
}

PRESET = {
    "format_version": 1, "kind": "afs4", "label": "preset",
    "rules": {"a": {"kind": "h_scale", "num": 3, "den": 1, "plus": 0},
              "b": {"kind": "w_minimal"},
              "c": {"kind": "h_scale", "num": 3, "den": 1, "plus": 1},
              "d": {"kind": "w_minimal"}},
}

VL_GEOMETRIC = {"format_version": 1, "kind": "vl", "L": 2,
                "r": {"kind": "geometric", "c": 6, "beta": 2}}


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(json.dumps(EXAMPLE))
    return str(path)


def test_build_report(example_file, tmp_path, capsys):
    assert main(["build", example_file, "--stage", "1"]) == 0
    out = capsys.readouterr().out
    assert "stage.1.height=41" in out
    assert "stage.1.offsets=[0, 4, 15, 20]" in out
    assert "stage.1.marker=21" in out
    assert out.rstrip().endswith("RESULT=ok")


def test_build_determinism(example_file, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["build", example_file, "--stage", "2", "--out", str(a)])
    main(["build", example_file, "--stage", "2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_build_parse_error(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["build", str(empty), "--stage", "1"]) == 2


def test_build_vl_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format_version": 1, "kind": "vl", "L": 3,
                               "r": {"kind": "const", "value": 3}}))
    assert main(["build", str(bad), "--stage", "2"]) == 2
    assert "stage 1" in capsys.readouterr().err


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_build_vl_missing_field(tmp_path, capsys):
    doc = {key: value for key, value in VL_GEOMETRIC.items() if key != "L"}
    assert main(["build", _write(tmp_path, "nol.json", doc), "--stage", "2"]) == 2
    assert capsys.readouterr().err == "error: missing field 'L'\n"


def test_build_zero_denominator_ratio(tmp_path, capsys):
    doc = json.loads(json.dumps(PRESET))
    doc["rules"]["c"] = {"kind": "ratio_cycle", "ratios": ["1/2", "1/0"]}
    assert main(["build", _write(tmp_path, "rc.json", doc), "--stage", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: field 'rules.c'") and "'1/0'" in err


@pytest.mark.parametrize("rules_a, field", [
    ({"kind": "const"}, "missing key 'value'"),
    ({"kind": "const", "value": "x"}, "invalid literal"),
    (5, "expected a JSON object"),
    ({"kind": "h_scale", "num": 3, "den": 0}, "den must be positive"),
])
def test_build_malformed_rule(tmp_path, capsys, rules_a, field):
    doc = json.loads(json.dumps(EXAMPLE))
    doc["rules"]["a"] = rules_a
    assert main(["build", _write(tmp_path, "bad.json", doc), "--stage", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: field 'rules.a'") and field in err


def test_build_rejects_stage_below_first(example_file, tmp_path, capsys):
    assert main(["build", example_file, "--stage", "-3"]) == 2
    assert "below the family's first stage 0" in capsys.readouterr().err
    vl_path = _write(tmp_path, "vl.json", VL_GEOMETRIC)
    assert main(["build", vl_path, "--stage", "0"]) == 2
    assert "first stage 1" in capsys.readouterr().err
    assert main(["build", vl_path, "--stage", "1"]) == 0


def test_argument_forms_are_named(example_file, capsys):
    assert main(["classify", example_file, "--ratio", "12"]) == 2
    assert "expected p/q" in capsys.readouterr().err
    assert main(["correlate", example_file, "--set", "0:0", "--powers", "1",
                 "--range", "0-3"]) == 2
    assert "expected a..b" in capsys.readouterr().err


def test_seed_flag_is_gone(example_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "1", "build", example_file, "--stage", "1"])
    assert exc.value.code == 2


def test_synthesize_and_classify(tmp_path, capsys):
    fam_path = tmp_path / "r12.json"
    assert main(["synthesize", "--R", "1/2", "--stages", "8",
                 "--out", str(fam_path)]) == 0
    capsys.readouterr()
    assert main(["classify", str(fam_path), "--ratio", "1/2"]) == 0
    assert "RESULT=ergodic" in capsys.readouterr().out


def test_synthesize_rejects_bad_fraction(tmp_path, capsys):
    assert main(["synthesize", "--R", "2/2", "--stages", "4",
                 "--out", str(tmp_path / "x.json")]) == 2


def test_synthesize_insufficient_complement(tmp_path, capsys):
    rc = main(["synthesize", "--R", "1/2", "--S", "1/3", "--stages", "8",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "complement entries" in capsys.readouterr().err


def test_classify_exit_codes(tmp_path, capsys):
    preset_path = tmp_path / "preset.json"
    preset_path.write_text(json.dumps(PRESET))
    assert main(["classify", str(preset_path), "--ratio", "1/2"]) == 4
    capsys.readouterr()
    example_path = tmp_path / "ex.json"
    example_path.write_text(json.dumps(EXAMPLE))
    assert main(["classify", str(example_path), "--ratio", "1/2"]) == 5
    tri = tmp_path / "tri.json"
    assert main(["synthesize", "--mode", "three-way", "--R", "1/2",
                 "--stages", "8", "--out", str(tri)]) == 0
    capsys.readouterr()
    assert main(["classify", str(tri), "--ratio", "1/2"]) == 3


def test_correlate_csv(example_file, capsys):
    assert main(["correlate", example_file, "--set", "0:0", "--powers", "1",
                 "--range", "0..5"]) == 0
    got = capsys.readouterr().out.splitlines()
    assert got[0] == "i,correlation"
    assert got[1] == "0,1/1"
    assert got[5] == "4,1/4"


def test_correlate_product_zero_rows(tmp_path, capsys):
    preset_path = tmp_path / "preset.json"
    preset_path.write_text(json.dumps(PRESET))
    assert main(["correlate", str(preset_path), "--set", "4:0", "--set", "4:0",
                 "--powers", "1,2", "--range", "1..40"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 40
    assert all(row.endswith(",0/1") for row in rows)


def test_correlate_vl_family(tmp_path, capsys):
    vl_path = tmp_path / "vl2.json"
    vl_path.write_text(json.dumps({"format_version": 1, "kind": "vl", "L": 1,
                                   "r": {"kind": "const", "value": 2}}))
    assert main(["correlate", str(vl_path), "--set", "1:0", "--powers", "1",
                 "--range", "0..4", "--positive-only"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1] == "0,1/1"
    assert rows[2] == "3,1/2"  # the second copy sits at offset 3 in C_2


def _csv(capsys):
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "i,correlation"
    return {int(i): Fraction(v) for i, v in (row.split(",") for row in lines[1:])}


def test_correlate_max_rows_counts_rows(example_file, capsys):
    argv = ["correlate", example_file, "--set", "0:0", "--powers", "1", "--range", "0..10"]
    assert main(argv + ["--max-rows", "10"]) == 2
    assert "range wider than 10 rows" in capsys.readouterr().err
    assert main(argv + ["--max-rows", "11"]) == 0
    assert sorted(_csv(capsys)) == list(range(11))


@pytest.mark.parametrize("flag, token", [
    ("--set", "1:5-2"), ("--set", "1:x"), ("--set", "15"), ("--target", "1:"),
    ("--target", "a:3"),
])
def test_correlate_rejects_bad_level_sets(example_file, capsys, flag, token):
    argv = ["correlate", example_file, "--set", "1:0", "--powers", "1", "--range", "0..3"]
    argv[argv.index("--set"):argv.index("--set") + 2] = (
        ["--set", token] if flag == "--set" else ["--set", "1:0", "--target", token])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} {token!r}: expected stage:idx[,idx|lo-hi]\n"


@pytest.mark.parametrize("sets, targets, powers, lags", [
    (["1:0,7,9-12"], ["1:3-6"], "1", "-150..150"),
    (["1:0,7,9-12"], ["2:3-6,40"], "-1", "-150..150"),
    (["1:0-5", "0:0"], ["1:2,30", "0:0"], "1,2", "-60..90"),
    (["2:5", "1:0-3"], ["2:1,40", "1:7"], "-1,3", "-40..40"),
])
def test_correlate_rows_match_product_correlation(example_file, capsys, sets, targets,
                                                  powers, lags):
    argv = ["correlate", example_file, f"--powers={powers}", f"--range={lags}"]
    for s, t in zip(sets, targets):
        argv += ["--set", s, "--target", t]
    assert main(argv) == 0
    rows = _csv(capsys)
    lo, hi = (int(x) for x in lags.split(".."))
    assert sorted(rows) == list(range(lo, hi + 1)) and any(rows.values())
    fam = load_family(example_file)

    def level_set(text):
        stage, _, idx = text.partition(":")
        ranges = [(int(c.partition("-")[0]), int(c.partition("-")[2] or c) + 1)
                  for c in idx.split(",")]
        return LevelSet.from_ranges(fam, int(stage), ranges)
    As, Bs = [level_set(s) for s in sets], [level_set(t) for t in targets]
    ps = [int(p) for p in powers.split(",")]
    for i in range(lo, hi + 1, 7):
        assert rows[i] == product_correlation(As, Bs, ps, i)
    assert main(argv + ["--positive-only"]) == 0
    assert _csv(capsys) == {i: v for i, v in rows.items() if v}


def test_correlate_zero_power_exits_2(example_file, capsys):
    assert main(["correlate", example_file, "--set", "0:0", "--set", "0:0",
                 "--powers", "1,0", "--range", "0..3"]) == 2
    assert capsys.readouterr().err == "error: powers must be nonzero\n"


def test_correlate_long_sweep_is_one_walk(example_file, capsys, deadline):
    # the lift stage grows with the lag (stage 149 at lag 2999), so a walk per
    # row took over a minute here
    with deadline(5):
        assert main(["correlate", example_file, "--set", "0:0", "--powers", "1",
                     "--range", "0..3000"]) == 0
    rows = _csv(capsys)
    assert len(rows) == 3001
    assert rows[4] == Fraction(1, 4) and rows[100] == Fraction(171, 1024)


def test_witness_command(tmp_path, capsys):
    vl_path = tmp_path / "vl.json"
    vl_path.write_text(json.dumps(VL_GEOMETRIC))
    assert main(["witness", str(vl_path), "--k", "2", "--n", "2", "--M", "3",
                 "--horizon", "100000"]) == 0
    assert "RESULT=pass" in capsys.readouterr().out
    # constant r: divergent tail is a precondition error
    bad = tmp_path / "vlc.json"
    bad.write_text(json.dumps({"format_version": 1, "kind": "vl", "L": 2,
                               "r": {"kind": "const", "value": 4}}))
    assert main(["witness", str(bad), "--k", "2", "--n", "2", "--M", "3"]) == 2


def test_family_file_round_trip(tmp_path):
    fam, _ = synthesize_R(DirectionSpec(ratios=()), 4)
    path = tmp_path / "fam.json"
    save_family(fam, path)
    again = load_family(path)
    assert again.digest() == fam.digest()
    assert family_to_json(again)["synthesis"] == family_to_json(fam)["synthesis"]
    for doc in (EXAMPLE, PRESET, VL_GEOMETRIC):
        fam2 = family_from_json(doc)
        assert family_from_json(family_to_json(fam2)).digest() == fam2.digest()
