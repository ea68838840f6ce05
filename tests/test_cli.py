import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest

from cutstack import cli
from cutstack.cli import main
from cutstack.errors import CutstackError
from cutstack.familyfile import (Report, family_from_json, family_to_json, load_family,
                                 save_family)
from cutstack.synthesis import DirectionSpec, SynthesizedParams, synthesize_R
from cutstack.tower import LevelSet, correlation, intersection_measure, product_correlation

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


# sha256 of stage-6 build reports recorded while each family still wrote out
# its own spacer ranges; spacers derived from the copy offsets keep every byte.
BUILD_REPORT_SHA256 = {
    "preset": "219e2eff02856f10d526671bd5f1a1a6ea143f4d537f0080b885ac22ca6ffa04",
    "vl": "d787630409ab19b8f455f6d763b97b7e866a198fd6c08bae77e131d96aff8dbd",
}


@pytest.mark.parametrize("name, doc", [("preset", PRESET), ("vl", VL_GEOMETRIC)])
def test_build_report_bytes_are_recorded(name, doc, tmp_path):
    family, report = tmp_path / "family.json", tmp_path / "report.txt"
    family.write_text(json.dumps(doc))
    assert main(["build", str(family), "--stage", "6", "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == BUILD_REPORT_SHA256[name]


def test_build_parse_error(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["build", str(empty), "--stage", "1"]) == 2


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    json.dumps(dict(EXAMPLE, rules=None)).replace("null", "[" * 50_000 + "]" * 50_000),
], ids=["bare", "afs4-rules"])
def test_build_refuses_json_nested_too_deep(tmp_path, capsys, text):
    """The JSON decoder recurses once per nesting level; past the limit it
    raised RecursionError, a traceback with exit 1."""
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    assert main(["build", str(deep), "--stage", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {deep}: not valid JSON (") and err.endswith(")\n")


def test_build_vl_with_more_coordinates_than_the_recursion_limit(tmp_path, capsys):
    doc = {"format_version": 1, "kind": "vl", "L": 3000, "r": {"kind": "const", "value": 3001}}
    assert main(["build", _write(tmp_path, "wide.json", doc), "--stage", "2"]) == 0
    assert "stage.2.height=" in capsys.readouterr().out


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


THREE_WAY_NO_SUBSET = {
    "format_version": 1, "kind": "afs4",
    "synthesis": {"mode": "three-way", "ratios": ["1/2", "1/3"], "ergodic_subset": None,
                  "complement": [], "complement_complete": False},
}

ERGODIC_SET_WITH_SUBSET = {
    "format_version": 1, "kind": "afs4",
    "synthesis": {"mode": "ergodic-set", "ratios": ["1/2", "1/3"], "ergodic_subset": ["1/2"],
                  "complement": ["2/5", "1/4", "2/3", "3/5"], "complement_complete": False},
}


@pytest.mark.parametrize("doc, message", [
    (dict(EXAMPLE, rules=dict(EXAMPLE["rules"], a={"kind": "w_minimal"})),
     "w_minimal may drive only b and d, not sequence a"),
    (dict(EXAMPLE, rules=dict(EXAMPLE["rules"], b={"kind": "ratio_cycle", "ratios": ["1/2"]})),
     "ratio_cycle may drive only c, not sequence b"),
    (THREE_WAY_NO_SUBSET, "three-way synthesis needs an explicit ergodic subset"),
    (ERGODIC_SET_WITH_SUBSET, "ergodic-set synthesis takes no ergodic subset"),
    (dict(ERGODIC_SET_WITH_SUBSET, synthesis=dict(ERGODIC_SET_WITH_SUBSET["synthesis"],
                                                  ratios=["1/2"], ergodic_subset=[])),
     "ergodic-set synthesis takes no ergodic subset"),
])
def test_build_refuses_a_rule_the_family_cannot_apply(tmp_path, capsys, doc, message):
    """A misplaced rule used to fail only when a stage evaluated it (w_minimal
    on a printed "resolved inline"); a three-way recipe without an ergodic
    subset loaded and made every target ergodic; and an ergodic-set recipe
    with one made every target ergodic while ``classify`` certified the
    targets outside the subset as exactly proportional."""
    assert main(["build", _write(tmp_path, "bad.json", doc), "--stage", "1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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
    assert main(["correlate", example_file, "--set", "1:0", "--powers", "1",
                 "--range", "5..1"]) == 2
    assert capsys.readouterr() == ("", "error: --range '5..1': 1 < 5 checks no lag "
                                       "(need a <= b)\n")
    for powers in ("1.5", "", "1,,2"):
        assert main(["correlate", example_file, "--set", "1:0", "--powers", powers,
                     "--range", "0..3"]) == 2
        assert capsys.readouterr() == (
            "", f"error: --powers {powers!r}: expected comma-separated integers\n")


def test_seed_flag_is_gone(example_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "1", "build", example_file, "--stage", "1"])
    assert exc.value.code == 2


def test_reused_parser_answers_like_a_fresh_one(example_file, capsys):
    argvs = [["build", example_file, "--stage", "x"],
             ["classify", example_file, "--ratio", "1/2"],
             ["build", example_file, "--stage", "2"]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    reused = [run(argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in reused] == [2, 5, 0]
    assert reused == fresh


def test_synthesize_and_classify(tmp_path, capsys):
    fam_path = tmp_path / "r12.json"
    assert main(["synthesize", "--R", "1/2", "--stages", "8",
                 "--out", str(fam_path)]) == 0
    capsys.readouterr()
    assert main(["classify", str(fam_path), "--ratio", "1/2"]) == 0
    assert "RESULT=ergodic" in capsys.readouterr().out


@pytest.mark.parametrize("horizon", [0, -3])
def test_build_refuses_a_vl_horizon_below_the_first_stage(tmp_path, capsys, horizon):
    """Such a family used to load, and its readers disagreed: the height of
    stage 1 refused the horizon while its level width and a build report
    answered."""
    doc = {"format_version": 1, "kind": "vl", "L": 1, "r": {"kind": "const", "value": 2},
           "horizon": horizon}
    assert main(["build", _write(tmp_path, "vl.json", doc), "--stage", "1"]) == 2
    assert capsys.readouterr().err == f"error: horizon {horizon} is below the first stage 1\n"


def test_synthesize_rejects_bad_fraction(tmp_path, capsys):
    assert main(["synthesize", "--R", "2/2", "--stages", "4",
                 "--out", str(tmp_path / "x.json")]) == 2


def test_synthesize_insufficient_complement(tmp_path, capsys):
    rc = main(["synthesize", "--R", "1/2", "--S", "1/3", "--stages", "8",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "complement entries" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--stages", "-3"], "--stages -3 is below 0"),
    (["--stages", "4", "--R1", "1/2"], "--R1 applies only with --mode three-way"),
    # refused before a stage is built: the second one used to build until killed
    (["--stages", "5001"], "stage 5001: more than LIFT_STAGE_CAP=5000 stages above the first "
                           "stage 0"),
    (["--stages", "99999999999999999999"], "more than LIFT_STAGE_CAP=5000 stages"),
    # refused as the trace row is built: this one used to build all 5000 stages
    (["--stages", "5000"], "trace stage 805: t holds an integer of more than 4300 digits, "
                           "too long to print"),
])
def test_synthesize_refuses_a_request_that_does_nothing(tmp_path, capsys, monkeypatch,
                                                        argv, message):
    built = []
    next_stage = SynthesizedParams._next_stage

    def counted(self, n):
        built.append(n + 1)
        return next_stage(self, n)

    monkeypatch.setattr(SynthesizedParams, "_next_stage", counted)
    out = tmp_path / "x.json"
    assert main(["synthesize", "--R", "1/2", "--out", str(out)] + argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert max(built, default=0) <= 806


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


CLASSIFY_FAMILIES = {
    "preset": ["preset"],
    "example": ["example"],
    "synth": ["synthesize", "--R", "1/3", "--R", "3/7", "--S", "1/2", "--S", "2/5",
              "--S", "1/4", "--S", "2/3", "--S", "3/5", "--S", "1/5", "--S", "3/4",
              "--S", "1/6", "--stages", "12"],
    "tri": ["synthesize", "--mode", "three-way", "--R", "1/2", "--R", "1/3", "--R1", "1/2",
            "--S", "2/5", "--S", "1/4", "--S", "2/3", "--S-complete", "--stages", "8"],
}

# (family, classify arguments) -> (exit code, sha256 of the report), one case
# per classifier branch, recorded before the branches shared one verdict builder.
CLASSIFY_REPORTS = {
    ("preset", "1/2"): (4, "8b689a39fc519aa353021670cabe52df39799df3aa7bffd0df17baa4fd2f5bea"),
    ("preset", "1/1"): (0, "4597b0ff35939799fff9d6b9854eea70d4087e8e2aa49d17bb51093ed3e5ab95"),
    ("preset", "1/1", "--negative-first"):
        (5, "7ddb1d7ddae49ce66fc9ab451c779119507d329589393edde62e7d6939001535"),
    ("preset", "1/2", "--negative-first"):
        (5, "93d2c2171160b7710eec22d51e2cbfa871e61754e3077499832c210fc925de83"),
    ("preset", "6/3"): (4, "f7487860b67ec951dfbb7df705f7343a2c67e3b25938acf03b0618281ad94016"),
    ("synth", "1/3"): (0, "403a42481e692f84115678bd0f2b68aeb4dd0ce184a3648132dd228850ec5428"),
    ("synth", "1/3", "--negative-first"):
        (0, "4167409e7166d2882ec61512796af66dd8443bad8bff10d4dd7909554c231407"),
    ("synth", "3/4"): (4, "a8d04e469814fe2902db855dfa0d87d04cd5dbbb1b8802db0226218124f6dcd0"),
    ("synth", "8/6"): (4, "dea2ebd76c204bc3fb529420baf43316395b144a06756cae89f4a319566cb3f2"),
    ("synth", "3/4", "--negative-first"):
        (5, "03d70c8ca80b30097637f9a12e1299f3fd46041d39778950c83df15a4a3ee053"),
    ("synth", "5/7"): (5, "a6a5a43baaca5618c4871af518d4546f9f94d87b649ea566654c0e1e1b0ad6b7"),
    ("synth", "2/2"): (5, "07c9b1dfb29879a45776c44916cb258596260637f582f2f4c1d76fd24942ffe0"),
    ("tri", "1/3"): (3, "10859c41a1fb0916b73fbfc3bcec36e9da6726465c38c7e403bbccb57b4f23b4"),
    ("tri", "1/2"): (0, "4e1c04038609cf5a7aaca5ab012d44374603c8778ecc33fd07898f73b791e6de"),
    ("tri", "2/5"): (4, "ab749816b644582df2ba07b50d66eada720ec24fed5947c52cf52d049ab42538"),
    ("example", "1/2", "--horizon", "300"):
        (5, "ace0b260ea59ab6027875faa4697e54981da5bbfae00796abee0f6072b9dc035"),
    ("example", "2/3"): (5, "e473f6c9f23946f37aafe18115c69efff6186ea44d2afcbcb5be7329a91a6638"),
}


@pytest.fixture(scope="module")
def classify_families(tmp_path_factory):
    root = tmp_path_factory.mktemp("classify")
    paths = {}
    for name, argv in CLASSIFY_FAMILIES.items():
        path = root / f"{name}.json"
        if argv[0] == "synthesize":
            assert main(argv + ["--out", str(path), "--report", str(root / "r.txt")]) == 0
        else:
            path.write_text(json.dumps({"preset": PRESET, "example": EXAMPLE}[name]))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("case", sorted(CLASSIFY_REPORTS), ids=" ".join)
def test_classify_report_bytes_are_recorded(case, classify_families, tmp_path):
    name, *args = case
    out = tmp_path / "report.txt"
    code = main(["classify", classify_families[name], "--ratio", *args, "--out", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert (code, digest) == CLASSIFY_REPORTS[case]
    if "--negative-first" in args:
        # the report says whether T^-p x T^q or T^p x T^q was certified
        assert digest != CLASSIFY_REPORTS[case[:2]][1]


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


@pytest.mark.parametrize("rows", ["0", "-1"])
def test_correlate_refuses_max_rows_below_one(example_file, capsys, rows):
    argv = ["correlate", example_file, "--set", "0:0", "--powers", "1", "--range", "0..0",
            "--max-rows", rows]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --max-rows {rows}: need at least 1\n"
    assert main(argv[:-1] + ["1"]) == 0
    assert _csv(capsys) == {0: 1}


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
    for i in range(lo, hi + 1):
        assert rows[i] == product_correlation(As, Bs, ps, i)
    assert main(argv + ["--positive-only"]) == 0
    assert _csv(capsys) == {i: v for i, v in rows.items() if v}


@pytest.mark.parametrize("powers, lags, grid", [
    ("1", "0..99999999999999999999999", "0..99999999999999999999999 with step 1"),
    ("2", "-99999999999999999999999..0", "-199999999999999999999998..0 with step 2"),
])
def test_correlate_refuses_a_lag_grid_too_long_to_list(example_file, capsys, powers, lags,
                                                      grid):
    """Such a grid ended in an OverflowError traceback from len()."""
    assert main(["correlate", example_file, "--set", "1:0", "--powers", powers,
                 f"--range={lags}", "--max-rows", "99999999999999999999999999"]) == 2
    assert capsys.readouterr().err == (f"error: lag grid {grid} holds more than "
                                       f"sys.maxsize={sys.maxsize} lags\n")


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


def test_correlate_positive_only_sweep_costs_its_rows(tmp_path, capsys, deadline):
    # a per-lag profile took over 5 s and about 480 MB on this 30,000,001-lag
    # grid, though only 5,765 of its lags have positive correlation
    preset_path = tmp_path / "preset.json"
    preset_path.write_text(json.dumps(PRESET))
    with deadline(2):
        assert main(["correlate", str(preset_path), "--set", "1:0", "--powers", "1",
                     "--range", "0..30000000", "--positive-only",
                     "--max-rows", "100000000"]) == 0
    rows = _csv(capsys)
    assert len(rows) == 5765
    A = LevelSet.level(load_family(str(preset_path)), 1, 0)
    assert all(correlation(A, A, i) == v for i, v in rows.items())
    rng = random.Random(5765)
    unlisted = [i for i in (rng.randint(0, 30_000_000) for _ in range(40))
                if i not in rows][:20]
    assert len(unlisted) == 20
    assert all(intersection_measure([A, A], [i, 0]) == 0 for i in unlisted)


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


@pytest.mark.parametrize("horizon", ["-5", "0"])
def test_witness_refuses_a_horizon_that_checks_no_lag(tmp_path, capsys, horizon):
    vl_path = tmp_path / "vl.json"
    vl_path.write_text(json.dumps(VL_GEOMETRIC))
    assert main(["witness", str(vl_path), "--k", "2", "--n", "2", "--M", "3",
                 "--horizon", horizon]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: horizon {horizon} checks no lag (need at least 1)\n"


def test_report_refuses_a_value_too_long_to_print():
    limit = sys.get_int_max_str_digits()
    report = Report("build stage=816")
    for key, value in (("stage.816.height", 10 ** limit),
                       ("stage.816.offsets", [0, -10 ** limit])):
        with pytest.raises(CutstackError) as err:
            report.add(key, value)
        assert str(err.value) == (f"report value {key} holds an integer of more than "
                                  f"{limit} digits, too long to print")
    assert report.lines == ["# cutstack-report v1 command=build stage=816"]


def test_classify_refuses_a_negative_horizon(example_file, capsys):
    assert main(["classify", example_file, "--ratio", "1/2", "--horizon", "-1"]) == 2
    assert capsys.readouterr().err == "error: horizon -1 is negative (0 scans nothing)\n"
    # 0, the default, scans nothing
    assert main(["classify", example_file, "--ratio", "1/2", "--horizon", "0"]) == 5
    assert "product returns" not in capsys.readouterr().out


def test_witness_violation_exits_1(tmp_path, capsys, monkeypatch):
    vl_path = tmp_path / "vl.json"
    vl_path.write_text(json.dumps(VL_GEOMETRIC))
    monkeypatch.setattr(cli.vlmod, "witness_violations", lambda pair, horizon: [5])
    assert main(["witness", str(vl_path), "--k", "2", "--n", "2", "--M", "3"]) == 1
    out = capsys.readouterr().out
    assert "violations=[5]" in out and out.endswith("RESULT=fail\n")


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
