"""Hostile input: family documents and CLI arguments either load or fail
with a CutstackError or ValueError, never anything else."""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cutstack import cli, engine
from cutstack.afs4 import AfsParams, ConstRule
from cutstack.errors import CutstackError
from cutstack.familyfile import family_from_json
from cutstack.tower import Family
from cutstack.vl import ConstR, GeometricR, VlFamily, VlSpec

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

TEMPLATES = [
    {"format_version": 1, "kind": "afs4", "label": "example",
     "rules": {"a": {"kind": "const", "value": 3}, "b": {"kind": "const", "value": 10},
               "c": {"kind": "const", "value": 4}, "d": {"kind": "const", "value": 20}}},
    {"format_version": 1, "kind": "afs4",
     "rules": {"a": {"kind": "h_scale", "num": 3, "den": 1, "plus": 0},
               "b": {"kind": "w_minimal"},
               "c": {"kind": "ratio_cycle", "ratios": ["1/2", "2/3"]},
               "d": {"kind": "prefix", "values": [5, 7, 9]}}},
    {"format_version": 1, "kind": "afs4", "label": "synthesized-three-way",
     "synthesis": {"mode": "three-way", "ratios": ["1/2", "1/3"], "ergodic_subset": ["1/2"],
                   "complement": ["2/5"], "complement_complete": False}},
    {"format_version": 1, "kind": "vl", "L": 2, "r": {"kind": "geometric", "c": 6, "beta": 2}},
    {"format_version": 1, "kind": "vl", "L": 1, "r": {"kind": "power", "c": "3", "alpha": "1/2"},
     "vector_order": [[1], [2]], "horizon": 4},
    {"format_version": 1, "kind": "vl", "L": 2, "r": {"kind": "prefix", "values": [4, 5, 6]}},
]

# Small values only: a family built from them materializes its first
# columns at once, so no case starts long work.
rationals = st.builds("{}/{}".format, st.integers(-2, 6), st.integers(-1, 4))
junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12),
    st.floats(-3, 12), st.sampled_from([math.inf, -math.inf, math.nan]),
    st.text(alphabet="abkx/-. ", max_size=6), rationals,
    st.lists(st.integers(-2, 12), max_size=3), st.lists(rationals, max_size=3),
    st.dictionaries(st.sampled_from(["kind", "value", "c", "x"]), st.integers(-2, 6),
                    max_size=2),
)


def _paths(doc, prefix=()):
    """Every key or index path inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@st.composite
def documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(TEMPLATES)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        node = doc
        for p in parents:
            node = node[p]
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(junk)
    return doc


def _with_c(rule):
    doc = copy.deepcopy(TEMPLATES[1])
    doc["rules"]["c"] = rule
    return doc


def _with_power(c, alpha):
    return dict(TEMPLATES[4], r={"kind": "power", "c": c, "alpha": alpha})


def _with(template, value, *path):
    doc = copy.deepcopy(TEMPLATES[template])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# Numbers and booleans of the wrong JSON type (int() read 3.7 as 3 and true as
# 1, bool() read "false" as True), with the field each error must name.
COERCED = [
    (_with(0, 3.7, "rules", "a", "value"), "rules.a"),
    (_with(0, True, "rules", "b", "value"), "rules.b"),
    (_with(1, 2.5, "rules", "a", "num"), "rules.a"),
    (_with(3, 2.9, "L"), "L"),
    (_with(4, 4.0, "horizon"), "horizon"),
    (_with(4, [[True], [2]], "vector_order"), "vector_order"),
    (_with(2, "false", "synthesis", "complement_complete"), "synthesis.complement_complete"),
    (_with(0, True, "format_version"), "format_version"),
    (_with(3, 1.0, "format_version"), "format_version"),
]

# Text that int() and Fraction() read after stripping spaces, plus signs and
# underscores, and labels that are not strings, with the field each error
# must name.
LOOSE = [
    (_with_power("1_0", " 1/2"), "r"),
    (_with_c({"kind": "ratio_cycle", "ratios": ["+1/2", "1_0/30"]}), "rules.c"),
    (dict(TEMPLATES[0], label=[1, 2]), "label"),
    (dict(TEMPLATES[4], label={"x": 1}), "label"),
]


@given(doc=documents())
@example(doc=COERCED[0][0])
@example(doc=COERCED[1][0])
@example(doc=COERCED[3][0])
@example(doc=COERCED[6][0])
@example(doc=COERCED[7][0])
@example(doc=COERCED[8][0])
@example(doc=_with_c({"kind": "ratio_cycle", "ratios": []}))
@example(doc=_with_c({"kind": "ratio_cycle", "ratios": ["0/1"]}))
@example(doc=dict(TEMPLATES[3], L=math.inf))
@example(doc=_with_power("0", "1/2"))
@example(doc=_with_power("-3", "1/2"))
@example(doc=LOOSE[0][0])
@example(doc=LOOSE[1][0])
@example(doc=LOOSE[2][0])
@example(doc=LOOSE[3][0])
@FUZZ
def test_family_documents_load_or_fail_cleanly(doc, deadline):
    with deadline(5):
        try:
            family = family_from_json(doc)
            assert isinstance(family, Family)
            family.height(family.first_stage + 2)
        except (CutstackError, ValueError):
            pass


@pytest.mark.parametrize("c, alpha", [("0", "1/2"), ("-3", "1/2"), ("3", "-1/2")])
def test_power_rule_needs_positive_c_and_nonnegative_alpha(c, alpha, tmp_path, capsys,
                                                           deadline):
    """c = 0 with an even alpha denominator used to loop forever in
    ``r_value``, and c = -3 was read as c = 3."""
    path = tmp_path / "power.json"
    path.write_text(json.dumps(_with_power(c, alpha)))
    with deadline(5):
        assert cli.main(["build", str(path), "--stage", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: field 'r': power rule needs ")


@pytest.mark.parametrize("doc, field", COERCED)
def test_family_numbers_and_booleans_keep_their_json_type(doc, field, tmp_path, capsys):
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["build", str(path), "--stage", "1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: field '{field}': ")


@pytest.mark.parametrize("doc, field", LOOSE)
def test_family_text_fields_are_read_strictly(doc, field, tmp_path, capsys):
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["build", str(path), "--stage", "1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: field '{field}': ")


@pytest.mark.parametrize("argv, message", [
    (["synthesize", "--R", "1_0/21", "--stages", "4", "--out", "{dir}/x.json"],
     "invalid literal for p/q: '1_0/21'"),
    (["synthesize", "--R", "1/2", "--S", " 1/3", "--stages", "4", "--out", "{dir}/x.json"],
     "invalid literal for p/q: ' 1/3'"),
    (["classify", "{dir}/f.json", "--ratio", " 1/2"],
     "--ratio ' 1/2': expected p/q with integers p and q"),
    (["classify", "{dir}/f.json", "--ratio", "+1/2"],
     "--ratio '+1/2': expected p/q with integers p and q"),
    (["classify", "{dir}/f.json", "--ratio", "1/2_0"],
     "--ratio '1/2_0': expected p/q with integers p and q"),
])
def test_ratio_arguments_are_read_strictly(argv, message, tmp_path, capsys):
    (tmp_path / "f.json").write_text(json.dumps(TEMPLATES[0]))
    assert cli.main([a.format(dir=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.json").exists()


@st.composite
def level_set_texts(draw):
    """stage:idx[,idx|lo-hi] and near misses, with stages of at most 8."""
    stage = draw(st.one_of(st.integers(-3, 8).map(str), st.text(alphabet="x- ", max_size=2)))
    index = st.one_of(st.integers(-3, 10**6).map(str),
                      st.builds("{}-{}".format, st.integers(-3, 50), st.integers(-3, 50)),
                      st.text(alphabet="0123456789-x ", max_size=4))
    chunks = draw(st.lists(index, min_size=1, max_size=3))
    sep = draw(st.sampled_from([":", ":", "", "::", ";"]))
    return stage + sep + ",".join(chunks)


FAMILIES = {
    "afs4": AfsParams(ConstRule(3), ConstRule(10), ConstRule(4), ConstRule(20)),
    "vl": VlFamily(VlSpec(1, ConstR(2))),
}
TEXT = st.text(alphabet="0123456789/.:,- x", max_size=12)


@given(data=st.data())
@FUZZ
def test_cli_parsers_parse_or_fail_cleanly(data, deadline):
    family = FAMILIES[data.draw(st.sampled_from(sorted(FAMILIES)))]
    level_set = data.draw(st.one_of(level_set_texts(), st.text(alphabet=":,-x ", max_size=8)))
    pair = data.draw(st.one_of(TEXT, st.builds("{}/{}".format, st.integers(-3, 10**9),
                                                st.integers(-3, 10**9))))
    lag_range = data.draw(st.one_of(TEXT, st.builds("{}..{}".format, st.integers(-10**9, 10**9),
                                                     st.integers(-10**9, 10**9))))
    ratios = data.draw(st.lists(st.one_of(TEXT, rationals), max_size=3))
    with deadline(5):
        for parse, args in ((cli._parse_level_set, (family, "--set", level_set)),
                            (cli._parse_pair, (pair,)),
                            (cli._parse_range, (lag_range,)),
                            (cli._parse_ratio_list, (ratios,))):
            try:
                parse(*args)
            except (CutstackError, ValueError):
                pass


REJECTED = [
    [],
    ["frobnicate"],
    ["build"],
    ["build", "f.json"],
    ["build", "f.json", "--stage", "{word}"],
    ["classify", "f.json"],
    ["classify", "f.json", "--ratio", "1/2", "--horizon", "{word}"],
    ["synthesize", "--stages", "3"],
    ["synthesize", "--R", "1/2", "--stages", "3", "--out", "x.json", "--mode", "{word}"],
    ["correlate", "f.json", "--set", "0:0", "--range", "0..3"],
    ["correlate", "f.json", "--set", "0:0", "--powers", "1", "--range", "0..3",
     "--max-rows", "{word}"],
    ["witness", "f.json", "--k", "2", "--n", "2"],
]


@given(template=st.sampled_from(REJECTED),
       word=st.text(alphabet="abqz.,", min_size=1, max_size=4), extra_flag=st.booleans())
@FUZZ
def test_rejected_argv_exits_2_every_time(template, word, extra_flag, deadline):
    """One parser serves every call, so each call must reject afresh."""
    argv = [a.format(word=word) for a in template]
    if extra_flag:  # no option starts with --zq, so no abbreviation matches
        argv.append("--zq" + word)
    with deadline(5), contextlib.redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("stage, code", [(engine.LIFT_STAGE_CAP, 0), (20_000, 2), (200_000, 2)])
def test_correlate_refuses_stages_past_the_lift_cap(stage, code, tmp_path, capsys, deadline):
    """Stage 20000 used to overflow Python's integer-to-string limit and
    stage 200000 to exhaust memory; both now stop before materializing."""
    path = tmp_path / "example.json"
    path.write_text(json.dumps(TEMPLATES[0]))
    with deadline(10):
        assert cli.main(["correlate", str(path), "--set", f"{stage}:0", "--powers", "1",
                         "--range", "0..1"]) == code
    err = capsys.readouterr().err
    if code:
        assert err == (f"error: stage {stage}: more than LIFT_STAGE_CAP="
                       f"{engine.LIFT_STAGE_CAP} stages above the first stage 0\n")


@pytest.mark.parametrize("argv", [
    ["correlate", "{path}", "--set", "22:0", "--powers", "1", "--range", "0..1"],
    ["witness", "{path}", "--k", "2", "--n", "2", "--M", "25"],
])
def test_vl_stages_past_the_cut_cap_are_refused(argv, tmp_path, capsys, deadline):
    """GeometricR(6, 2) cuts stage 19 into 6 * 2^19 copies, more than
    STATE_CAP; stage 22 (or M + 2 = 27) would hold millions of cuts, so it
    is refused before any stage is built."""
    path = tmp_path / "geo.json"
    path.write_text(json.dumps(TEMPLATES[3]))
    with deadline(5):
        assert cli.main([a.format(path=path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: stage 19: {6 * 2 ** 19} cuts exceed "
                          f"STATE_CAP={engine.STATE_CAP}, so stage ")


def test_vl_cut_cap_is_checked_before_building(deadline):
    family = VlFamily(VlSpec(2, GeometricR(6, 2)))
    with deadline(5):
        family.ensure(8)  # the benchmark's deepest GeometricR stage still builds
        with pytest.raises(CutstackError, match=r"^stage 19: .* so stage 40 cannot"):
            family.ensure(40)
    assert len(family._offsets) == 8  # stages 9 and above were never built
