"""Command-line behavior: outputs, exit codes, parameter echoes."""

import hashlib
import inspect
import io
import json
import math
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from copy import deepcopy
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stackvol import cli, jsonio
from stackvol.catalog import CATALOG
from stackvol.errors import SchemaError
from stackvol.finite import (
    MAX_RANDOM_ARROWS,
    FiniteGroupoid,
    InvalidGroupoidError,
    WeightData,
    block_groupoid,
    block_union,
    finite_sets_cardinality,
    random_groupoid,
    random_invariant_weights,
    unit_weights,
    validate,
)
from stackvol.groups import FiniteGroup
from stackvol.morita import (
    random_morita_triple,
    random_morita_weights,
    validate_bibundle,
)
from test_finite import random_block_specs
from test_morita import block_bibundle, identity_bibundle, random_triple_parts

ONE_OBJECT_ORDER_TWO = {
    "objects": ["pt"],
    "arrows": [
        {"id": "e", "l": "pt", "r": "pt"},
        {"id": "s", "l": "pt", "r": "pt"},
    ],
    "identity": {"pt": "e"},
    "inverse": {"e": "e", "s": "s"},
    "compose": [
        ["e", "e", "e"],
        ["e", "s", "s"],
        ["s", "e", "s"],
        ["s", "s", "e"],
    ],
}


@pytest.fixture
def half_point(tmp_path):
    path = tmp_path / "half.json"
    path.write_text(json.dumps(ONE_OBJECT_ORDER_TWO))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_failure_stdout(argv, code, out, err, kind):
    """Nothing on stdout after a failure; with --json, one object naming the error."""
    if "--json" not in argv:
        assert out == ""
        return None
    assert out.count("\n") == 1
    obj = json.loads(out)
    assert {k: obj[k] for k in ("error", "exitCode")} == {"error": kind, "exitCode": code}
    assert err == f"error: {obj['message']}\n"
    return obj


class TestFiniteCommands:
    def test_cardinality_prints_rational(self, capsys, half_point):
        code, out, err = run(capsys, ["finite", "cardinality",
                                      "--groupoid", half_point])
        assert code == 0
        assert out.strip() == "1/2"
        assert err.startswith("params: ")
        assert "groupoid=" in err

    def test_cardinality_json(self, capsys, half_point):
        code, out, err = run(capsys, ["finite", "cardinality",
                                      "--groupoid", half_point, "--json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == "1/2"
        assert obj["params"]["groupoid"] == half_point
        assert err == ""

    def test_volume_both_methods(self, capsys, half_point, tmp_path):
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps({"a": {"pt": "2"}, "b": {"pt": "3/2"}}))
        code, out, _ = run(capsys, ["finite", "volume", "--groupoid", half_point,
                                    "--weights", str(wpath)])
        assert code == 0
        # mass 3/2 over a fiber of two arrows each weighing 2
        assert out.splitlines() == ["fiber 3/8", "orbit 3/8"]

    def test_volume_single_method_json(self, capsys, half_point, tmp_path):
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps({"a": {"pt": "2"}, "b": {"pt": "3/2"}}))
        code, out, _ = run(capsys, ["finite", "volume", "--groupoid", half_point,
                                    "--weights", str(wpath),
                                    "--method", "fiber", "--json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["fiber"] == "3/8"
        assert "orbit" not in obj

    def test_volume_orbit_method(self, capsys, half_point, tmp_path):
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps({"a": {"pt": "2"}, "b": {"pt": "3/2"}}))
        argv = ["finite", "volume", "--groupoid", half_point, "--weights", str(wpath),
                "--method", "orbit"]
        code, out, _ = run(capsys, argv)
        assert (code, out) == (0, "3/8\n")
        code, out, _ = run(capsys, argv + ["--json"])
        obj = json.loads(out)
        assert code == 0 and obj["orbit"] == "3/8" and "fiber" not in obj
        assert obj["params"]["method"] == "orbit"

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_volume_mismatch_of_both_methods_fails_as_validation(self, capsys, half_point,
                                                                 tmp_path, monkeypatch, fmt):
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps({"a": {"pt": "2"}, "b": {"pt": "3/2"}}))
        monkeypatch.setattr("stackvol.finite.orbit_volume", lambda g, w: Fraction(1, 7))
        argv = ["finite", "volume", "--groupoid", half_point, "--weights", str(wpath)] + fmt
        code, out, err = run(capsys, argv)
        assert code == 1 and err.count("error:") == 1
        assert "fiber 3/8 differs from orbit 1/7" in err
        assert_failure_stdout(argv, 1, out, err, "ValidationFailure")

    def test_measure_without_representatives_exits_one(self, capsys, half_point, tmp_path):
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps({"a": {"pt": "1"}, "b": {"pt": "1"}}))
        code, out, err = run(capsys, ["finite", "measure", "--groupoid", half_point,
                                      "--weights", str(wpath), "--orbits", ","])
        assert (code, out, err) == (1, "", "error: no orbit representatives given\n")

    def test_non_invariant_section_exits_one(self, capsys, tmp_path):
        g = block_groupoid(["u", "v"], FiniteGroup.cyclic(1))
        gpath = tmp_path / "pair.json"
        jsonio.dump_groupoid(g, gpath)
        # dumps rename the tuple arrow ids, relabeling objects o0, o1
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps(
            {"a": {"o0": "1", "o1": "1"}, "b": {"o0": "1", "o1": "2"}}))
        code, out, err = run(capsys, ["finite", "volume", "--groupoid", str(gpath),
                                      "--weights", str(wpath), "--method", "orbit"])
        assert code == 1
        assert "non-invariant section" in err
        code, out, err = run(capsys, ["finite", "volume", "--groupoid", str(gpath),
                                      "--weights", str(wpath), "--method", "orbit", "--json"])
        obj = assert_failure_stdout(["--json"], code, out, err, "NonInvariantSectionError")
        assert code == 1 and "violations" not in obj

    def test_measure_of_one_orbit(self, capsys, tmp_path):
        g = block_groupoid(["u", "v"], FiniteGroup.cyclic(2))
        gpath = tmp_path / "g.json"
        jsonio.dump_groupoid(g, gpath)
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps(
            {"a": {"o0": "1", "o1": "1"}, "b": {"o0": "4", "o1": "4"}}))
        code, out, _ = run(capsys, ["finite", "measure", "--groupoid", str(gpath),
                                    "--weights", str(wpath), "--orbits", "o0"])
        assert code == 0
        # a single two-point orbit with isotropy order 2 and section 4: 4/2
        assert out.strip() == "2"

    def test_a_repeated_orbit_counts_once(self, capsys, tmp_path):
        gpath, wpath = tmp_path / "g.json", tmp_path / "w.json"
        run(capsys, ["finite", "generate", "--seed", "1", "-o", str(gpath),
                     "--weights-out", str(wpath)])
        argv = ["finite", "measure", "--groupoid", str(gpath), "--weights", str(wpath)]
        for orbit_list in ("o0", "o0,o0"):
            code, out, _ = run(capsys, argv + ["--orbits", orbit_list])
            assert (code, out) == (0, "3/2\n")

    def test_generate_is_deterministic(self, capsys, tmp_path):
        out1 = tmp_path / "g1.json"
        out2 = tmp_path / "g2.json"
        for out in (out1, out2):
            code, _, _ = run(capsys, ["finite", "generate", "--seed", "5",
                                      "-o", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        g = jsonio.load_groupoid(out1)
        assert validate(g).ok

    def test_generate_with_weights_roundtrip(self, capsys, tmp_path):
        gpath = tmp_path / "g.json"
        wpath = tmp_path / "w.json"
        code, _, _ = run(capsys, ["finite", "generate", "--seed", "11",
                                  "-o", str(gpath), "--weights-out", str(wpath)])
        assert code == 0
        code, out, _ = run(capsys, ["finite", "volume", "--groupoid", str(gpath),
                                    "--weights", str(wpath)])
        assert code == 0
        fiber_line, orbit_line = out.splitlines()
        assert fiber_line.split()[1] == orbit_line.split()[1]

    def test_generate_stdout_json_payload(self, capsys):
        code, out, _ = run(capsys, ["finite", "generate", "--seed", "3", "--json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["params"]["seed"] == 3
        assert obj["objects"] >= 1
        assert obj["arrows"] >= 1


def morita_fixture(tmp_path):
    group = FiniteGroup.cyclic(2)
    g1 = block_groupoid(["u", "v"], group)
    g2 = block_groupoid(["w"], group)
    bib = block_bibundle(["u", "v"], ["w"], group)
    paths = {
        "left": tmp_path / "left.json",
        "right": tmp_path / "right.json",
        "bib": tmp_path / "bib.json",
        "w1": tmp_path / "w1.json",
        "w2": tmp_path / "w2.json",
    }
    jsonio.dump_groupoid(g1, paths["left"])
    jsonio.dump_groupoid(g2, paths["right"])
    jsonio.dump_bibundle(g1, g2, bib, paths["bib"])
    w1 = WeightData({x: Fraction(1) for x in g1.objects},
                    {x: Fraction(3) for x in g1.objects})
    w2 = WeightData({x: Fraction(2) for x in g2.objects},
                    {x: Fraction(6) for x in g2.objects})
    jsonio.dump_weights(w1, paths["w1"], rename=jsonio._renaming(g1)[0])
    jsonio.dump_weights(w2, paths["w2"], rename=jsonio._renaming(g2)[0])
    return paths


class TestMoritaCommands:
    def test_link_reports_counts(self, capsys, tmp_path):
        paths = morita_fixture(tmp_path)
        code, out, _ = run(capsys, ["morita", "link",
                                    "--left", str(paths["left"]),
                                    "--right", str(paths["right"]),
                                    "--bibundle", str(paths["bib"])])
        assert code == 0
        lines = dict(line.split() for line in out.splitlines())
        assert lines["objects"] == "3"
        # 8 + 2 + 2*4 bridge copies
        assert lines["arrows"] == "18"
        assert lines["bridge"] == "4"

    def test_link_writes_valid_groupoid(self, capsys, tmp_path):
        paths = morita_fixture(tmp_path)
        out_path = tmp_path / "link.json"
        code, _, _ = run(capsys, ["morita", "link",
                                  "--left", str(paths["left"]),
                                  "--right", str(paths["right"]),
                                  "--bibundle", str(paths["bib"]),
                                  "-o", str(out_path)])
        assert code == 0
        link = jsonio.load_groupoid(out_path)
        assert validate(link).ok
        assert link.arrow_count == 18

    @pytest.mark.parametrize("edit, message", [
        (lambda bib: bib["elements"].append("b0"), "duplicate bibundle elements"),
        (lambda bib: bib["leftAnchor"].pop("b3"), "anchors must cover exactly the elements"),
    ], ids=["duplicate-element", "anchor-misses-an-element"])
    def test_inconsistent_bibundle_tables_exit_three(self, capsys, tmp_path, edit, message):
        paths = morita_fixture(tmp_path)
        bib = json.loads(paths["bib"].read_text())
        edit(bib)
        paths["bib"].write_text(json.dumps(bib))
        argv = ["morita", "link", "--json", "--left", str(paths["left"]),
                "--right", str(paths["right"]), "--bibundle", str(paths["bib"])]
        code, out, err = run(capsys, argv)
        assert code == 3
        assert_failure_stdout(argv, code, out, err, "SchemaError")
        assert err == f"error: bibundle: inconsistent tables: {message}\n"

    def test_check_equal_volumes(self, capsys, tmp_path):
        paths = morita_fixture(tmp_path)
        code, out, _ = run(capsys, ["morita", "check",
                                    "--left", str(paths["left"]),
                                    "--right", str(paths["right"]),
                                    "--bibundle", str(paths["bib"]),
                                    "--left-weights", str(paths["w1"]),
                                    "--right-weights", str(paths["w2"])])
        assert code == 0
        # both sides carry section 3 over one orbit with isotropy order 2
        assert out.splitlines() == ["left 3/2", "right 3/2", "equal true"]

    def test_check_json(self, capsys, tmp_path):
        paths = morita_fixture(tmp_path)
        code, out, _ = run(capsys, ["morita", "check", "--json",
                                    "--left", str(paths["left"]),
                                    "--right", str(paths["right"]),
                                    "--bibundle", str(paths["bib"]),
                                    "--left-weights", str(paths["w1"]),
                                    "--right-weights", str(paths["w2"])])
        assert code == 0
        obj = json.loads(out)
        assert obj["equal"] is True
        assert obj["left"] == obj["right"] == "3/2"

    def test_check_mismatched_sections_exit_one(self, capsys, tmp_path):
        paths = morita_fixture(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"a": {"o0": "1"}, "b": {"o0": "5"}}))
        code, _, err = run(capsys, ["morita", "check",
                                    "--left", str(paths["left"]),
                                    "--right", str(paths["right"]),
                                    "--bibundle", str(paths["bib"]),
                                    "--left-weights", str(paths["w1"]),
                                    "--right-weights", str(bad)])
        assert code == 1
        assert "sections not corresponding" in err


def _mixed_id_triple():
    # string arrows and elements but an integer object: the groupoid dump
    # renames every arrow, so the bibundle dump must rename them alike
    g = FiniteGroupoid([1], {"e": (1, 1)}, {1: "e"}, {"e": "e"}, {("e", "e"): "e"})
    return g, g, identity_bibundle(g)


def _string_id_triple():
    g = jsonio.groupoid_from_dict(ONE_OBJECT_ORDER_TWO)
    return g, g, identity_bibundle(g)


# sha256 of ``jsonio.dump_bibundle`` output, recorded when bibundle actions
# could still be callables and the dump evaluated every action
BIBUNDLE_DIGESTS = {
    "seed-1": "207a0c697f494091b414a36b916f3a3c88e88693c583f7d2548abbcad083354d",
    "seed-2": "81de82ae68d40d16ca0bd899b757aa530467398cad84c550e30163717c0338f7",
    "seed-3": "3f288718a3f7688ff26f59f2fce2e350be28ef6c8e664f1ffe684089cf454c49",
    "seed-5": "ba1156d61819765b564ece67ae01209a632b29e4b1a8a6c598859cca480de457",
    "seed-11": "56862a5663ea3f094e7cb82fd844b74c6229187629abdf772305bd8a6a4a7a02",
    "seed-42": "e92c9db654da92c5d4ef4c7cff5ba069f3ad0f3e09922f5232789c31698324e1",
    "mixed-ids": "b2bf51c5dea6d1047185dbb2f4291a96c7f1e38a226c127c78afa7aafc3dc9b4",
    "string-ids": "db6eb6f1e45115d7c085709244589bb981c70a0b4dbc167d9dfa244a0c59e425",
}


@pytest.mark.parametrize("name", sorted(BIBUNDLE_DIGESTS))
def test_bibundle_dump_is_pinned(tmp_path, name):
    if name.startswith("seed-"):
        g1, g2, bib = random_morita_triple(int(name[len("seed-"):]))
    else:
        g1, g2, bib = {"mixed-ids": _mixed_id_triple, "string-ids": _string_id_triple}[name]()
    path = tmp_path / "bib.json"
    jsonio.dump_bibundle(g1, g2, bib, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BIBUNDLE_DIGESTS[name]


# sha256 of the ``morita link -o`` dump of ``random_morita_triple(seed)``,
# recorded when the link still stored its composition as a pair table
LINK_DIGESTS = {
    1: "628b38dc011d6750eb2af8fe8837e488c2d4310b365616b8c258fa198c1a0b6f",
    2: "5b5e9086968b769a202c7a3908380ada7e548ede8f83a949cd020509efa3b153",
    3: "7e2a3225bd4f84f4b89684120807e73d1f6925b40f7568241d4b0d9db55ec0cd",
    5: "53c74c7cea4450f4534123996244638a199ef781c0dc91fafce4e11bdebe112e",
    11: "1f715c0c3d84482f68908200383d6c38ea3c85d827c5cf3017d6ef99c17e6a76",
    42: "0ffddafa51483373e11c1c29d641a82b2e9e452928e2cee3b720a09e5eb16840",
}


@pytest.mark.parametrize("seed", sorted(LINK_DIGESTS))
def test_link_dump_is_pinned(tmp_path, capsys, seed):
    g1, g2, bib = random_morita_triple(seed)
    paths = {name: tmp_path / f"{name}.json" for name in ("left", "right", "bib", "link")}
    jsonio.dump_groupoid(g1, paths["left"])
    jsonio.dump_groupoid(g2, paths["right"])
    jsonio.dump_bibundle(g1, g2, bib, paths["bib"])
    code, _, _ = run(capsys, ["morita", "link", "--left", str(paths["left"]),
                              "--right", str(paths["right"]),
                              "--bibundle", str(paths["bib"]), "-o", str(paths["link"])])
    assert code == 0
    assert hashlib.sha256(paths["link"].read_bytes()).hexdigest() == LINK_DIGESTS[seed]


@pytest.mark.parametrize("make", [_mixed_id_triple, _string_id_triple,
                                  lambda: random_morita_triple(5)],
                         ids=["mixed-ids", "string-ids", "tuple-ids"])
def test_dumped_triple_loads_back_valid(tmp_path, make):
    g1, g2, bib = make()
    paths = [tmp_path / name for name in ("left.json", "right.json", "bib.json")]
    jsonio.dump_groupoid(g1, paths[0])
    jsonio.dump_groupoid(g2, paths[1])
    jsonio.dump_bibundle(g1, g2, bib, paths[2])
    for path in paths:
        assert path.read_text().count("\n") == 1
    h1, h2 = jsonio.load_groupoid(paths[0]), jsonio.load_groupoid(paths[1])
    hb = jsonio.load_bibundle(paths[2])
    report = validate_bibundle(h1, h2, hb)
    assert report.ok, report.summary()
    assert len(hb.elements) == len(bib.elements)


_PAIR_TABLE_EDITS = {
    "not-a-list": lambda t: {"e": "e"},
    "entry-not-a-list": lambda t: t[:1] + ["e"] + t[2:],
    "two-fields": lambda t: t[:1] + [t[1][:2]] + t[2:],
    "int-id": lambda t: t[:1] + [[t[1][0], 5, t[1][2]]] + t[2:],
    "duplicate-pair": lambda t: t + [t[1]],
}

# the messages as the entry-by-entry walk wrote them before any screen
_PAIR_TABLE_ERRORS = {
    ("compose", "not-a-list"): "groupoid.compose: must be a list",
    ("compose", "entry-not-a-list"): "groupoid.compose[1]: must be a [g, h, gh] triple",
    ("compose", "two-fields"): "groupoid.compose[1]: must be a [g, h, gh] triple",
    ("compose", "int-id"): "groupoid.compose[1]: expected a string id, got 5",
    ("compose", "duplicate-pair"): "groupoid.compose[4]: duplicate pair ('e', 's')",
    ("leftAction", "not-a-list"): "bibundle.leftAction: must be a list",
    ("leftAction", "entry-not-a-list"):
        "bibundle.leftAction[1]: must be a [first, second, result] triple",
    ("leftAction", "two-fields"):
        "bibundle.leftAction[1]: must be a [first, second, result] triple",
    ("leftAction", "int-id"): "bibundle.leftAction[1]: expected a string id, got 5",
    ("leftAction", "duplicate-pair"): "bibundle.leftAction[4]: duplicate action pair ('e', 's')",
    ("rightAction", "not-a-list"): "bibundle.rightAction: must be a list",
    ("rightAction", "entry-not-a-list"):
        "bibundle.rightAction[1]: must be a [first, second, result] triple",
    ("rightAction", "two-fields"):
        "bibundle.rightAction[1]: must be a [first, second, result] triple",
    ("rightAction", "int-id"): "bibundle.rightAction[1]: expected a string id, got 5",
    ("rightAction", "duplicate-pair"): "bibundle.rightAction[4]: duplicate action pair ('e', 's')",
}


def test_weight_keys_that_rename_to_non_strings_are_not_dumped():
    w = WeightData({"x": Fraction(1)}, {"x": Fraction(1)})
    with pytest.raises(SchemaError, match="weight keys must rename to strings for dumping"):
        jsonio.weights_to_dict(w, {"x": 0})


@pytest.mark.parametrize("field, edit", sorted(_PAIR_TABLE_ERRORS))
def test_pair_table_errors_name_the_entry(field, edit):
    if field == "compose":
        doc, load = json.loads(json.dumps(ONE_OBJECT_ORDER_TWO)), jsonio.groupoid_from_dict
    else:
        doc, load = jsonio.bibundle_to_dict(*_string_id_triple()), jsonio.bibundle_from_dict
    doc[field] = _PAIR_TABLE_EDITS[edit](doc[field])
    with pytest.raises(jsonio.SchemaError) as exc:
        load(doc)
    assert str(exc.value) == _PAIR_TABLE_ERRORS[(field, edit)]


# (edit, message) per field; the messages as the entry-by-entry walk wrote
# them before id lists, arrow lists and string maps were screened in bulk
_ID_FIELD_ERRORS = {
    ("objects", "int-id"): (lambda v: v + [7], "groupoid.objects: expected a string id, got 7"),
    ("objects", "not-a-list"): (lambda v: "pt", "groupoid.objects: must be a list"),
    ("arrows", "not-a-list"): (lambda v: {"e": "e"}, "groupoid.arrows: must be a list"),
    ("arrows", "entry-not-an-object"):
        (lambda v: v[:1] + [["s", "pt", "pt"]], "groupoid.arrows[1]: must be an object"),
    ("arrows", "missing-field"):
        (lambda v: v[:1] + [{"id": "s", "l": "pt"}], "groupoid.arrows[1]: missing field 'r'"),
    ("arrows", "int-id"): (lambda v: v[:1] + [{"id": "s", "l": "pt", "r": 5}],
                           "groupoid.arrows[1].r: expected a string id, got 5"),
    ("arrows", "duplicate-id"): (lambda v: v + [v[0]], "groupoid.arrows[2]: duplicate arrow id 'e'"),
    ("identity", "not-an-object"): (lambda v: ["e"], "groupoid.identity: must be an object"),
    ("identity", "int-value"):
        (lambda v: {**v, "pt": 3}, "groupoid.identity['pt']: expected a string id, got 3"),
    ("inverse", "int-value"):
        (lambda v: {**v, "s": None}, "groupoid.inverse['s']: expected a string id, got None"),
    ("elements", "int-id"): (lambda v: v + [9], "bibundle.elements: expected a string id, got 9"),
    ("leftAnchor", "int-value"):
        (lambda v: {**v, "e": 4}, "bibundle.leftAnchor['e']: expected a string id, got 4"),
    ("rightAnchor", "not-an-object"): (list, "bibundle.rightAnchor: must be an object"),
}


@pytest.mark.parametrize("field, edit", sorted(_ID_FIELD_ERRORS))
def test_id_field_errors_name_the_entry(field, edit):
    if field in ONE_OBJECT_ORDER_TWO:
        doc, load = json.loads(json.dumps(ONE_OBJECT_ORDER_TWO)), jsonio.groupoid_from_dict
    else:
        doc, load = jsonio.bibundle_to_dict(*_string_id_triple()), jsonio.bibundle_from_dict
    change, message = _ID_FIELD_ERRORS[(field, edit)]
    doc[field] = change(doc[field])
    with pytest.raises(jsonio.SchemaError) as exc:
        load(doc)
    assert str(exc.value) == message


class TestSmoothCommands:
    def test_disk_volume(self, capsys):
        code, out, err = run(capsys, ["smooth", "example", "plane-so2", "R=2"])
        assert code == 0
        value = float(out.split()[0])
        assert value == pytest.approx(2.0, abs=1e-6)
        assert "evaluations" in out
        assert "model=plane-so2" in err

    def test_disk_density_table(self, capsys):
        code, out, _ = run(capsys, ["smooth", "example", "plane-so2",
                                    "R=2", "ts=0.5,1,1.5,2"])
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert len(rows) == 4
        for t_str, d_str in rows:
            assert float(d_str) == pytest.approx(float(t_str), abs=1e-8)

    def test_reflection_density_table_json(self, capsys):
        code, out, _ = run(capsys, ["smooth", "example", "plane-o2",
                                    "ts=1,2", "--json"])
        assert code == 0
        table = json.loads(out)["table"]
        assert [row["t"] for row in table] == [1.0, 2.0]
        for row in table:
            assert row["density"] == pytest.approx(row["t"] / 2, abs=1e-8)

    def test_torus_volume(self, capsys):
        code, out, _ = run(capsys, ["smooth", "example", "torus-free"])
        assert code == 0
        assert float(out.split()[0]) == pytest.approx(2 * math.pi, abs=1e-6)

    def test_symplectic_rational(self, capsys):
        code, out, _ = run(capsys, ["smooth", "example", "symplectic-bk",
                                    "c=3/7", "k=2"])
        assert code == 0
        assert out.strip() == "3/14"

    def test_poisson_natural_measure(self, capsys):
        code, out, _ = run(capsys, ["smooth", "example", "su2-dual",
                                    "ts=1", "measure=natural"])
        assert code == 0
        t_str, d_str = out.split()
        assert float(d_str) == pytest.approx(4 * math.pi, abs=1e-6)

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_disk_volume_is_right_or_refused_at_every_magnitude(self, capsys, fmt):
        # R^2/2 is a normal float only for R from about 1e-154 to 1e154; past
        # that the integrand's integral leaves the floats, and the rule refuses
        for k in range(-170, 309):
            code, out, err = run(capsys, ["smooth", "example", "plane-so2", f"R=1e{k}", *fmt])
            if code == 0:
                value = json.loads(out)["value"] if fmt else float(out.split()[0])
                assert value == pytest.approx(10.0 ** k * 10.0 ** k / 2, rel=1e-6), k
            else:
                assert code == 2, k
                assert_failure_stdout(fmt, code, out, err, "NumericalFailure")
                assert len(err.splitlines()) == 1 and err.startswith("error: "), (k, err)
                assert "left the normal floats" in err, (k, err)

    def test_poisson_default_t(self, capsys):
        code, out, err = run(capsys, ["smooth", "example", "su2-dual"])
        assert code == 0
        assert out.split()[0] == "1"
        assert "ts=1" in err

    def test_adjoint_summary(self, capsys):
        code, out, _ = run(capsys, ["smooth", "example", "adjoint-su2", "--json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["period"] == pytest.approx(2 * math.pi, abs=1e-6)
        assert obj["rootValue"] == pytest.approx(4 * math.pi, abs=1e-6)
        assert obj["volumeNorm"] == pytest.approx(2 * math.pi ** 2, abs=1e-6)

    def test_adjoint_density_table_flags_wall(self, capsys):
        code, out, _ = run(capsys, ["smooth", "example", "adjoint-su2",
                                    "ts=0,0.5", "--json"])
        assert code == 0
        table = json.loads(out)["table"]
        assert table[0]["onWall"] is True
        assert table[0]["density"] == 0.0
        assert table[1]["onWall"] is False
        assert table[1]["density"] == pytest.approx((0.5 * 4 * math.pi) ** 2,
                                                    rel=1e-6)

    def test_unknown_model_exits_one(self, capsys):
        code, _, err = run(capsys, ["smooth", "example", "klein-bottle"])
        assert code == 1
        assert "error:" in err

    def test_unknown_parameter_exits_one(self, capsys):
        code, _, err = run(capsys, ["smooth", "example", "plane-so2", "bogus=1"])
        assert code == 1
        assert "error:" in err

    def test_bad_ts_exits_one(self, capsys):
        code, _, err = run(capsys, ["smooth", "example", "plane-so2", "ts=abc"])
        assert code == 1
        assert "bad ts list" in err

    def test_bad_measure_exits_one(self, capsys):
        code, _, err = run(capsys, ["smooth", "example", "su2-dual",
                                    "measure=imaginary"])
        assert code == 1
        assert "measure must be" in err

    def test_weyl_insufficient_samples_exits_two(self, capsys):
        code, _, err = run(capsys, ["smooth", "weyl-check", "--samples", "200"])
        assert code == 2
        assert "standard error" in err

    @pytest.mark.parametrize("argv, partial", [
        # the evaluation budget runs out one panel short of tol
        (["smooth", "example", "plane-so2", "R=2", "--tol", "1e-17"],
         {"value": 1.9999999999999998, "errorEstimate": pytest.approx(2.68e-17, rel=1e-2),
          "evaluations": 262125}),
        # a box too narrow to halve: no estimate at all, written as null
        (["smooth", "example", "plane-so2", "R=5e-324"],
         {"value": 0.0, "errorEstimate": None, "evaluations": 0}),
        (["smooth", "weyl-check", "--samples", "1000"],
         {"value": pytest.approx(3.0409, abs=1e-4),
          "errorEstimate": pytest.approx(0.4455, abs=1e-4), "evaluations": 1000}),
    ])
    def test_json_non_convergence_carries_its_partial_result(self, capsys, argv, partial):
        code, out, err = run(capsys, [*argv, "--json"])
        obj = assert_failure_stdout(["--json"], code, out, err, "NonConvergenceError")
        assert code == 2
        assert obj["partial"] == partial
        # strict JSON: no NaN or Infinity tokens
        json.loads(out, parse_constant=lambda token: pytest.fail(f"non-finite {token}"))
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_weyl_moderate_run(self, capsys):
        code, out, _ = run(capsys, ["smooth", "weyl-check",
                                    "--samples", "200000", "--seed", "7",
                                    "--tol", "0.05"])
        assert code == 0
        lines = dict(line.split(None, 1) for line in out.splitlines())
        assert lines["pass"] == "true"
        assert float(lines["lhs"]) == pytest.approx(float(lines["rhs"]),
                                                    rel=float(lines["relativeError"]) + 1e-12)


class TestSeriesCommand:
    def test_small_cutoff(self, capsys):
        code, out, _ = run(capsys, ["series", "finite-sets", "--cutoff", "3"])
        assert code == 0
        assert out.strip() == "8/3"

    def test_default_cutoff_near_e(self, capsys):
        code, out, _ = run(capsys, ["series", "finite-sets", "--json"])
        assert code == 0
        obj = json.loads(out)
        expect = sum(Fraction(1, math.factorial(n)) for n in range(14))
        assert obj["value"] == str(expect)
        assert obj["approx"] == pytest.approx(math.e, abs=1e-9)


    def test_unprintable_value_exits_one_naming_the_cutoff(self, capsys):
        # the exact value at 8,000 has about 27,000 digits, past str(int)'s limit
        code, out, err = run(capsys, ["series", "finite-sets", "--cutoff", "8000"])
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: --cutoff 8000")


    @pytest.mark.parametrize("cutoff", [1559, 1560, 50_000, 10 ** 30])
    def test_cutoffs_past_the_digit_limit_are_refused_at_once(self, capsys, cutoff):
        # 1559 is the last printable cutoff; from 1560 on str() of the value fails
        start = time.perf_counter()
        code, out, err = run(capsys, ["series", "finite-sets", "--cutoff", str(cutoff)])
        elapsed = time.perf_counter() - start
        if cutoff == 1559:
            assert code == 0 and out == str(finite_sets_cardinality(cutoff)) + "\n"
            return
        assert code == 1 and out == ""
        assert err == f"error: --cutoff {cutoff}: the value has too many digits to print\n"
        assert elapsed < 0.5


class TestErrorPaths:
    def test_malformed_json_exits_three(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["finite", "cardinality",
                                    "--groupoid", str(path)])
        assert code == 3
        assert "not valid JSON" in err

    @pytest.mark.parametrize("argv", [
        ["series", "finite-sets", "--cutoff", "-1"],
        ["smooth", "weyl-check", "--samples", "1"],
        ["smooth", "weyl-check", "--width", "0"],
        ["smooth", "example", "plane-so2", "R=2", "--tol", "0"],
        ["smooth", "example", "plane-so2", "R=-1"],
        ["smooth", "example", "plane-so2", "ts=5"],
        ["smooth", "example", "symplectic-bk", "k=0"],
        ["smooth", "example", "poisson-sphere-bundle", "ts=7"],
        ["smooth", "weyl-check", "--tol", "-1"],
        ["smooth", "weyl-check", "--tol", "nan"],
        ["smooth", "example", "plane-so2", "--tol", "nan"],
        ["smooth", "example", "plane-so2", "--tol", "inf"],
        ["smooth", "weyl-check", "--width", "nan", "--samples", "1000"],
        ["smooth", "example", "plane-so2", "measure=natural"],
        ["smooth", "example", "adjoint-su2", "measure=stack"],
        ["smooth", "example", "symplectic-bk", "ts=1"],
        ["smooth", "example", "plane-so2", "ts="],
        ["smooth", "example", "su2-dual", "ts=,"],
        ["smooth", "example", "symplectic-bk", "--tol", "-1"],
        ["smooth", "example", "plane-so2", "ts=1", "--tol", "-1"],
        ["smooth", "example", "poisson-sphere-bundle", "--tol", "inf"],
        ["smooth", "weyl-check", "--width", "1e-200"],
        ["smooth", "weyl-check", "--width", "1e308"],
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning would be a second stderr line
    def test_parameter_out_of_range_exits_one(self, capsys, argv):
        code, _, err = run(capsys, argv)
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["smooth", "example", "poisson-sphere-bundle", "c1=nan", "ts=1"],
        ["smooth", "example", "adjoint-su2", "ts=nan"],
        ["smooth", "example", "plane-so2", "R=inf"],
        ["smooth", "example", "plane-so2", "ts=1,-inf"],
    ], ids=["nan-parameter", "nan-t", "inf-parameter", "inf-t"])
    def test_non_finite_model_input_exits_one(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("argv", [
        ["smooth", "example", "adjoint-su2", "ts=1e200", "--json"],
        ["smooth", "example", "adjoint-su2", "ts=1,1e200"],
        ["smooth", "example", "poisson-sphere-bundle", "c1=1e200", "ts=1"],
        ["smooth", "example", "poisson-sphere-bundle", "c1=1e200", "ts=1", "--json"],
    ], ids=["adjoint-json", "adjoint-second-row", "poisson", "poisson-json"])
    def test_density_that_overflows_exits_two(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert_failure_stdout(argv, code, out, err, "NumericalFailure")
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_critical_point_between_grid_nodes_exits_one(self, capsys, fmt):
        # V'(t) = 2t - 3 vanishes at t = 1.5, between two nodes of the probe grid
        argv = ["smooth", "example", "poisson-sphere-bundle", "c1=-3", "c2=1", *fmt]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert_failure_stdout(fmt, code, out, err, "CriticalPointError")
        assert err == ("error: leaf area of poisson-sphere-bundle is critical between "
                       "t=1.49692 and t=1.57308, where V' changes sign\n")

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_slope_of_the_other_sign_before_the_first_node_exits_one(self, capsys, fmt):
        # V'(t) = 2t - 0.2 vanishes at t = 0.1, before the first probe node at 0.126,
        # so the grid sees V' > 0 only; at t = 0.07 the density would read -0.06
        argv = ["smooth", "example", "poisson-sphere-bundle", "c1=-0.2", "c2=1", "ts=0.07", *fmt]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert_failure_stdout(fmt, code, out, err, "CriticalPointError")
        assert err == ("error: leaf area of poisson-sphere-bundle is critical near t=0.07, "
                       "where V' has the opposite sign to V' on the probe grid\n")

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_leaf_area_that_overflows_exits_two(self, capsys, fmt):
        code, out, err = run(capsys, ["smooth", "example", "poisson-sphere-bundle",
                                      "c1=1e308", "c2=1e308", *fmt])
        assert code == 2
        assert_failure_stdout(fmt, code, out, err, "NumericalFailure")
        assert err == "error: leaf area of poisson-sphere-bundle overflows on its probe grid\n"

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_density_whose_square_overflows_names_it(self, capsys, fmt):
        code, out, err = run(capsys, ["smooth", "example", "poisson-sphere-bundle",
                                      "c1=1e300", "c2=1e300", "ts=4.9", *fmt])
        assert code == 2
        assert_failure_stdout(fmt, code, out, err, "NumericalFailure")
        assert err == ("error: coefficient V'(t)^2 overflows at t=4.9, "
                       "where V'(t) = 1.0800000000000002e+301\n")

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_density_that_underflows_exits_two(self, capsys, fmt):
        # V'(1) = 3e-200, whose square the "dv2" coefficient needs is below every float
        code, out, err = run(capsys, ["smooth", "example", "poisson-sphere-bundle",
                                      "c1=1e-200", "c2=1e-200", "ts=1", *fmt])
        assert code == 2
        assert_failure_stdout(fmt, code, out, err, "NumericalFailure")
        assert err == "error: coefficient V'(t)^2 underflows at t=1.0, where V'(t) = 3e-200\n"

    def test_small_density_with_a_normal_square_is_printed(self, capsys):
        code, out, _ = run(capsys, ["smooth", "example", "poisson-sphere-bundle",
                                    "c1=1e-150", "c2=1e-150", "ts=1"])
        assert code == 0
        assert out == "1 3e-150\n"

    @pytest.mark.parametrize("c", ["1e1000000", "1E-1000000", "2.5e+1_000_000", " 1e1000000 "])
    def test_fraction_exponent_past_the_digit_limit_is_refused_at_once(self, capsys, c):
        # Fraction would expand the exponent into a power of ten first
        start = time.perf_counter()
        code, out, err = run(capsys, ["smooth", "example", "symplectic-bk", f"c={c}"])
        elapsed = time.perf_counter() - start
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: bad value for 'c'")
        assert elapsed < 0.1

    def test_fraction_exponent_inside_the_digit_limit_is_kept(self, capsys):
        code, out, _ = run(capsys, ["smooth", "example", "symplectic-bk", "c=1e4000"])
        assert code == 0
        assert out == "1" + "0" * 4000 + "\n"

    @pytest.mark.parametrize("deep", ["groupoid", "weights"])
    def test_deeply_nested_json_exits_three(self, capsys, tmp_path, half_point, deep):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"a": {"pt": "1"}, "b": {"pt": "1"}}))
        files = {"groupoid": half_point, "weights": str(weights), deep: str(path)}
        code, _, err = run(capsys, ["finite", "volume", "--groupoid", files["groupoid"],
                                    "--weights", files["weights"]])
        assert code == 3
        assert err.startswith("error: ") and "nested too deeply" in err
        assert len(err.splitlines()) == 1

    def test_integer_past_the_digit_limit_exits_three(self, capsys, tmp_path, half_point):
        weights = tmp_path / "w.json"
        weights.write_text('{"a": {"pt": ' + "9" * 5000 + '}, "b": {"pt": "1"}}')
        code, _, err = run(capsys, ["finite", "volume", "--groupoid", half_point,
                                    "--weights", str(weights)])
        assert code == 3
        assert err.startswith("error: ") and "digits" in err
        assert len(err.splitlines()) == 1

    def test_undecodable_file_exits_three(self, capsys, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, ["finite", "cardinality",
                                    "--groupoid", str(path)])
        assert code == 3
        assert err.startswith("error: ")

    def test_missing_file_exits_three(self, capsys, tmp_path):
        code, _, err = run(capsys, ["finite", "cardinality",
                                    "--groupoid", str(tmp_path / "absent.json")])
        assert code == 3

    def test_schema_violation_exits_three(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"objects": ["pt"]}))
        code, _, err = run(capsys, ["finite", "cardinality",
                                    "--groupoid", str(path)])
        assert code == 3
        assert "missing field" in err
        code, out, err = run(capsys, ["finite", "cardinality", "--groupoid", str(path), "--json"])
        assert code == 3
        assert_failure_stdout(["--json"], code, out, err, "SchemaError")

    @pytest.mark.parametrize("field, value, message", [
        ("objects", ["pt", "pt"], "duplicate object ids"),
        ("arrows", [{"id": "e", "l": "pt", "r": "pt"}, {"id": "s", "l": "pt", "r": "qq"}],
         "arrow 's' references unknown objects ('pt', 'qq')"),
        ("identity", {"pt": "e", "qq": "e"}, "identity table must cover exactly the objects"),
        ("identity", {"pt": "x"}, "identity of 'pt' is not an arrow"),
        ("inverse", {"e": "e"}, "inverse table must cover exactly the arrows"),
        ("inverse", {"e": "x", "s": "s"}, "inverse of 'e' is not an arrow"),
    ], ids=["duplicate-object", "unknown-endpoint", "identity-coverage", "identity-not-arrow",
            "inverse-coverage", "inverse-not-arrow"])
    def test_inconsistent_tables_exit_three(self, capsys, tmp_path, field, value, message):
        path = tmp_path / "tables.json"
        path.write_text(json.dumps(dict(ONE_OBJECT_ORDER_TWO, **{field: value})))
        code, out, err = run(capsys, ["finite", "cardinality", "--groupoid", str(path)])
        assert code == 3
        assert out == ""
        assert err == f"error: groupoid: inconsistent tables: {message}\n"

    def test_axiom_violation_exits_one(self, capsys, tmp_path):
        broken = dict(ONE_OBJECT_ORDER_TWO)
        broken["compose"] = [["e", "e", "e"], ["e", "s", "s"],
                             ["s", "e", "s"], ["s", "s", "s"]]
        path = tmp_path / "axiom.json"
        path.write_text(json.dumps(broken))
        code, _, err = run(capsys, ["finite", "cardinality",
                                    "--groupoid", str(path)])
        assert code == 1
        assert "invalid groupoid" in err

    def test_axiom_violation_carries_its_report(self, capsys, tmp_path):
        broken = dict(ONE_OBJECT_ORDER_TWO)
        broken["compose"] = [["e", "e", "e"], ["e", "s", "s"],
                             ["s", "e", "s"], ["s", "s", "s"]]
        path = tmp_path / "axiom.json"
        path.write_text(json.dumps(broken))
        with pytest.raises(InvalidGroupoidError) as exc:
            cli._load_valid_groupoid(str(path))
        report = exc.value.report
        assert report.violations[0] == validate(jsonio.load_groupoid(path)).violations[0]
        code, out, err = run(capsys, ["finite", "cardinality", "--groupoid", str(path)])
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {exc.value}"]
        assert str(report.violations[0]) in err

    def test_json_failure_lists_the_first_five_violations(self, capsys, tmp_path):
        # one object, four arrows, every product "s": seven violations
        broken = {"objects": ["pt"], "arrows": [{"id": g, "l": "pt", "r": "pt"} for g in "estu"],
                  "identity": {"pt": "e"}, "inverse": {"e": "e", "s": "t", "t": "s", "u": "u"},
                  "compose": [[g, h, "s"] for g in "estu" for h in "estu"]}
        path = tmp_path / "axioms.json"
        path.write_text(json.dumps(broken))
        violations = validate(jsonio.load_groupoid(path)).violations
        assert len(violations) > 5
        code, out, err = run(capsys, ["finite", "cardinality", "--groupoid", str(path), "--json"])
        obj = assert_failure_stdout(["--json"], code, out, err, "InvalidGroupoidError")
        assert code == 1
        assert obj["violations"] == [{"axiom": v.axiom, "witness": repr(v.witness),
                                      "detail": v.detail} for v in violations[:5]]

    def test_float_weights_rejected(self, capsys, half_point, tmp_path):
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps({"a": {"pt": 1.5}, "b": {"pt": 1}}))
        code, _, err = run(capsys, ["finite", "volume", "--groupoid", half_point,
                                    "--weights", str(wpath)])
        assert code == 3
        assert "rational" in err

    def test_boolean_weights_rejected(self, capsys, tmp_path):
        gpath, wpath = tmp_path / "g.json", tmp_path / "w.json"
        run(capsys, ["finite", "generate", "--seed", "1", "-o", str(gpath),
                     "--weights-out", str(wpath)])
        weights = json.loads(wpath.read_text())
        weights["a"]["o0"] = True
        wpath.write_text(json.dumps(weights))
        argv = ["finite", "volume", "--groupoid", str(gpath), "--weights", str(wpath), "--json"]
        code, out, err = run(capsys, argv)
        obj = assert_failure_stdout(argv, code, out, err, "SchemaError")
        assert code == 3
        assert obj["message"] == "weights.a['o0']: booleans are not weights"

    @pytest.mark.parametrize("value", ["1e100000000", "1E-100000000"])
    def test_a_weight_with_a_huge_exponent_is_refused_at_once(self, capsys, tmp_path, value):
        # Fraction would expand the exponent into a power of ten of 1e8 digits
        gpath, wpath = tmp_path / "g.json", tmp_path / "w.json"
        run(capsys, ["finite", "generate", "--seed", "1", "-o", str(gpath),
                     "--weights-out", str(wpath)])
        weights = json.loads(wpath.read_text())
        weights["b"][min(weights["b"])] = value
        wpath.write_text(json.dumps(weights))
        paths = morita_fixture(tmp_path)
        right = json.loads(paths["w2"].read_text())
        right["a"][min(right["a"])] = value
        paths["w2"].write_text(json.dumps(right))
        for argv in (["finite", "volume", "--groupoid", str(gpath), "--weights", str(wpath)],
                     ["morita", "check", "--left", str(paths["left"]),
                      "--right", str(paths["right"]), "--bibundle", str(paths["bib"]),
                      "--left-weights", str(paths["w1"]), "--right-weights", str(paths["w2"])]):
            start = time.perf_counter()
            code, out, err = run(capsys, argv)
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (3, "")
            assert len(err.splitlines()) == 1
            assert err.startswith("error: ") and "exponent" in err


def test_cli_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, stackvol.cli; "
         "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _loaded_by(tmp_path, argv, modules):
    """Which of ``modules`` a ``stackvol`` process running ``argv`` has loaded at exit."""
    paths = {key: str(path) for key, path in morita_fixture(tmp_path).items()}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from stackvol import cli; code = cli.main(sys.argv[2:]); "
         "print(sorted(m for m in sys.argv[1].split(',') if m in sys.modules)); sys.exit(code)",
         ",".join(modules), *(arg.format(**paths) for arg in argv)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("argv, loads_numpy", [
    (["finite", "volume", "--groupoid", "{left}", "--weights", "{w1}"], False),
    (["morita", "check", "--left", "{left}", "--right", "{right}", "--bibundle", "{bib}",
      "--left-weights", "{w1}", "--right-weights", "{w2}"], False),
    (["series", "finite-sets"], False),
    (["smooth", "example", "plane-so2"], False),
    (["smooth", "example", "adjoint-su2"], True),
])
def test_only_su2_commands_load_numpy(tmp_path, argv, loads_numpy):
    assert _loaded_by(tmp_path, argv, ["numpy"]) == ("['numpy']" if loads_numpy else "[]")


@pytest.mark.parametrize("argv", [
    ["finite", "volume", "--groupoid", "{left}", "--weights", "{w1}"],
    ["series", "finite-sets"],
])
def test_finite_commands_load_no_morita_or_families(tmp_path, argv):
    # the symplectic and Poisson families live in the smooth model catalog
    assert _loaded_by(tmp_path, argv, ["stackvol.morita", "stackvol.catalog"]) == "[]"


def test_smooth_commands_load_no_finite_or_jsonio(tmp_path):
    argv = ["smooth", "example", "plane-so2"]
    assert _loaded_by(tmp_path, argv, ["stackvol.finite", "stackvol.jsonio"]) == "[]"


def test_morita_check_names_an_object_missing_from_the_left_weights(tmp_path):
    paths = morita_fixture(tmp_path)
    weights = json.loads(paths["w1"].read_text())
    del weights["a"]["o1"]
    paths["w1"].write_text(json.dumps(weights))
    proc = subprocess.run(
        [sys.executable, "-m", "stackvol.cli", "morita", "check",
         "--left", str(paths["left"]), "--right", str(paths["right"]),
         "--bibundle", str(paths["bib"]),
         "--left-weights", str(paths["w1"]), "--right-weights", str(paths["w2"])],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "'o1'" in errors[0], proc.stderr


# sha256 of the stdout of ``stackvol finite generate --seed s``, recorded when
# random groupoids were still built as a disjoint_union of block groupoids
GENERATE_DIGESTS = {
    1: "285a1fe63b47b60f7e7b0dade3762a0097d2d5912f612dbbe25f0ae99a38dede",
    2: "26e4eafa8db8e533dc15d430c267e082e0249d534236af180c79247561042039",
    3: "57a5221298baebbc5a7fc52d8319c6f82b16b19192d12b7fe98f1bf0a7b5c298",
    4: "abe7300274f532bdccdba8f62d47821d213f8691ba26e09bd7de8949a029021a",
    5: "087ab16989fe46a902dec2755d1fd07ca87a78e6851e9cfd69f3438bf935a47c",
    11: "245d6d11d45a7787edc3e8b1188862b51aacea5775291cde2f2477c9a4bce757",
    42: "07d4bfa006987e7be383edd097d60430dfc28bea0da4d5d0452a1d66c539fb8b",
}


@pytest.mark.parametrize("seed", sorted(GENERATE_DIGESTS))
def test_generate_output_is_pinned(capsys, seed):
    code, out, _ = run(capsys, ["finite", "generate", "--seed", str(seed)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GENERATE_DIGESTS[seed]


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stackvol.cli", "series", "finite-sets",
         "--cutoff", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "8/3"
    assert proc.stderr.startswith("params: ")


@pytest.mark.parametrize("argv", [
    ["smooth", "example", "plane-so2", "--tol", "x"],
    ["smooth", "example", "plane-so2", "--tol", "-inf"],
    ["no-such-command"],
    ["finite", "volume"],
])
def test_usage_errors_exit_one_with_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1, err
    assert "usage:" not in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["morita", "check", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_generate_refuses_an_oversized_groupoid_before_building_it():
    # one block of up to 100,000 points would hold up to 4e10 arrows
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "stackvol.cli", "finite", "generate", "--max-objects", "100000"],
        capture_output=True, text=True, timeout=30,
    )
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and f"over the cap of {MAX_RANDOM_ARROWS}" in errors[0], proc.stderr


def test_dump_past_the_pair_cap_is_refused_before_any_arrow_table_is_built():
    # one block under the arrow cap lists 193^3 * 4^2 composable pairs
    g = block_union([(range(193), FiniteGroup.cyclic(4))])
    assert g.arrow_count <= MAX_RANDOM_ARROWS
    with pytest.raises(SchemaError, match="compose table with 115024912 entries"):
        jsonio.groupoid_to_dict(g)
    assert g._arrows is None


@pytest.mark.parametrize("seed", [1, 5, 42])
def test_dump_cap_counts_exactly_the_pairs_a_dump_lists(monkeypatch, seed):
    pairs = len(jsonio.groupoid_to_dict(random_groupoid(seed))["compose"])
    monkeypatch.setattr(jsonio, "_COMPOSE_DUMP_CAP", pairs - 1)
    with pytest.raises(SchemaError, match=f"compose table with {pairs} entries"):
        jsonio.groupoid_to_dict(random_groupoid(seed))


def test_reproducible_generate_matches_library(tmp_path, capsys):
    code, out, _ = run(capsys, ["finite", "generate", "--seed", "21",
                                "--max-objects", "5", "--max-group-order", "3"])
    assert code == 0
    from_cli = json.loads(out)
    g = random_groupoid(21, max_objects=5, max_group_order=3)
    assert from_cli == jsonio.groupoid_to_dict(g)


_WRONG_TYPES = (1, 2.5, None, True, [], {}, "x", ["o0"], {"o0": "1"})


def _nodes(doc, path=()):
    """Every (path, value) of a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_ACTIONS = (("leftAction",), ("rightAction",))


def _mutate(draw, docs, kinds, targets=()):
    """Apply 1 to 3 mutations of the given kinds to the JSON documents ``docs``.

    ``targets`` are the element ids that a retargeted action result may take.
    """
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        name = draw(st.sampled_from(sorted(docs)))
        nodes = list(_nodes(docs[name]))
        if kind == "retype":
            path = draw(st.sampled_from([p for p, _ in nodes]))
            if path:
                _at(docs[name], path[:-1])[path[-1]] = deepcopy(draw(st.sampled_from(_WRONG_TYPES)))
            else:
                docs[name] = deepcopy(draw(st.sampled_from(_WRONG_TYPES)))
            continue
        if kind == "delete":
            paths = [p for p, _ in nodes if p]
        elif kind == "unknown id":
            paths = [p for p, _ in nodes if p[:1] in (("compose",), *_ACTIONS) and len(p) == 3]
        elif kind == "duplicate":
            paths = [p for p, v in nodes if isinstance(v, list) and v]
        elif kind == "retarget":
            paths = [p for p, _ in nodes if p[:1] in _ACTIONS and len(p) == 3 and p[2] == 2]
        else:
            paths = [p for p, _ in nodes if p[:1] in (("a",), ("b",)) and len(p) == 2]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        if kind == "delete":
            del _at(docs[name], path[:-1])[path[-1]]
        elif kind == "duplicate":
            entries = _at(docs[name], path)
            entries.append(draw(st.sampled_from(entries)))
        else:
            _at(docs[name], path[:-1])[path[-1]] = draw(st.sampled_from(
                {"unknown id": ["unknown"], "retarget": targets}.get(kind, ["1/0", "0"])))
    return docs


@st.composite
def _mutated_documents(draw):
    """A generated groupoid and matching weights, with 1 to 3 mutations."""
    g = block_union(random_block_specs(draw(st.integers(0, 10_000)), 3, 3, max_blocks=2))
    docs = {"groupoid": jsonio.groupoid_to_dict(g),
            "weights": jsonio.weights_to_dict(random_invariant_weights(g, 1),
                                              jsonio._renaming(g)[0])}
    return _mutate(draw, docs, ["retype", "delete", "unknown id", "duplicate", "weight"])


@st.composite
def _mutated_morita_documents(draw):
    """A generated Morita triple and corresponding weights, with 1 to 3 mutations."""
    specs1, specs2, bib = random_triple_parts(draw(st.integers(0, 10_000)), max_points=2,
                                              max_group_order=3)
    g1, g2 = block_union(specs1), block_union(specs2)
    w1, w2 = random_morita_weights(g1, g2, bib, 1)
    docs = {"left": jsonio.groupoid_to_dict(g1), "right": jsonio.groupoid_to_dict(g2),
            "bibundle": jsonio.bibundle_to_dict(g1, g2, bib),
            "left-weights": jsonio.weights_to_dict(w1, jsonio._renaming(g1)[0]),
            "right-weights": jsonio.weights_to_dict(w2, jsonio._renaming(g2)[0])}
    targets = tuple(docs["bibundle"]["elements"])
    return _mutate(draw, docs, ["retype", "delete", "unknown id", "duplicate", "retarget",
                                "weight"], targets)


def _write_documents(tmp, docs):
    files = {}
    for name, doc in docs.items():
        files[name] = str(Path(tmp) / f"{name}.json")
        Path(files[name]).write_text(json.dumps(doc))
    return files


def _refuse_constant(name):
    raise AssertionError(f"--json printed {name}, which is not JSON")


def _assert_clean_exits(argvs):
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        usage = False
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # a usage error
                code, usage = exc.code, True
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) <= 1
        if "--json" in argv and (out.getvalue() or code and not usage):
            obj = json.loads(out.getvalue(), parse_constant=_refuse_constant)
            if code and "error" in obj:  # a failure caught in cli.main
                assert obj["exitCode"] == code, (argv, obj)
                assert err.getvalue() == f"error: {obj['message']}\n", (argv, obj)
                assert len(obj.get("violations", ())) <= 5
            elif code:  # a check that ran and failed: morita check or weyl-check
                assert False in (obj.get("equal"), obj.get("passed")), (argv, obj)


@settings(max_examples=40, deadline=5000)
@given(_mutated_documents())
def test_mutated_finite_inputs_exit_cleanly(docs):
    with tempfile.TemporaryDirectory() as tmp:
        files = _write_documents(tmp, docs)
        _assert_clean_exits((
            ["finite", "cardinality", "--groupoid", files["groupoid"]],
            ["finite", "volume", "--groupoid", files["groupoid"],
             "--weights", files["weights"]],
            ["finite", "measure", "--groupoid", files["groupoid"],
             "--weights", files["weights"], "--orbits", "o0"]))


@settings(max_examples=40, deadline=5000)
@given(_mutated_morita_documents())
def test_mutated_morita_inputs_exit_cleanly(docs):
    with tempfile.TemporaryDirectory() as tmp:
        files = _write_documents(tmp, docs)
        triple = ["--left", files["left"], "--right", files["right"],
                  "--bibundle", files["bibundle"]]
        _assert_clean_exits((
            ["morita", "check", *triple, "--left-weights", files["left-weights"],
             "--right-weights", files["right-weights"]],
            ["morita", "link", *triple, "-o", str(Path(tmp) / "link.json")]))


_NUMBERS = ("nan", "-nan", "inf", "-inf", "0", "-0", "-1", "-2.5", "0.5", "1", "3", "1e-200",
            "1e200", "-1e200", "1e308", "-1e308")
_number = st.sampled_from(_NUMBERS) | st.floats().map(repr)
_MALFORMED = ("", "=", "=1", "R", "R==1", "R=1=2", "ts=", "ts=,", "ts=1,,x", "mode=",
              "mode=bogus", "measure=", "measure=natural", "k=1.5", "c=1/0", "no-such-key=1")


@st.composite
def _smooth_and_series_argv(draw):
    """argv of ``smooth example``, ``smooth weyl-check`` or ``series finite-sets``."""
    command = draw(st.sampled_from(["example", "weyl-check", "finite-sets"]))
    if command == "example":
        name = draw(st.sampled_from(sorted(CATALOG) + ["no-such-model"]))
        # mostly the model's own parameters, so that most draws reach the engines
        keys = tuple(inspect.signature(CATALOG[name]).parameters) if name in CATALOG else ()
        item = st.lists(_number, min_size=1, max_size=2).map(lambda t: "ts=" + ",".join(t))
        if keys:
            item |= st.builds("{}={}".format, st.sampled_from(keys), _number)
        argv = ["smooth", "example", name, *draw(st.lists(item, max_size=3))]
        if draw(st.integers(0, 3)) == 0:
            argv.append(draw(st.sampled_from(_MALFORMED)))
        flags = {"--tol": _number}
    elif command == "weyl-check":
        argv = ["smooth", "weyl-check", f"--samples={draw(st.integers(-2, 20_000))}"]
        flags = {"--seed": st.integers(-2, 2 ** 70).map(str) | _number,
                 "--tol": _number, "--width": _number}
    else:
        argv = ["series", "finite-sets"]
        flags = {"--cutoff": st.integers(-3, 3_500).map(str) | st.sampled_from(
            ("1000000", str(10 ** 30), "1e3", "x"))}
    for flag, value in flags.items():
        if draw(st.integers(0, 3)) == 0:
            argv.append(f"{flag}={draw(value)}")
    return argv + draw(st.sampled_from([[], ["--json"]]))


@settings(max_examples=150, deadline=5000)
@given(_smooth_and_series_argv())
def test_smooth_and_series_commands_exit_cleanly(argv):
    _assert_clean_exits([argv])
