"""CLI behavior: output strings, exit codes, file handling."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import pvcalc

from pvcalc.birational import (at_point, blow_down, blow_up, free,
                               inverse_center, on_curve)
from pvcalc.cli import main, parse_center
from pvcalc.errors import InputError
from pvcalc.models import candidate_centers, plane_conic
from pvcalc.motring import legend, render
from pvcalc.pvint import e_invariant
from pvcalc.surface import Config, Curve, plane, ruled, save_config
from pvcalc.zeta import dump_datum, save_datum, triangle_datum, \
    SurfaceResolutionDatum, ResolutionComponent

from oracles import chain_config, full_delta

F = Fraction


@pytest.fixture
def conic_file(tmp_path):
    path = tmp_path / "conic.json"
    save_config(plane_conic(), path)
    return str(path)


def pattern_config():
    """Two alpha 0 sections, fibres with exponents 1/2, -1/2, 1, 1."""
    alphas = [F(1, 2), F(-1, 2), 1, 1]
    curves = [Curve("C1", 0, 0, 0), Curve("C2", 0, 0, 0)]
    curves += [Curve(f"F{k}", 0, 0, a) for k, a in enumerate(alphas, 1)]
    pts = []
    for k in range(1, 5):
        pts += [(f"F{k}", "C1"), (f"F{k}", "C2")]
    return Config(2, ruled(0), curves, pts)


@pytest.fixture
def pattern_file(tmp_path):
    path = tmp_path / "pattern.json"
    save_config(pattern_config(), path)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    cfg = Config(2, plane(),
                 [Curve("L1", 0, 1, F(1, 2)), Curve("L2", 0, 1, F(1, 2)),
                  Curve("L3", 0, 1, F(1, 2))],
                 [("L1", "L2"), ("L1", "L3"), ("L2", "L3")])
    path = tmp_path / "bad.json"
    save_config(cfg, path)
    return str(path)


# ---- center syntax -----------------------------------------------------


def test_parse_center():
    assert parse_center("free") == free()
    assert parse_center("curve:C1") == on_curve("C1")
    assert parse_center("point:A/B") == at_point("A", "B")
    assert parse_center("point:B/A#3") == at_point("A", "B", 3)
    for bad in ("free:x", "curve:", "point:A", "point:A/B#x",
                "orbit:A", "point:/B", "point:A/A", "point:A/B#-1",
                "point:A/B#+3", "point:A/B# 3", "point:A/B#1_0"):
        with pytest.raises(InputError):
            parse_center(bad)


# ---- validate ----------------------------------------------------------


def test_validate_ok(conic_file, capsys):
    assert main(["validate", conic_file]) == 0
    out = capsys.readouterr().out
    assert "info chi: euler characteristic of the open complement: 1" in out
    assert "divisor is connected" in out


def test_validate_failure(bad_file, capsys):
    assert main(["validate", bad_file]) == 1
    out = capsys.readouterr().out
    assert "error adjunction: adjunction defect 3/2 on L1" in out


# ---- compute -----------------------------------------------------------


def test_compute_motivic(conic_file, capsys):
    assert main(["compute", conic_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "-(w^3 + w^2 + w)  [w = L^(1/2)]"
    assert out[1] == "pv = -(w^2 + w + 1) / w^3"


def test_compute_motivic_with_log_pole(pattern_file, capsys):
    assert main(["compute", pattern_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["0  [w = L^(1/2)]"]          # no pv line with alpha = 0


def test_compute_hodge(conic_file, capsys):
    assert main(["compute", conic_file, "--realization", "hodge"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "-((u*v)^(3/2) + u*v + (u*v)^(1/2))"
    assert out[1].startswith("pv = ")


def test_compute_euler(conic_file, capsys):
    assert main(["compute", conic_file, "--realization", "euler"]) == 0
    assert capsys.readouterr().out.strip() == "-3"


def test_compute_euler_positive_genus(tmp_path, capsys):
    # a plane cubic (genus 1, alpha 1/2) and a line through 3 of its points
    cfg = Config(2, plane(), [Curve("C", 1, 9, F(1, 2)),
                              Curve("L", 0, 1, F(-1, 2))],
                 [("C", "L", k) for k in range(3)])
    path = tmp_path / "cubic.json"
    save_config(cfg, path)
    assert main(["compute", str(path), "--realization", "euler"]) == 0
    assert capsys.readouterr().out == "-12\n"


def test_compute_padic(conic_file, capsys):
    assert main(["compute", conic_file, "--realization", "padic",
                 "--q", "9"]) == 0
    assert capsys.readouterr().out.strip() == "-39"
    assert main(["compute", conic_file, "--realization", "padic",
                 "--q", "3"]) == 0
    assert capsys.readouterr().out.strip() == "[-3, -4]  (mod x^2 - 3)"


def test_compute_padic_huge_q(conic_file, capsys):
    # q = 10^400 is far beyond float range; it is (10^200)^2, so w -> 10^200
    m = 10 ** 200
    assert main(["compute", conic_file, "--realization", "padic",
                 "--q", str(m ** 2)]) == 0
    assert capsys.readouterr().out.strip() == str(-(m ** 3 + m ** 2 + m))


def test_compute_flag_combinations(conic_file, capsys):
    assert main(["compute", conic_file, "--realization", "padic"]) == 2
    assert "required" in capsys.readouterr().err
    assert main(["compute", conic_file, "--q", "3"]) == 2
    assert "padic" in capsys.readouterr().err
    for q in ("1", "0", "-5"):
        assert main(["compute", conic_file, "--realization", "padic",
                     "--q", q]) == 2
        assert "--q must be an integer >= 2" in capsys.readouterr().err


def test_compute_validation_failure(bad_file, capsys):
    assert main(["compute", bad_file]) == 1
    assert "adjunction" in capsys.readouterr().err


# ---- blowup / blowdown ---------------------------------------------------


def test_blowup_plain(conic_file, capsys):
    assert main(["blowup", conic_file, "--center", "curve:B"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "delta = 0  [w = L^(1/2)]"
    assert "warning" not in out
    cfg = json.loads(out.split("\n", 1)[1])
    assert {c["id"] for c in cfg["curves"]} == {"B", "E1"}


def test_blowup_exceptional(pattern_file, tmp_path, capsys):
    out_path = str(tmp_path / "up.json")
    assert main(["blowup", pattern_file, "--center", "curve:C1",
                 "--out", out_path]) == 0
    out = capsys.readouterr().out
    assert "delta = -(w^3 + w^2 + w)  [w = L^(1/2)]" in out
    assert "warning: exceptional situation" in out
    assert f"wrote {out_path}" in out
    saved = json.loads(open(out_path).read())
    assert any(c["id"] == "E1" for c in saved["curves"])


def test_blowup_bad_center(conic_file, capsys):
    assert main(["blowup", conic_file, "--center", "curve:missing"]) == 1
    assert main(["blowup", conic_file, "--center", "orbit:x"]) == 2
    # malformed specs are input errors, exit 2
    for spec in ("point:B/B", "point:A/B#-1", "point:A/B#+0"):
        assert main(["blowup", conic_file, "--center", spec]) == 2
    # a well-formed point that the configuration lacks is a domain failure
    assert main(["blowup", conic_file, "--center", "point:A/B"]) == 1


def test_blowup_huge_point_index(conic_file, capsys):
    # past int()'s digit limit: still a malformed spec, not a traceback
    spec = "point:A/B#" + "9" * 5000
    with pytest.raises(InputError, match="bad point index"):
        parse_center(spec)
    assert main(["blowup", conic_file, "--center", spec]) == 2
    assert "bad point index" in capsys.readouterr().err


def test_blowdown_roundtrip(conic_file, tmp_path, capsys):
    up_path = str(tmp_path / "up.json")
    assert main(["blowup", conic_file, "--center", "free",
                 "--out", up_path]) == 0
    capsys.readouterr()
    down_path = str(tmp_path / "down.json")
    assert main(["blowdown", up_path, "--id", "E1",
                 "--out", down_path]) == 0
    out = capsys.readouterr().out
    assert "delta = 0" in out
    assert json.loads(open(down_path).read()) == \
        json.loads(open(conic_file).read())


def test_blowdown_exceptional_warning(pattern_file, tmp_path, capsys):
    up_path = str(tmp_path / "up.json")
    main(["blowup", pattern_file, "--center", "curve:C1", "--out", up_path])
    capsys.readouterr()
    assert main(["blowdown", up_path, "--id", "E1"]) == 0
    out = capsys.readouterr().out
    assert "delta = w^3 + w^2 + w  [w = L^(1/2)]" in out
    assert "warning: exceptional situation" in out


def test_blowdown_bad_curve(conic_file, capsys):
    assert main(["blowdown", conic_file, "--id", "B"]) == 1
    assert "error" in capsys.readouterr().err


def test_blowup_and_blowdown_validate_their_result(tmp_path, capsys,
                                                   monkeypatch):
    # the delta is local, but both commands still refuse a result that
    # fails validation, as summing its invariant did
    up = blow_up(plane_conic(), on_curve("B"))
    bad = Config(up.d, up.ambient_hodge,
                 up.curves + (Curve("X", 0, 5, 1),), up.points)
    path = tmp_path / "bad_up.json"
    save_config(bad, path)
    assert main(["blowdown", str(path), "--id", "E1"]) == 1
    assert "fails validation" in capsys.readouterr().err
    conic = tmp_path / "conic.json"
    save_config(plane_conic(), conic)
    monkeypatch.setattr("pvcalc.birational.blow_up", lambda cfg, center: bad)
    assert main(["blowup", str(conic), "--center", "curve:B"]) == 1
    assert "fails validation" in capsys.readouterr().err


def _center_spec(center):
    if center.kind == "point":
        return f"point:{center.a}/{center.b}#{center.index}"
    return f"curve:{center.a}" if center.kind == "curve" else "free"


@pytest.mark.parametrize("name, cfg, centers", [
    ("conic", plane_conic(), None),
    ("pattern", pattern_config(), [on_curve("C1"), on_curve("C2")]),
    ("chain40", chain_config(40), "sample"),
])
def test_blowup_and_blowdown_print_the_full_delta(name, cfg, centers,
                                                  tmp_path, capsys):
    # the commands sum only the strata a blow-up touches; the text they
    # print is that of the difference of the two whole invariants
    if centers is None:
        centers = candidate_centers(cfg) + [free()]
    elif centers == "sample":
        centers = candidate_centers(cfg)[::9] + [free()]
    path = str(tmp_path / f"{name}.json")
    save_config(cfg, path)
    tag = f"  [{legend(cfg.d)}]"
    for center in centers:
        up_path = str(tmp_path / "up.json")
        assert main(["blowup", path, "--center", _center_spec(center),
                     "--out", up_path]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line == f"delta = {render(full_delta(cfg, center))}{tag}"
        up = blow_up(cfg, center)
        new_id = (set(up.curve_map) - set(cfg.curve_map)).pop()
        assert main(["blowdown", up_path, "--id", new_id]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        undo = inverse_center(up, new_id)
        want = -full_delta(blow_down(up, new_id), undo)
        assert line == f"delta = {render(want)}{tag}"
        old_text = render(e_invariant(cfg) - e_invariant(up))
        assert line == f"delta = {old_text}{tag}"


# ---- residue ----------------------------------------------------------------


def test_residue_triangle(tmp_path, capsys):
    path = str(tmp_path / "tri.json")
    save_datum(triangle_datum(), path)
    assert main(["residue", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "alpha D1 = 1/2"
    assert out[1] == "alpha D2 = 1/2"
    assert out[2] == "alpha D3 = -1"
    assert out[3] == "R = 0  [w = L^(1/2)]"
    assert out[4] == "R(hodge) = 0"
    assert out[5] == "R(euler) = 0"
    assert any("cancellation as predicted" in l for l in out)


def test_residue_mismatch(tmp_path, capsys):
    datum = SurfaceResolutionDatum(
        nj=2, vj=1,
        surface_hodge=plane(), creation="point",
        components=(ResolutionComponent("B1", 0, 4, 3, 1),
                    ResolutionComponent("B2", 0, 4, 3, 1)))
    path = str(tmp_path / "two.json")
    save_datum(datum, path)
    assert main(["residue", path]) == 1
    out = capsys.readouterr().out
    assert "R = -(w^4 + 2*w^3 + 3*w^2 + 2*w + 1)  [w = L^(1/2)]" in out
    assert "expected vanishing by the point-creation rule" in out


# ---- demo ---------------------------------------------------------------------


def test_demo_conic_pipeline(capsys):
    assert main(["demo", "conic-pipeline"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "step 0: plane conic: E = -(w^3 + w^2 + w)"
    assert out[3] == "step 3: contract T: E = 0  (exceptional)"
    assert out[4] == "step 4: contract E2: E = 0"
    assert out[5] == "[w = L^(1/2)]"
    assert len(out) == 6                      # no file without --out


def test_demo_configs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("case-a", "case-b", "case-c"):
        assert main(["demo", name]) == 0
        out = capsys.readouterr().out
        assert "E = 0  [" in out
        assert f"wrote {name}.json" in out
        assert (tmp_path / f"{name}.json").exists()
        assert main(["validate", f"{name}.json"]) == 0
        capsys.readouterr()


def test_demo_triangle_residue(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["demo", "triangle-residue"]) == 0
    out = capsys.readouterr().out
    assert "R = 0" in out
    assert "wrote triangle-residue.json" in out
    assert main(["residue", "triangle-residue.json"]) == 0


def test_demo_out_flag(tmp_path, capsys):
    target = str(tmp_path / "c.json")
    assert main(["demo", "case-a", "--out", target]) == 0
    assert f"wrote {target}" in capsys.readouterr().out
    assert main(["validate", target]) == 0


def test_demo_unknown_name():
    with pytest.raises(SystemExit) as exc:
        main(["demo", "unknown"])
    assert exc.value.code == 2


# ---- gen ------------------------------------------------------------------------


def test_gen_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["gen", "--seed", "5", "--out", a]) == 0
    assert main(["gen", "--seed", "5", "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    capsys.readouterr()
    assert main(["validate", a]) == 0
    capsys.readouterr()
    assert main(["gen", "--seed", "7"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    assert "curves" in cfg


# ---- input handling ----------------------------------------------------------


def test_default_d_env(tmp_path, monkeypatch, capsys):
    from pvcalc.surface import dump_config
    obj = dump_config(plane_conic())
    del obj["d"]
    path = tmp_path / "nod.json"
    path.write_text(json.dumps(obj))
    assert main(["compute", str(path)]) == 2      # no context at all
    capsys.readouterr()
    monkeypatch.setenv("PVCALC_D", "2")
    assert main(["compute", str(path)]) == 0
    assert "w = L^(1/2)" in capsys.readouterr().out
    monkeypatch.setenv("PVCALC_D", "x")
    assert main(["compute", str(path)]) == 2
    assert "PVCALC_D" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["1_0", " 2 ", "+2", "-2", "2.0", "", "٢",
                                 "9" * 5000])
def test_default_d_env_needs_plain_digits(raw, tmp_path, monkeypatch, capsys):
    # int() reads the first four, and the Arabic-Indic digit two, as
    # numbers; a file without "d" must not be run with such a context
    from pvcalc.surface import dump_config
    obj = dump_config(plane_conic())
    del obj["d"]
    path = tmp_path / "nod.json"
    path.write_text(json.dumps(obj))
    monkeypatch.setenv("PVCALC_D", raw)
    assert main(["compute", str(path), "--realization", "euler"]) == 2
    assert "PVCALC_D must be an integer" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["compute", "/nonexistent/conf.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["compute", str(path)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


@pytest.mark.parametrize("mutate", [
    lambda o: o.__setitem__("ambient", [1, 2]),
    lambda o: o.__setitem__("d", True),
    lambda o: o["curves"][0].__setitem__("genus", False),
    lambda o: o["curves"][0].__setitem__("self_int", True),
    lambda o: o["points"][0].__setitem__(2, True),
    lambda o: o["curves"][0].__setitem__("alpha", "1e3"),
    lambda o: o["curves"][0].__setitem__("alpha", "0.5"),
    # Fraction would expand this exponent for a very long time
    lambda o: o["curves"][0].__setitem__("alpha", "1e100000000"),
    # the last (1, 1) coefficient used to win
    lambda o: o.__setitem__("ambient", {
        "kind": "custom", "terms": [[2, 2, 1], [1, 1, 1], [1, 1, 5],
                                    [0, 0, 1]]}),
], ids=["ambient-list", "d-bool", "genus-bool", "self_int-bool",
        "index-bool", "alpha-exponent", "alpha-decimal", "alpha-huge",
        "custom-repeated"])
def test_config_schema_exit_code(pattern_file, tmp_path, capsys, mutate):
    assert main(["compute", pattern_file]) == 0
    with open(pattern_file) as fh:
        obj = json.load(fh)
    mutate(obj)
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(obj))
    assert main(["compute", str(path)]) == 2
    assert "bad configuration data" in capsys.readouterr().err


@pytest.mark.parametrize("points", [
    ["CF", ["C", "G"]],
    [["C", "F"], {"C": 0, "G": 1}],
], ids=["string", "object"])
def test_points_must_be_lists(tmp_path, capsys, points):
    # C is a section of P^1 x P^1 and F, G are fibres; with one-letter
    # ids a string or a two-key object used to read as a point
    obj = {"d": 2, "ambient": {"kind": "ruled"},
           "curves": [{"id": "C", "self_int": 0, "alpha": "-1"},
                      {"id": "F", "self_int": 0, "alpha": "1/2"},
                      {"id": "G", "self_int": 0, "alpha": "-1/2"}],
           "points": [["C", "F"], ["C", "G"]]}
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(obj))
    assert main(["compute", str(path)]) == 0
    obj["points"] = points
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    for command in ("validate", "compute"):
        assert main([command, str(path)]) == 2
        assert "must be a list of curve ids" in capsys.readouterr().err


def test_custom_ambient_blowups(tmp_path, capsys):
    obj = {"d": 1, "ambient": {"kind": "custom", "blowups": 3,
                               "terms": [[2, 2, 1], [1, 1, 1], [0, 0, 1]]}}
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(obj))
    assert main(["compute", str(path)]) == 0
    assert capsys.readouterr().out.startswith("w^2 + 4*w + 1  [w = L]\n")


@pytest.mark.parametrize("mutate", [
    lambda o: o.__setitem__("surface", [1, 2]),
    lambda o: o.__setitem__("nj", True),
    lambda o: o["components"][0].__setitem__("N", True),
    lambda o: o["components"][0].__setitem__("v", True),
    lambda o: o["components"][0].__setitem__("genus", False),
    lambda o: o["components"][0].__setitem__("self", True),
    lambda o: o["components"][0].__setitem__("genus", -1),
], ids=["surface-list", "nj-bool", "N-bool", "v-bool", "genus-bool",
        "self-bool", "genus-negative"])
def test_datum_schema_exit_code(tmp_path, capsys, mutate):
    obj = dump_datum(triangle_datum())
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(obj))
    assert main(["residue", str(path)]) == 0
    mutate(obj)
    path.write_text(json.dumps(obj))
    assert main(["residue", str(path)]) == 2
    assert "bad resolution datum" in capsys.readouterr().err


def test_datum_not_an_object(tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text("[1, 2]")
    assert main(["residue", str(path)]) == 2
    assert "bad resolution datum" in capsys.readouterr().err


def test_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---- what each command imports ----------------------------------------

# a child records the modules it had before importing pvcalc, runs one
# command and prints the modules loaded since (its output goes nowhere)
_CHILD = """
import contextlib, io, json, sys
before = set(sys.modules)
argv = json.loads(sys.argv[1])
if argv is None:
    import pvcalc
    code = 0
else:
    import pvcalc.cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = pvcalc.cli.main(argv)
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


def _loaded(argv):
    src = os.path.dirname(os.path.dirname(pvcalc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code == 0
    return modules


_BASE = {"pvcalc", "pvcalc.cli", "pvcalc.errors"}
_RING = _BASE | {"pvcalc.motring", "pvcalc._kernel", "pvcalc.surface"}
_COMPUTE = _RING | {"pvcalc.pvint"}


def test_import_pvcalc_loads_no_submodule():
    modules = _loaded(None)
    assert [m for m in modules if m.startswith("pvcalc")] == ["pvcalc"]
    assert "dataclasses" not in modules


def test_each_command_imports_only_what_it_runs(conic_file, tmp_path):
    datum = str(tmp_path / "tri.json")
    save_datum(triangle_datum(), datum)
    up = str(tmp_path / "up.json")
    save_config(blow_up(plane_conic(), on_curve("B")), up)
    out = str(tmp_path / "out.json")
    compute = ["compute", conic_file, "--realization"]
    cases = [
        (compute + ["motivic"], _COMPUTE),
        (compute + ["hodge"], _COMPUTE),
        (compute + ["euler"], _COMPUTE),
        (compute + ["padic", "--q", "5"], _COMPUTE),
        (["validate", conic_file], _RING),
        (["residue", datum], _COMPUTE | {"pvcalc.zeta"}),
        (["blowup", conic_file, "--center", "curve:B", "--out", out],
         _COMPUTE | {"pvcalc.birational"}),
        (["blowdown", up, "--id", "E1", "--out", out],
         _COMPUTE | {"pvcalc.birational"}),
        (["gen", "--seed", "1"], None),
        (["demo", "conic-pipeline", "--out", out], None),
    ]
    for argv, want in cases:
        modules = _loaded(argv)
        assert "dataclasses" not in modules, argv
        if want is not None:
            assert {m for m in modules if m.startswith("pvcalc")} == want, argv
