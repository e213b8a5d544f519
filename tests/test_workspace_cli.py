import json
import subprocess
import sys
from pathlib import Path

import pytest

from arrowcat import GF, ZZ
from arrowcat.cli import main, nonsplit_workspace
from arrowcat.generators import Bounds, random_cell_on, random_square, random_two_object
from arrowcat.workspace import (
    MAX_ENTRY_BITS,
    MAX_ENTRY_DIGITS,
    MAX_GENERATORS,
    Workspace,
    WorkspaceError,
    parse_workspace,
    serialize_workspace,
)

GOLDEN = "golden/nonsplit.json"
SNAKE_KEYS = ("f", "eta", "g", "f2", "eta2", "g2", "a", "b", "c", "phi", "psi")


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "arrowcat", *args],
        capture_output=True,
        text=True,
    )
    return proc


class TestWorkspace:
    def test_minimal_document(self):
        ws = parse_workspace(
            '{"ring": {"field": 2}, "objects": {"x": {"top": {"dim": 1}, '
            '"bottom": {"dim": 1}, "boundary": [[1]]}}}'
        )
        assert ws.ring == GF(2)
        assert "x" in ws.objects

    def test_shipped_nonsplit(self):
        with open(GOLDEN) as fh:
            text = fh.read()
        ws = parse_workspace(text)
        assert ws.ring == ZZ
        u = ws.morphism("u")
        from arrowcat.classify2 import classify2

        fl = classify2(u)
        assert fl.fully_faithful and fl.fully_cofaithful and not fl.equivalence

    def test_golden_file_is_canonical(self):
        with open(GOLDEN) as fh:
            text = fh.read()
        assert serialize_workspace(parse_workspace(text)) == text

    def test_malformed_matrix_shape(self):
        with pytest.raises(WorkspaceError) as exc:
            parse_workspace(
                '{"ring": {"field": 2}, "objects": {"x": {"top": {"dim": 2}, '
                '"bottom": {"dim": 1}, "boundary": [[1]]}}}'
            )
        assert "shape" in str(exc.value)

    @pytest.mark.parametrize(
        "doc,message",
        [
            ('{"ring": {"field": 2}, "objects": {"a": 5}}', "object 'a' must be a JSON object"),
            ('{"ring": {"field": 2}, "objects": []}', "objects must be a JSON object"),
            ('{"ring": {"field": [2]}}', "ring: field must be an integer"),
            (
                '{"ring": {"field": 2}, "morphisms": {"u": {"source": ["x"]}}}',
                "morphism 'u': source must be a name",
            ),
            (
                '{"ring": {"field": 2}, "complexes": {"c": {"objects": "x"}}}',
                "complex 'c': objects must be a list of names",
            ),
            (
                '{"ring": {"field": 2}, "objects": {"x": {"top": {"dim": 1}, '
                '"bottom": {"dim": 1}, "boundary": [["1"]]}}}',
                "object 'x': matrix entry must be an integer",
            ),
            ('{"ring": {"field": 2}, "complexes": {"c": {}}}', "complex 'c': a complex needs at least one object"),
            (
                '{"ring": {"ring": "Z"}, "objects": {"x": {"top": {"free": -2}, '
                '"bottom": {"free": 0}, "boundary": []}}}',
                "object 'x': negative free rank",
            ),
        ],
        ids=["entry", "section", "ring", "name", "name-list", "matrix-entry", "empty-complex", "negative-free"],
    )
    def test_malformed_document(self, doc, message):
        with pytest.raises(WorkspaceError) as exc:
            parse_workspace(doc)
        assert str(exc.value) == message

    def test_location_named_once(self):
        with pytest.raises(WorkspaceError) as exc:
            parse_workspace(
                '{"ring": {"field": 2}, "objects": {"x": {"top": {"dim": 1}, '
                '"bottom": {"dim": 1}, "boundary": [[1]]}}, "morphisms": {"u": '
                '{"source": "x", "target": "x", "top": 1, "bottom": [[1]]}}}'
            )
        assert str(exc.value) == "morphism 'u': matrix must be a list of rows"
        with pytest.raises(WorkspaceError) as exc:
            parse_workspace('{"ring": {"field": 2}, "objects": {"x": {"top": {}}}}')
        assert str(exc.value) == "object 'x': field objects need a dim"

    @staticmethod
    def _one_object(ring, top):
        return json.dumps({"ring": ring, "objects": {"x": {
            "top": top, "bottom": {"dim": 0} if "dim" in top else {"free": 0}, "boundary": [],
        }}})

    @pytest.mark.parametrize(
        "ring,top",
        [
            ({"ring": "Z"}, {"free": 10**30, "torsion": []}),
            ({"field": 3}, {"dim": 10**30}),
            ({"field": 2}, {"dim": MAX_GENERATORS + 1}),
            ({"ring": "Z"}, {"free": MAX_GENERATORS - 1, "torsion": [2, 2]}),
        ],
        ids=["free-1e30", "dim-1e30", "dim-over-bound", "torsion-over-bound"],
    )
    def test_oversized_object_is_a_clean_error(self, ring, top, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(self._one_object(ring, top))
        proc = run_cli(["classify", "--in", str(path), "--morphism", "u"])
        assert proc.returncode == 1
        assert proc.stderr == f"error: object 'x': more than {MAX_GENERATORS} generators\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "ring,top",
        [
            ({"field": 2}, {"dim": MAX_GENERATORS}),
            ({"ring": "Z"}, {"free": MAX_GENERATORS - 2, "torsion": [2, 2]}),
        ],
        ids=["dim", "free-and-torsion"],
    )
    def test_object_at_the_bound_parses(self, ring, top):
        ws = parse_workspace(self._one_object(ring, top))
        assert ws.object("x").top.ngens == MAX_GENERATORS

    @staticmethod
    def _entry_workspace(entry, torsion=()):
        """A Z object with one free generator over one torsion order and one
        matrix entry: the boundary Z -> Z (+) Z/d is [[entry], [0]] or, with
        no torsion, [[entry]]."""
        bottom = {"free": 1, "torsion": list(torsion)}
        boundary = [[0] for _ in torsion] + [[entry]]
        return json.dumps({"ring": {"ring": "Z"}, "objects": {"x": {
            "top": {"free": 1}, "bottom": bottom, "boundary": boundary,
        }}})

    @pytest.mark.parametrize(
        "entry,torsion,message",
        [
            (2**MAX_ENTRY_BITS, (), "matrix entry [0][0]"),
            (-(2**MAX_ENTRY_BITS), (), "matrix entry [0][0]"),
            (1, (2**MAX_ENTRY_BITS,), "torsion order [0]"),
            (10**MAX_ENTRY_DIGITS - 1, (), "matrix entry [0][0]"),
        ],
        ids=["entry", "negative-entry", "torsion-order", "most-digits"],
    )
    def test_oversized_entry_is_a_clean_error(self, entry, torsion, message, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(self._entry_workspace(entry, torsion))
        proc = run_cli(["classify", "--in", str(path), "--morphism", "u"])
        assert proc.returncode == 1
        assert proc.stderr == f"error: object 'x': {message} has more than {MAX_ENTRY_BITS} bits\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    def test_overlong_literal_is_a_clean_error(self, sign, tmp_path):
        # 5,000 digits: past Python's own 4,300-digit limit on reading an int
        path = tmp_path / "long.json"
        path.write_text(self._entry_workspace(0, ()).replace("[[0]]", f"[[{sign}{'1' * 5000}]]"))
        proc = run_cli(["classify", "--in", str(path), "--morphism", "u"])
        assert proc.returncode == 1
        assert proc.stderr == f"error: integer literal of more than {MAX_ENTRY_DIGITS} digits\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "entry,torsion",
        [(2**MAX_ENTRY_BITS - 1, ()), (-(2**MAX_ENTRY_BITS - 1), ()), (0, (2**MAX_ENTRY_BITS - 1,))],
        ids=["entry", "negative-entry", "torsion-order"],
    )
    def test_entry_at_the_bound_parses(self, entry, torsion):
        x = parse_workspace(self._entry_workspace(entry, torsion)).object("x")
        assert x.bottom.torsion == torsion
        assert x.boundary.mat[-1] == (entry,)

    def test_golden_entries_are_under_the_bound(self):
        def entries(node):
            if isinstance(node, bool):
                return
            if isinstance(node, int):
                yield node
            elif isinstance(node, (list, dict)):
                for child in node.values() if isinstance(node, dict) else node:
                    yield from entries(child)

        paths = [GOLDEN, *Path("tests/golden_cli").rglob("*.json")]
        largest = max(abs(x).bit_length() for p in paths for x in entries(json.loads(Path(p).read_text())))
        assert largest <= MAX_ENTRY_BITS

    def test_parse_error_has_position(self):
        with pytest.raises(WorkspaceError) as exc:
            parse_workspace("{not json")
        assert "line" in str(exc.value)

    def test_roundtrip_random(self, rng, bounds):
        for ring in (GF(3), ZZ):
            ws = Workspace(ring)
            a = random_two_object(rng, ring, bounds)
            b = random_two_object(rng, ring, bounds)
            u = random_square(rng, a, b)
            cell = random_cell_on(rng, u, bounds)
            ws.objects["a"], ws.objects["b"] = a, b
            ws.morphisms["u"], ws.morphisms["v"] = u, cell.cto
            ws.cells["h"] = cell
            text = serialize_workspace(ws)
            back = parse_workspace(text)
            assert back.objects == ws.objects
            assert back.morphisms == ws.morphisms
            assert back.cells == ws.cells
            assert serialize_workspace(back) == text


class TestCli:
    def test_classify_counterexample(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["classify", "--in", GOLDEN, "--morphism", "u", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["command"] == "classify"
        assert rep["result"]["fullyFaithful"] is True
        assert rep["result"]["equivalence"] is False

    def test_equivdata_none(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["equivdata", "--in", GOLDEN, "--morphism", "u", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["result"] == {"equivalence": False, "witness": None}

    def test_kernel_matches_library(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["kernel", "--in", GOLDEN, "--morphism", "u", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        from arrowcat.limits2 import kernel2

        kd = kernel2(nonsplit_workspace().morphism("u"))
        assert rep["result"]["object"]["boundary"] == [list(r) for r in kd.obj.boundary.mat]

    def test_demo_nonsplit(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["demo-nonsplit", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        res = rep["result"]
        assert res["classification"]["equivalence"] is False
        assert res["classification"]["fullyFaithful"] is True
        assert res["equivalenceData"] is None
        assert res["splitWitness"] is None

    def test_selftest_subset(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["selftest", "--seed", "7", "--cases", "3", "--suite", "snf,interchange", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        names = [s["name"] for s in rep["result"]["suites"]]
        assert names == ["interchange", "snf"]

    def test_selftest_names_as_reported(self, tmp_path):
        golden = Path(__file__).parent / "golden_cli" / "selftest.json"
        names = [suite["name"] for suite in json.loads(golden.read_text())["result"]["suites"]]
        out = tmp_path / "r.json"
        main(["selftest", "--seed", "7", "--cases", "1", "--suite", ",".join(names), "--out", str(out)])
        assert out.read_text() == golden.read_text()

    @pytest.mark.parametrize(
        "option,message",
        [
            (["--ring", "fp:7"], "no suites over ring 'fp:7'; rings with suites: F2, F3, F5, Z"),
            (["--suite", "puppe-f2"], "unknown suites: ['puppe-f2']"),
            (["--max-dim", "-1"], "max dimension must lie in 0..6, got -1"),
        ],
        ids=["ring", "suite", "max-dim"],
    )
    def test_selftest_rejects_unknown(self, option, message, capsys):
        assert main(["selftest", "--cases", "1", *option]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_selftest_cases_must_be_positive(self, cases, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--cases", cases])
        assert exc.value.code == 2
        assert f"argument --cases: must be a positive integer, got '{cases}'" in capsys.readouterr().err

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            main(["selftest", "--seed", "3", "--cases", "2", "--suite", "snake", "--out", str(target)])
        assert a.read_text() == b.read_text()

    def test_usage_error_exit_2(self):
        proc = run_cli(["kernel"])  # missing required --morphism
        assert proc.returncode == 2

    def test_generator_options_only_on_selftest(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kernel", "--seed", "1", "--in", GOLDEN, "--morphism", "u"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_unknown_name_exit_1(self):
        proc = run_cli(["kernel", "--in", GOLDEN, "--morphism", "nope"])
        assert proc.returncode == 1
        assert "unknown morphism" in proc.stderr

    def test_internal_error_is_a_report(self, monkeypatch, capsys):
        def broken(*args):
            raise AssertionError("invariant broken")

        case = str(Path(__file__).parent / "golden_cli" / "f2-seed1" / "workspace.json")
        snake = [arg for key in SNAKE_KEYS for arg in (f"--{key}", f"p.{key}")]
        # the handlers import these at call time, so patch the defining modules
        runs = [
            ("arrowcat.classify2.classify2", ["classify", "--in", GOLDEN, "--morphism", "u"]),
            ("arrowcat.snake.plain_snake", ["snake", "--in", case, *snake]),
            ("arrowcat.anaconda.anaconda", ["anaconda", "--in", case, *snake]),
            ("arrowcat.les.les_homology", ["les", "--in", case, "--f", "f", "--g", "g", "--omega", "omega0,omega1,omega2"]),
        ]
        for target, argv in runs:
            monkeypatch.setattr(target, broken)
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert json.loads(out) == {
                "command": argv[0],
                "ok": False,
                "result": {"error": {"kind": "internal", "message": "invariant broken"}},
            }
            assert "Traceback" not in err

    def test_exactat_via_files(self, tmp_path, rng, bounds):
        # build a workspace exercising exactat end to end
        from arrowcat.core2 import compose2
        from arrowcat.limits2 import kernel2

        ring = GF(2)
        a = random_two_object(rng, ring, bounds)
        b = random_two_object(rng, ring, bounds)
        u = random_square(rng, a, b)
        kd = kernel2(u)
        ws = Workspace(ring)
        ws.objects["k"] = kd.obj
        ws.objects["a"] = a
        ws.objects["b"] = b
        ws.morphisms["kmor"] = kd.kmor
        ws.morphisms["u"] = u
        ws.morphisms["comp"] = compose2(u, kd.kmor)
        ws.morphisms["zero"] = kd.kappa.cto
        ws.cells["kappa"] = kd.kappa
        wfile = tmp_path / "w.json"
        wfile.write_text(serialize_workspace(ws))
        out = tmp_path / "r.json"
        rc = main([
            "exactat", "--in", str(wfile), "--a", "kmor", "--alpha", "kappa",
            "--b", "u", "--out", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["result"]["exact"] is True


class TestDiagramCommands:
    def _snake_workspace(self, rng, bounds, tmp_path, generalized=False):
        from arrowcat.generators import (
            random_generalized_snake_instance,
            random_snake_instance,
        )

        ring = GF(2)
        gen = random_generalized_snake_instance if generalized else random_snake_instance
        inst = gen(rng, ring, bounds)
        ws = Workspace(ring)
        f, eta, g = inst.row1
        f2, eta2, g2 = inst.row2
        a, b, c = inst.cols
        phi, psi = inst.cells

        def put(obj):
            for k, v in ws.objects.items():
                if v == obj:
                    return k
            k = f"o{len(ws.objects)}"
            ws.objects[k] = obj
            return k
        for m in (f, g, f2, g2, a, b, c):
            put(m.src), put(m.dst)
        for name, mor in [("f", f), ("g", g), ("f2", f2), ("g2", g2), ("a", a), ("b", b), ("c", c)]:
            ws.morphisms[name] = mor
        ws.morphisms["gf"] = __import__("arrowcat.core2", fromlist=["compose2"]).compose2(g, f)
        ws.morphisms["g2f2"] = __import__("arrowcat.core2", fromlist=["compose2"]).compose2(g2, f2)
        ws.morphisms["zero1"] = eta.cto
        ws.morphisms["zero2"] = eta2.cto
        ws.morphisms["bf"] = phi.cfrom
        ws.morphisms["f2a"] = phi.cto
        ws.morphisms["cg"] = psi.cfrom
        ws.morphisms["g2b"] = psi.cto
        ws.cells["eta"] = eta
        ws.cells["eta2"] = eta2
        ws.cells["phi"] = phi
        ws.cells["psi"] = psi
        path = tmp_path / "snake.json"
        path.write_text(serialize_workspace(ws))
        return path

    def test_snake_cli(self, rng, bounds, tmp_path):
        wfile = self._snake_workspace(rng, bounds, tmp_path)
        out = tmp_path / "r.json"
        rc = main([
            "snake", "--in", str(wfile), "--f", "f", "--eta", "eta", "--g", "g",
            "--f2", "f2", "--eta2", "eta2", "--g2", "g2",
            "--a", "a", "--b", "b", "--c", "c", "--phi", "phi", "--psi", "psi",
            "--out", str(out),
        ])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["ok"] and all(rep["result"]["exactAtInteriorPoints"])

    def test_generalized_snake_cli(self, rng, bounds, tmp_path):
        wfile = self._snake_workspace(rng, bounds, tmp_path, generalized=True)
        out = tmp_path / "r.json"
        rc = main([
            "snake", "--generalized", "--in", str(wfile), "--f", "f", "--eta", "eta",
            "--g", "g", "--f2", "f2", "--eta2", "eta2", "--g2", "g2",
            "--a", "a", "--b", "b", "--c", "c", "--phi", "phi", "--psi", "psi",
            "--out", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["ok"]

    def test_anaconda_cli(self, rng, bounds, tmp_path):
        wfile = self._snake_workspace(rng, bounds, tmp_path)
        out = tmp_path / "r.json"
        rc = main([
            "anaconda", "--in", str(wfile), "--f", "f", "--eta", "eta", "--g", "g",
            "--f2", "f2", "--eta2", "eta2", "--g2", "g2",
            "--a", "a", "--b", "b", "--c", "c", "--phi", "phi", "--psi", "psi",
            "--out", str(out),
        ])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["ok"] and all(rep["result"]["exactness"])

    def test_les_cli(self, rng, tmp_path):
        from arrowcat.generators import Bounds, random_complex_extension, to_chain_maps

        bounds = Bounds(max_dim=1)
        ce = random_complex_extension(rng, GF(2), 3, bounds)
        fmap, omegas, gmap = to_chain_maps(ce)
        ws = Workspace(GF(2))

        def put_obj(obj):
            for k, v in ws.objects.items():
                if v == obj:
                    return k
            k = f"o{len(ws.objects)}"
            ws.objects[k] = obj
            return k

        def put_mor(mor, hint):
            for k, v in ws.morphisms.items():
                if v == mor:
                    return k
            put_obj(mor.src), put_obj(mor.dst)
            k = f"{hint}{len(ws.morphisms)}"
            ws.morphisms[k] = mor
            return k

        def put_cell(cell, hint):
            put_mor(cell.cfrom, "m")
            put_mor(cell.cto, "m")
            k = f"{hint}{len(ws.cells)}"
            ws.cells[k] = cell
            return k

        from arrowcat.sequences import ComplexSequence

        def put_complex(cx, name):
            names = [put_obj(o) for o in cx.objects]
            dn = [put_mor(d, "d") for d in cx.diffs]
            cn = [put_cell(c, "h") for c in cx.cells]
            ws.complexes[name] = cx
            return name

        put_complex(fmap.src, "Ax")
        put_complex(fmap.dst, "Bx")
        put_complex(gmap.dst, "Cx")
        fsq = [put_mor(s, "fs") for s in fmap.squares]
        fcl = [put_cell(c, "fc") for c in fmap.cells]
        gsq = [put_mor(s, "gs") for s in gmap.squares]
        gcl = [put_cell(c, "gc") for c in gmap.cells]
        ws.chainmaps["fmap"] = fmap
        ws.chainmaps["gmap"] = gmap
        om_names = [put_cell(c, "w") for c in omegas]
        wfile = tmp_path / "les.json"
        wfile.write_text(serialize_workspace(ws))
        # round-trip sanity before running
        back = parse_workspace(wfile.read_text())
        assert "fmap" in back.chainmaps
        out = tmp_path / "r.json"
        rc = main([
            "les", "--in", str(wfile), "--f", "fmap", "--g", "gmap",
            "--omega", ",".join(om_names), "--out", str(out),
        ])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["ok"] and all(rep["result"]["exactness"])

    @pytest.mark.parametrize(
        "omega,message",
        [
            ("omega0,omega1", "need one cell g_n f_n => 0 per degree 0..2, got 2"),
            ("omega0,omega1,omega2,omega0", "need one cell g_n f_n => 0 per degree 0..2, got 4"),
            ("omega1,omega0,omega2", "the cell at degree 0 is not g_0 f_0 => 0"),
        ],
        ids=["missing", "extra", "permuted"],
    )
    def test_les_rejects_a_partial_extension(self, omega, message, capsys):
        case = str(Path(__file__).parent / "golden_cli" / "f3-seed1" / "workspace.json")
        assert main(["les", "--in", case, "--f", "f", "--g", "g", "--omega", omega]) == 1
        assert json.loads(capsys.readouterr().out)["result"] == {"error": message}

    def test_check3x3_cli(self, rng, bounds, tmp_path):
        from arrowcat.generators import random_3x3_instance

        inst = random_3x3_instance(rng, GF(2), bounds)
        ws = Workspace(GF(2))

        def put_obj(obj):
            for k, v in ws.objects.items():
                if v == obj:
                    return k
            k = f"o{len(ws.objects)}"
            ws.objects[k] = obj
            return k

        def put_mor(mor, name):
            put_obj(mor.src), put_obj(mor.dst)
            ws.morphisms[name] = mor
            return name

        def put_cell(cell, name):
            for side, hint in ((cell.cfrom, "m"), (cell.cto, "m")):
                found = None
                for k, v in ws.morphisms.items():
                    if v == side:
                        found = k
                        break
                if found is None:
                    put_mor(side, f"{hint}{len(ws.morphisms)}")
            ws.cells[name] = cell
            return name

        roles = {}
        for i in range(3):
            roles[f"f{i+1}"] = put_mor(inst.f[i], f"f{i+1}")
            roles[f"g{i+1}"] = put_mor(inst.g[i], f"g{i+1}")
        for i in range(2):
            roles[f"a{i+1}"] = put_mor(inst.a[i], f"a{i+1}")
            roles[f"b{i+1}"] = put_mor(inst.b[i], f"b{i+1}")
            roles[f"c{i+1}"] = put_mor(inst.c[i], f"c{i+1}")
        for i in range(3):
            roles[f"eta{i+1}"] = put_cell(inst.eta[i], f"eta{i+1}")
        roles["alpha"] = put_cell(inst.alpha, "alpha")
        roles["beta"] = put_cell(inst.beta, "beta")
        roles["gamma"] = put_cell(inst.gamma, "gamma")
        for i in range(2):
            roles[f"phi{i+1}"] = put_cell(inst.phi[i], f"phi{i+1}")
            roles[f"psi{i+1}"] = put_cell(inst.psi[i], f"psi{i+1}")
        wfile = tmp_path / "grid.json"
        wfile.write_text(serialize_workspace(ws))
        out = tmp_path / "r.json"
        role_arg = ",".join(f"{k}={v}" for k, v in sorted(roles.items()))
        rc = main(["check3x3", "--in", str(wfile), "--roles", role_arg, "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["ok"]

    def test_shortfive_cli(self, rng, bounds, tmp_path):
        wfile = self._snake_workspace(rng, bounds, tmp_path)
        out = tmp_path / "r.json"
        rc = main([
            "shortfive", "--in", str(wfile), "--f", "f", "--eta", "eta", "--g", "g",
            "--f2", "f2", "--eta2", "eta2", "--g2", "g2",
            "--a", "a", "--b", "b", "--c", "c", "--phi", "phi", "--psi", "psi",
            "--out", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["ok"]


class TestGeneratorGolden:
    def test_seed_zero_object_is_pinned(self):
        """Deterministic generation: the seed-0 instances are frozen."""
        import random as _random

        from arrowcat.generators import Bounds, random_square, random_two_object

        b = Bounds(max_dim=3)
        rng = _random.Random(0)
        x = random_two_object(rng, GF(2), b)
        assert x.top.orders == (2, 2, 2)
        assert x.bottom.orders == (2, 2, 2)
        assert x.boundary.mat == ((0, 1, 1), (1, 1, 1), (1, 0, 0))
        y = random_two_object(rng, GF(2), b)
        u = random_square(rng, x, y)
        assert u.top.mat == ((0, 0, 1), (0, 0, 0))
        assert u.bottom.mat == ((0, 0, 0),)

    def test_generated_instances_revalidate(self, rng, bounds):
        from arrowcat.generators import random_extension
        from arrowcat.sequences import is_extension

        for ring in (GF(2), ZZ):
            ext = random_extension(rng, ring, bounds)
            assert is_extension(ext.m, ext.cell, ext.e)
