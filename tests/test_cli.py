import io
import json
from pathlib import Path

import pytest

from conftest import count_calls
from orbitlab import cli, thetarep
from orbitlab.cli import dispatch

A_CUBIC = str(Path(__file__).resolve().parent / "data" / "cli_A_cubic.json")

F5_SPLIT = ["--f", "1,4,1,4", "--e", "2", "--base", "F:5"]
Q_BASE = ["--f", "1,0,-1,1", "--e", "1", "--base", "Q"]


def run(argv):
    out = io.StringIO()
    code = dispatch(argv, out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv)
    lines = [json.loads(ln) for ln in text.splitlines()]
    return code, lines


class TestInvariantsVerb:
    def test_matrix_roundtrip(self, tmp_path):
        path = tmp_path / "A.json"
        path.write_text(json.dumps([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
        code, lines = run_json(["invariants", "--A", str(path)])
        assert code == 0 and len(lines) == 1
        rec = lines[0]
        assert set(rec) == {"a", "e", "n", "regular_semisimple"}
        assert rec["n"] == 3

    def test_even_size_rejected(self, tmp_path):
        path = tmp_path / "A.json"
        path.write_text(json.dumps([[1, 0], [0, 1]]))
        code, lines = run_json(["invariants", "--A", str(path)])
        assert code == 2
        assert lines[0]["error"]["code"] == "UsageError"

    def test_missing_file(self):
        code, lines = run_json(["invariants", "--A", "/nonexistent.json"])
        assert code == 2


class TestOrbitVerb:
    def test_stabilizer_split(self):
        code, lines = run_json(["orbit", "stabilizer"] + F5_SPLIT)
        assert code == 0
        rec = lines[0]
        assert sorted(rec["factor_degrees"]) == [1, 1, 1]
        assert rec["order"] == 4 and rec["order_closure"] == 4

    def test_stabilizer_refuses_repeated_root(self):
        """f = (x - 1)^2 (x + 1) is refused as descent refuses it."""
        argv = ["--f", "1,-1,-1,1", "--e", "1", "--base", "Q"]
        for verb in (["orbit", "stabilizer"],
                     ["descent", "local", "--place", "7"]):
            code, lines = run_json(verb + argv)
            assert code == 3
            assert lines[0]["error"]["message"] == \
                "curve requires separable f"

    def test_construct_default_class(self):
        code, lines = run_json(["orbit", "construct"] + Q_BASE)
        assert code == 0
        rec = lines[0]
        assert rec["class"] == "1"
        assert len(rec["A"]) == 3
        assert rec["invariants"]["regular_semisimple"] is True

    def test_construct_neg_gamma(self):
        code, lines = run_json(["orbit", "construct", "--class=-gamma"]
                               + F5_SPLIT)
        assert code == 0
        rec = lines[0]
        assert rec["class"] == "-gamma"
        assert "recovered_class" in rec

    def test_construct_bad_class(self):
        code, lines = run_json(["orbit", "construct", "--class", "(9, 9)"]
                               + F5_SPLIT)
        assert code == 2
        assert "available" in lines[0]["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ["orbit", "construct"] + Q_BASE,
        ["orbit", "construct", "--class=-gamma"] + F5_SPLIT])
    def test_construct_reads_invariants_once(self, monkeypatch, argv):
        """The printed invariants and the recovered class share one
        invariants_of of the representative."""
        calls = count_calls(monkeypatch, thetarep, "invariants_of")
        code, _ = run(argv)
        assert code == 0
        assert len(calls) == 1

    def test_byte_identical(self):
        _, t1 = run(["orbit", "construct", "--class=-gamma"] + F5_SPLIT)
        _, t2 = run(["orbit", "construct", "--class=-gamma"] + F5_SPLIT)
        assert t1 == t2


class TestDescentVerb:
    def test_good_reduction_local(self):
        code, lines = run_json(["descent", "local", "--place", "7"] + Q_BASE)
        assert code == 0
        rec = lines[0]
        assert rec["place"] == "Qp:7" and rec["complete"] is True
        assert rec["classes"] == sorted(rec["classes"])

    def test_sel12_family_member(self):
        code, lines = run_json(["descent", "sel12", "--place", "5",
                                "--f", "1,-5,4,25", "--e", "5",
                                "--base", "Q"])
        assert code == 0
        assert lines[0]["complete"] is True

    def test_finite_field_local(self):
        code, lines = run_json(["descent", "local"] + F5_SPLIT)
        assert code == 0
        assert lines[0]["complete"] is True and lines[0]["target"] == 4

    @pytest.mark.parametrize("place", ["7", "R"])
    @pytest.mark.parametrize("action", ["local", "sel12"])
    def test_negative_budget_refused(self, action, place):
        """A negative --budget is a usage error at every place, not "no
        sampling"; --budget 0 stays allowed."""
        argv = ["descent", action, "--place", place] + Q_BASE
        code, lines = run_json(argv + ["--budget", "-5"])
        assert code == 2
        assert lines[0]["error"] == {"code": "UsageError", "exit": 2,
                                     "message": "budget must be nonnegative"}
        assert run_json(argv + ["--budget", "0"])[0] == 0

    @pytest.mark.parametrize("base", ["Qp:5", "F:5"])
    @pytest.mark.parametrize("action", ["local", "sel12"])
    def test_other_place_on_local_base_refused(self, action, base):
        """A local base is its own place: another --place is a usage
        error, not silently replaced by the base."""
        code, lines = run_json(["descent", action, "--f", "1,0,-1,1",
                                "--e", "1", "--base", base, "--place", "7"])
        assert code == 2
        assert lines[0]["error"] == {
            "code": "UsageError", "exit": 2,
            "message": f"--place 7 is not the place of the base {base}"}

    @pytest.mark.parametrize("base,place", [("Qp:7:30", "7"), ("R", "R")])
    def test_own_place_on_local_base(self, base, place, monkeypatch):
        """The base's own place answers at the base, at its precision."""
        calls = count_calls(monkeypatch, cli, "local_image")
        argv = ["descent", "local", "--f", "1,0,-1,1", "--e", "1",
                "--base", base]
        assert run(argv + ["--place", place]) == run(argv)
        assert [args[1] for args in calls] == [None, None]
        if base.startswith("Qp"):
            assert calls[0][0].ring.prec == 30


class TestLatticeVerb:
    def test_selfdual_refines(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps([[1, 0, 0], [0, 5, 0], [0, 0, -5]]))
        code, lines = run_json(["lattice", "selfdual", "--gram", str(path),
                                "--p", "5"])
        assert code == 0
        assert set(lines[0]) == {"p", "basis", "gram"}

    def test_selfdual_anisotropic_precondition(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps([[1, 0, 0], [0, 5, 0], [0, 0, 10]]))
        code, lines = run_json(["lattice", "selfdual", "--gram", str(path),
                                "--p", "5"])
        assert code == 3
        assert lines[0]["error"]["code"] == "PreconditionError"

    def test_cassels_h0(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps([[2, 1], [1, 2]]))
        code, lines = run_json(["lattice", "cassels", "--gram", str(path),
                                "--p", "2"])
        assert code == 0
        assert [b["type"] for b in lines[0]["blocks"]] == ["H0"]

    def test_asymmetric_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps([[1, 2], [3, 1]]))
        code, _ = run(["lattice", "cassels", "--gram", str(path),
                       "--p", "3"])
        assert code == 2


class TestCensusVerb:
    def test_sweep_counts(self):
        code, lines = run_json(["census", "sweep", "--p", "5"])
        assert code == 0
        rec = lines[0]
        assert rec["counts"]["total"] == 125
        assert rec["counts"]["smallonetwo"] == 2
        assert rec["exhaustive"] is True

    def test_sweep_byte_identical(self):
        _, t1 = run(["census", "sweep", "--p", "7"])
        _, t2 = run(["census", "sweep", "--p", "7"])
        assert t1 == t2

    def test_sweep_csv(self):
        code, text = run(["census", "sweep", "--p", "5", "--format", "csv"])
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "p,n,lemma,numerator,denominator"
        assert any(ln.startswith("5,3,smallonetwo,2,125") for ln in lines)

    def test_sweep_lemma(self):
        code, lines = run_json(["census", "sweep", "--p", "5",
                                "--lemma", "smallonetwo"])
        assert code == 0
        assert lines[0]["density"] == [2, 125]

    def test_sweep_unknown_lemma(self):
        code, lines = run_json(["census", "sweep", "--p", "5",
                                "--lemma", "bogus"])
        assert code == 2

    def test_orbits(self):
        code, lines = run_json(["census", "orbits", "--p", "5",
                                "--f", "1,4,1,4", "--e", "2"])
        assert code == 0
        assert lines[0]["orbits"] == 4
        assert lines[0]["stabilizer_orders"] == [4, 4, 4, 4]

    def test_orbits_requires_invariants(self):
        code, lines = run_json(["census", "orbits", "--p", "5"])
        assert code == 2

    def test_group_order(self):
        code, lines = run_json(["census", "group-order", "--p", "5"])
        assert code == 0 and lines[0]["order"] == 120

    def test_group_order_budget(self):
        code, lines = run_json(["census", "group-order", "--p", "101"])
        assert code == 5
        assert lines[0]["error"]["code"] == "BudgetError"

    @pytest.mark.parametrize("p, n", [(-3, 3), (1, 3), (2, 3), (4, 3),
                                      (9, 3), (5, 2), (5, 4), (5, 1)])
    def test_group_order_refuses_outside_odd_theory(self, p, n):
        """SO_n over F_p for an odd prime p and odd n >= 3 only; even n
        would answer the order of SO_(2m+1)."""
        code, lines = run_json(["census", "group-order", "--p", str(p),
                                "--n", str(n)])
        assert code == 2
        assert lines == [{"error": {
            "code": "UsageError", "exit": 2,
            "message": "n must be odd and at least 3" if n != 3
            else "p must be an odd prime"}}]

    def test_orbits_refuse_characteristic_2(self):
        code, lines = run_json(["census", "orbits", "--p", "2",
                                "--f", "1,1,1,1", "--e", "1"])
        assert code == 2
        assert lines[0]["error"]["message"] == "p must be an odd prime"

    @pytest.mark.parametrize("argv", [
        ["--n", "5", "--f", "1,1,1,1", "--e", "1"],
        ["--f", "1,0,0,0,1,1", "--e", "1"]])
    def test_orbits_refuse_degree_other_than_n(self, argv):
        """--n is the degree of the fiber: a cubic --f with --n 5, or a
        quintic --f with the default --n 3, is a usage error."""
        code, lines = run_json(["census", "orbits", "--p", "3"] + argv)
        assert code == 2
        assert lines[0]["error"]["message"] == (
            "invariants have degree 3, not n = 5" if "--n" in argv
            else "invariants have degree 5, not n = 3")

    def test_family_stream(self):
        code, lines = run_json(["census", "family", "--p", "5",
                                "--count", "3"])
        assert code == 0
        assert len(lines) == 4
        assert lines[-1]["count"] == 3 and lines[-1]["p"] == 5

    def test_family_refuses_negative_count(self):
        code, lines = run_json(["census", "family", "--p", "5",
                                "--count", "-3"])
        assert code == 2
        assert lines == [{"error": {"code": "UsageError", "exit": 2,
                                    "message": "count must be nonnegative"}}]
        code, lines = run_json(["census", "family", "--p", "5",
                                "--count", "0"])
        assert code == 0 and lines[-1]["count"] == 0

    def test_seed_env_override(self, monkeypatch):
        monkeypatch.setenv("ORBITLAB_SEED", "123")
        code, lines = run_json(["census", "family", "--p", "5",
                                "--count", "2"])
        assert code == 0
        assert lines[-1]["seed"] == 123

    def test_bad_seed_env(self, monkeypatch):
        monkeypatch.setenv("ORBITLAB_SEED", "abc")
        code, lines = run_json(["census", "family", "--p", "5",
                                "--count", "2"])
        assert code == 2

    def test_bad_seed_env_only_fails_seeded_verbs(self, monkeypatch):
        """Only descent and census take --seed, so only they read
        ORBITLAB_SEED, and only when --seed is not given."""
        monkeypatch.setenv("ORBITLAB_SEED", "abc")
        assert run(["orbit", "stabilizer", "--f", "1,0,-1,1",
                    "--e", "1"])[0] == 0
        assert run(["invariants", "--A", A_CUBIC])[0] == 0
        local = ["descent", "local", "--place", "7"] + Q_BASE
        code, lines = run_json(local)
        assert code == 2
        assert "ORBITLAB_SEED" in lines[0]["error"]["message"]
        assert run(local + ["--seed", "3"])[0] == 0

    def test_seed_env_read_per_dispatch(self, monkeypatch):
        seeds = []
        for env in ("123", "456"):
            monkeypatch.setenv("ORBITLAB_SEED", env)
            code, lines = run_json(["census", "family", "--p", "5",
                                    "--count", "1"])
            assert code == 0
            seeds.append(lines[-1]["seed"])
        assert seeds == [123, 456]


class TestHeightsVerb:
    def test_stream_and_summary(self):
        code, lines = run_json(["heights", "--X", "2"])
        assert code == 0
        summary = lines[-1]
        assert summary["box_count"] == 3255
        assert summary["count"] == 3255
        assert len(lines) == 3256

    def test_flags(self):
        code, lines = run_json(["heights", "--X", "1", "--flags"])
        assert code == 0
        assert lines[0]["regular_semisimple"] is False
        assert lines[-1]["count"] == 1

    def test_nonpositive_x(self):
        code, _ = run(["heights", "--X", "0"])
        assert code == 2

    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 4])
    def test_n_outside_odd_family(self, n):
        """n = 2g + 1: the stream refuses other n before it writes a
        record."""
        code, lines = run_json(["heights", "--X", "1", "--n", str(n)])
        assert code == 2
        assert lines == [{"error": {
            "code": "UsageError", "exit": 2,
            "message": "n must be odd and at least 3"}}]

    def test_n5_stream(self):
        code, lines = run_json(["heights", "--X", "1", "--n", "5"])
        assert code == 0
        assert lines[-1] == {"X": 1, "box_count": 1, "count": 1, "n": 5}


class TestParser:
    def test_built_once(self, monkeypatch):
        monkeypatch.setattr(cli, "_PARSER", None)
        builds = count_calls(monkeypatch, cli, "_build_parser")
        for argv in (["orbit", "stabilizer"] + F5_SPLIT, ["frobnicate"],
                     ["descent", "local"] + F5_SPLIT):
            run(argv)
        assert len(builds) == 1


class TestBaseParsing:
    def test_prime_power_field_rejected(self):
        code, lines = run_json(["orbit", "stabilizer", "--f", "1,4,1,4",
                                "--e", "2", "--base", "F:9"])
        assert code == 2
        assert "prime" in lines[0]["error"]["message"]

    def test_unknown_base(self):
        code, _ = run(["orbit", "stabilizer", "--f", "1,0,-1,1",
                       "--e", "1", "--base", "Z"])
        assert code == 2

    def test_unknown_verb(self):
        code, _ = run(["frobnicate"])
        assert code == 2

    def test_nonmonic_rejected(self):
        code, _ = run(["orbit", "stabilizer", "--f", "2,0,-1,1",
                       "--e", "1"])
        assert code == 2

    def test_constant_term_checked(self):
        code, _ = run(["orbit", "stabilizer", "--f", "1,0,-1,2",
                       "--e", "1"])
        assert code == 2

    def test_padic_base_with_precision(self):
        code, lines = run_json(["orbit", "stabilizer", "--f", "1,0,-1,1",
                                "--e", "1", "--base", "Qp:7:24"])
        assert code == 0
        assert lines[0]["order"] >= 1
