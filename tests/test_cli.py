import json
from fractions import Fraction
from pathlib import Path

import pytest

from opertau import cli, hecke, jsonio, krichever
from opertau.cli import run
from opertau.grass import GrassPoint
from opertau.krichever import main_theorem_check
from opertau.oper import MiuraOper, miura_transform
from opertau.psido import commutator, nth_root, power, residue, split
from opertau.series import TruncSeries, tpoly

F = Fraction
MIURA_N2 = str(Path(__file__).parent / "data" / "miura_n2.json")
MIURA_N3 = str(Path(__file__).parent / "data" / "miura_n3.json")


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run(["--bogus", "root", "--n", "2", "d^2"]) == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_parse_error(self, capsys):
        assert run(["root", "--n", "2", "d^2 + ?"]) == 2

    def test_precondition_error(self, capsys):
        # non-monic root request
        assert run(["root", "--n", "2", "2 d^2"]) == 3

    def test_missing_file(self, capsys):
        assert run(["miura", "/nonexistent/m.json"]) == 2

    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_input(self, tmp_path, capsys, kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe d^2 \xe9")
        assert run(["miura", str(path)]) == 2
        assert run(["bc-curve", "--p", str(path), "--q", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("cannot read input: ") and str(path) in line for line in err)

    def test_frame_missing_key(self, tmp_path, capsys):
        path = write_json(tmp_path, "f.json", {"window": [-2, 2]})
        assert run(["--json", "--degree", "4", "tau", "--frame", path]) == 2
        assert "malformed frame JSON" in capsys.readouterr().err

    def test_zero_denominator(self, tmp_path, capsys):
        frame = {"window": [-2, 2], "columns": [{"0": ["1", "0"]}, {"1": ["1", "1"]}]}
        path = write_json(tmp_path, "f.json", frame)
        assert run(["--json", "--degree", "4", "tau", "--frame", path]) == 2
        assert "malformed fraction JSON" in capsys.readouterr().err

    def test_truncated_json(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"window": [-2, 2], "columns": [{"0": ["1",')
        assert run(["--json", "--degree", "4", "tau", "--frame", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_tau_term_above_bound(self, tmp_path, capsys):
        tau = {"bound": 5, "terms": [{"exps": {"t3": 2}, "coef": ["1", "1"]}]}
        path = write_json(tmp_path, "tau.json", tau)
        assert run(["--json", "hirota-check", "--tau", path]) == 2
        assert "malformed times JSON" in capsys.readouterr().err

    def test_tau_negative_exponent(self, tmp_path, capsys):
        tau = {"bound": None, "terms": [{"exps": {"t1": -1}, "coef": ["1", "1"]}]}
        path = write_json(tmp_path, "tau.json", tau)
        assert run(["--json", "hirota-check", "--tau", path]) == 2

    def test_tau_malformed_time_name(self, tmp_path, capsys):
        tau = {"bound": 4, "terms": [{"exps": {"t0": 1}, "coef": ["5", "1"]}]}
        path = write_json(tmp_path, "tau.json", tau)
        assert run(["--json", "hirota-check", "--tau", path]) == 2
        assert "time name" in capsys.readouterr().err

    def test_repeated_key_in_a_tau_term(self, tmp_path, capsys):
        path = tmp_path / "tau.json"
        path.write_text('{"bound": 4, "terms": [{"exps": {"t1": 1, "t1": 3}, "coef": ["1", "1"]}]}')
        assert run(["--json", "hirota-check", "--tau", str(path)]) == 2
        assert "repeated key among ['t1', 't1']" in capsys.readouterr().err

    def test_repeated_key_in_a_frame_column(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"window": [-2, 2], "columns": [{"0": ["1", "1"], "0": ["2", "1"]}]}')
        assert run(["--json", "--degree", "4", "tau", "--frame", str(path)]) == 2
        assert "repeated key among ['0', '0']" in capsys.readouterr().err

    def test_tau_repeated_monomial(self, tmp_path, capsys):
        terms = [{"exps": {"t1": 1}, "coef": ["1", "1"]}, {"exps": {"t1": 1}, "coef": ["2", "1"]}]
        path = write_json(tmp_path, "tau.json", {"bound": 4, "terms": terms})
        assert run(["--json", "hirota-check", "--tau", path]) == 2
        assert "repeated monomial" in capsys.readouterr().err

    def test_hirota_check_on_a_tau_too_short_for_degree_zero(self, tmp_path, capsys):
        path = write_json(tmp_path, "tau.json", {"bound": 2, "terms": []})
        assert run(["--json", "hirota-check", "--tau", path]) == 3
        assert "BadArgument" in capsys.readouterr().err

    def test_toda_pairs_of_wrong_shape(self, tmp_path, capsys):
        path = write_json(tmp_path, "pairs.json", [["1/2", "2"]])
        assert run(["--json", "--degree", "4", "toda-tau", "--pairs", path]) == 2

    def test_float_where_an_integer_belongs(self, tmp_path, capsys):
        frame = {"window": [-2, 2], "columns": [{"0": [1.5, 2]}, {"1": ["1", "1"]}]}
        path = write_json(tmp_path, "f.json", frame)
        assert run(["--json", "--degree", "4", "tau", "--frame", path]) == 2
        assert "malformed fraction JSON" in capsys.readouterr().err
        tau = {"bound": 8, "terms": [{"exps": {"t1": 1.9}, "coef": ["1", "1"]}]}
        path = write_json(tmp_path, "tau.json", tau)
        assert run(["--json", "hirota-check", "--tau", path]) == 2

    def test_toda_pairs_take_no_float_or_boolean(self, tmp_path, capsys):
        for pair in (["1/2", 1.5, "3"], ["1/2", True, "3"]):
            path = write_json(tmp_path, "pairs.json", [pair])
            assert run(["--json", "--degree", "4", "toda-tau", "--pairs", path]) == 2
            assert "malformed pairs JSON" in capsys.readouterr().err

    def test_bad_window(self, tmp_path, capsys):
        chi = tpoly({1: 1}, 12)
        path = write_json(tmp_path, "m.json", jsonio.miura_to_json(MiuraOper(2, (chi, -chi))))
        assert run(["--window=-6", "main-check", "--miura", path]) == 2

    @pytest.mark.parametrize("window", ["--window=0,1", "--window=-1,1"])
    def test_window_too_small_for_the_flag(self, window, capsys):
        assert run([window, "main-check", "--miura", MIURA_N2]) == 3
        assert "WindowOverflow" in capsys.readouterr().err

    def test_negative_degree_main_check(self, capsys):
        assert run(["--degree", "-5", "main-check", "--miura", MIURA_N2]) == 2
        assert "--degree" in capsys.readouterr().err

    def test_negative_degree_toda(self, tmp_path, capsys):
        path = write_json(tmp_path, "pairs.json", [["1", "1", "2"]])
        assert run(["--degree", "-3", "toda-tau", "--pairs", path]) == 2
        assert "--degree" in capsys.readouterr().err

    def test_negative_order_kdv_flow(self, capsys):
        assert run(["--order", "-3", "kdv-flow", "--r", "3"]) == 2
        assert "--order" in capsys.readouterr().err

    def test_zero_flow_kdv_flow(self, capsys):
        assert run(["kdv-flow", "--n", "2", "--r", "0"]) == 3
        assert "flow index must be a positive integer" in capsys.readouterr().err

    def test_zero_n_kdv_conserved(self, capsys):
        assert run(["kdv-conserved", "--s", "1", "--n", "0"]) == 2
        assert "--n" in capsys.readouterr().err

    def test_zero_denominator_in_an_expression(self, tmp_path, capsys):
        assert run(["root", "--n", "2", "1/0"]) == 2
        assert "zero denominator (line 1, col 3)" in capsys.readouterr().err
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        p.write_text("d^2 + 1/0 t")
        q.write_text("d^3")
        assert run(["bc-curve", "--p", str(p), "--q", str(q)]) == 2
        assert "zero denominator (line 1, col 9)" in capsys.readouterr().err

    @pytest.mark.parametrize("pq", [("d^-1", "d^-2"), ("d^2", "d^2 + d^-1")])
    def test_bc_curve_with_a_negative_order(self, tmp_path, pq, capsys):
        # the weighted degree a ord(P) + b ord(Q) orders nothing once an order
        # is negative: d^-1, d^-2 satisfy x^2 - y, which the search missed
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        p.write_text(pq[0])
        q.write_text(pq[1])
        argv = ["bc-curve", "--p", str(p), "--q", str(q), "--bound", "4"]
        for depth in ("-8", "-12"):
            assert run(["--depth", depth, *argv]) == 3
            assert "BadArgument" in capsys.readouterr().err


class TestCommands:
    def test_root_embedded_check(self, capsys):
        assert run(["--json", "root", "--n", "2", "d^2 + t"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["recomposition_matches"] is True
        assert out["order"] == 12 and out["depth"] == -8

    def test_root_reports_the_depth_of_its_root(self, capsys):
        # the expression is parsed at the default depth, so d^-1 t^9, whose
        # expansion reaches d^-10, is known down to d^-8 and its root to d^-9
        assert run(["--depth", "-16", "--json", "root", "--n", "2", "d^2 + d^-1 t^9"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["depth"] == out["root"]["depth"] == -9

    def test_root_with_a_pole_below_t_minus_8(self, capsys):
        assert run(["--json", "root", "--n", "2", "d^2 + t^-9"]) == 0
        assert json.loads(capsys.readouterr().out)["recomposition_matches"] is True

    def test_plain_text_report(self, capsys):
        assert run(["root", "--n", "2", "d^2 + t"]) == 0
        lines = capsys.readouterr().out.splitlines()
        keys = [line.split(": ", 1)[0] for line in lines]
        assert keys == ["depth", "order", "recomposition_matches", "root", "text"]
        assert {"depth: -8", "order: 12", "recomposition_matches: True"} <= set(lines)

    def test_miura(self, tmp_path, capsys):
        chi = tpoly({0: 1, 1: 2}, 12)
        M = MiuraOper(2, (chi, -chi))
        path = write_json(tmp_path, "m.json", jsonio.miura_to_json(M))
        assert run(["--json", "miura", path]) == 0
        out = json.loads(capsys.readouterr().out)
        S = jsonio.scalar_oper_from_json(out["scalar_oper"])
        assert S.q[0].is_zero
        assert S.q[1].agrees(chi * chi - chi.derivative())

    def test_kdv_flow(self, capsys):
        assert run(["--json", "kdv-flow", "--n", "2", "--r", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stationary"] is False
        assert len(out["delta_q"]) == 2

    def test_kdv_conserved(self, capsys):
        assert run(["--json", "kdv-conserved", "--n", "2", "--s", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["density"]["coeffs"] == []

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("r", [12, 13])
    def test_high_flows_read_the_depth_they_need(self, n, r, capsys):
        # B_r reads the root down to 1 - r and res R^r down to -r, both below
        # the default tail depth; the reference takes a root of depth -24
        assert run(["--json", "kdv-flow", "--n", str(n), "--r", str(r)]) == 0
        flow = json.loads(capsys.readouterr().out)
        assert run(["--json", "kdv-conserved", "--n", str(n), "--s", str(r)]) == 0
        density = json.loads(capsys.readouterr().out)["density"]
        L = cli._default_oper(n, 12).to_psido()
        R = nth_root(L, n, depth=-24)
        B, _ = split(power(R, r, 0))
        rhs = commutator(B, L)
        assert flow["stationary"] is rhs.is_zero is (r % n == 0)
        for i, c in enumerate(flow["delta_q"], 1):
            want = rhs.terms.get(n - i)
            dq = jsonio.series_from_json(c)
            assert dq.is_zero if want is None else dq == -want
        assert density == jsonio.series_to_json(residue(power(R, r, -1)))

    def test_tau_and_hirota(self, tmp_path, capsys):
        cols = [{0: 1, -1: F(1, 2)}] + [{k: 1} for k in range(1, 6)]
        W = GrassPoint((-6, 6), cols)
        fpath = write_json(tmp_path, "frame.json", jsonio.frame_to_json(W))
        assert run(["--json", "--degree", "10", "tau", "--frame", fpath]) == 0
        out = json.loads(capsys.readouterr().out)
        tau = out["tau"]
        tpath = write_json(tmp_path, "tau.json", tau)
        assert run(["--json", "hirota-check", "--tau", tpath]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["is_zero"] is True

    def test_tau_reports_its_frame_window_and_degree(self, tmp_path, capsys):
        W = GrassPoint((-4, 4), [{0: 1, -1: F(1, 2)}] + [{k: 1} for k in range(1, 4)])
        fpath = write_json(tmp_path, "frame.json", jsonio.frame_to_json(W))
        assert run(["--json", "--degree", "4", "tau", "--frame", fpath]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["window"], out["degree"], out["tau"]["bound"]) == ([-4, 4], 4, 4)
        assert not {"order", "depth"} & set(out)
        tpath = write_json(tmp_path, "tau.json", {"bound": 10, "terms": []})
        assert run(["--json", "hirota-check", "--tau", tpath]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["checked_degree"] == 6
        assert not {"order", "depth", "window", "degree"} & set(out)
        path = write_json(tmp_path, "pairs.json", [["1/2", "2", "3"]])
        assert run(["--json", "--degree", "4", "toda-tau", "--pairs", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["degree"] == 4 and not {"order", "depth", "window"} & set(out)

    def test_toda(self, tmp_path, capsys):
        path = write_json(tmp_path, "pairs.json", [["1/2", "2", "3"]])
        assert run(["--json", "--degree", "4", "toda-tau", "--pairs", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cutoff"] == 6
        assert any(t["exps"] == {} for t in out["tau"]["terms"])

    def test_hecke_verify(self, capsys):
        assert run(["hecke-verify", "--n", "2", "--N", "2", "--zrange", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_hecke_verify_plain_table(self, monkeypatch, capsys):
        monkeypatch.setattr(hecke, "verify_relations", lambda win: [("braid", True), ("quadratic", False)])
        assert run(["hecke-verify", "--n", "2", "--N", "2", "--zrange", "1"]) == 4
        assert capsys.readouterr().out.splitlines() == [
            "n: 2  N: 2  zrange: -1,1", "PASS  braid", "FAIL  quadratic", "all_hold: False",
        ]

    def test_hecke_verify_reports_its_window(self, capsys):
        assert run(["--json", "hecke-verify", "--n", "3", "--N", "2", "--zrange", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["n"], out["N"], out["zrange"]) == (3, 2, [-1, 1])
        assert out["all_hold"] is True and len(out["relations"]) == 7
        assert not {"order", "depth", "window", "degree"} & set(out)

    def test_bc_curve(self, tmp_path, capsys):
        p = tmp_path / "p.txt"
        p.write_text("d^2 - 2 t^-2")
        q = tmp_path / "q.txt"
        q.write_text("d^3 - 3 t^-2 d + 3 t^-3")
        assert run(
            ["--json", "bc-curve", "--p", str(p), "--q", str(q), "--bound", "6"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        monos = {(m["x"], m["y"]) for m in out["relation"]}
        assert monos == {(3, 0), (0, 2)}

    def test_krichever_and_main_check(self, tmp_path, capsys):
        chi = tpoly({1: 1}, 20)
        M = MiuraOper(2, (chi, -chi))
        mpath = write_json(tmp_path, "m.json", jsonio.miura_to_json(M))
        spath = write_json(
            tmp_path, "s.json", jsonio.scalar_oper_to_json(miura_transform(M))
        )
        assert run(
            ["--json", "--window=-6,6", "krichever", "--oper", spath]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["virtdim"] == 0 and out["n_reduced"] is True
        assert run(
            ["--json", "--window=-10,12", "main-check", "--miura", mpath]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["all_passed"] is True
        assert (out["n"], out["tau_constant_term"]) == (2, "1")
        assert isinstance(out["annihilator_count"], int)

    def test_main_check_reads_no_depth(self, capsys):
        # the Miura transform composes first-order differential factors,
        # which terminate, so even a depth above their orders cuts nothing
        assert run(["--json", "main-check", "--miura", MIURA_N3]) == 0
        plain = capsys.readouterr().out
        assert run(["--json", "--depth", "3", "main-check", "--miura", MIURA_N3]) == 0
        assert capsys.readouterr().out == plain
        assert json.loads(plain)["all_passed"] is True

    def test_main_check_reports_what_the_check_used(self, tmp_path, monkeypatch, capsys):
        reports = []

        def check(*args):
            reports.append(main_theorem_check(*args))
            return reports[-1]

        monkeypatch.setattr(krichever, "main_theorem_check", check)
        chi = tpoly({1: 1}, 20)
        mpath = write_json(tmp_path, "m.json", jsonio.miura_to_json(MiuraOper(2, (chi, -chi))))
        assert run(["--json", "--window=-6,6", "--degree", "6", "main-check", "--miura", mpath]) == 0
        out = json.loads(capsys.readouterr().out)
        (report,) = reports
        assert (out["window"], out["degree"]) == (list(report.window), report.degree) == ([-6, 6], 6)
        assert (out["annihilator_window"], out["annihilator_degree"]) == (
            report.details["annihilator_window"], report.details["annihilator_degree"]) == ([-6, 6], 6)

    def test_reports_name_only_the_settings_used(self, tmp_path, capsys):
        settings = {"order", "depth", "window", "degree"}

        def used(argv):
            assert run(["--json", *argv]) == 0
            out = json.loads(capsys.readouterr().out)
            return {k: out[k] for k in settings & set(out)}

        chi = tpoly({1: 1}, 20)
        M = MiuraOper(2, (chi, -chi))
        mpath = write_json(tmp_path, "m.json", jsonio.miura_to_json(M))
        spath = write_json(tmp_path, "s.json", jsonio.scalar_oper_to_json(miura_transform(M)))
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        p.write_text("d^2 - 2 t^-2")
        q.write_text("d^3 - 3 t^-2 d + 3 t^-3")
        assert used(["miura", mpath]) == {}
        assert used(["--order", "10", "root", "--n", "2", "d^2 + t"]) == {"order": 10, "depth": -8}
        assert used(["--depth", "-9", "root", "--n", "2", "d^2 + t"]) == {"order": 12, "depth": -9}
        assert used(["bc-curve", "--p", str(p), "--q", str(q), "--bound", "6"]) == {"order": 12}
        assert used(["kdv-flow", "--r", "3"]) == {"order": 12}
        assert used(["kdv-flow", "--r", "3", spath]) == {}
        assert used(["--depth", "-9", "kdv-conserved", "--s", "2"]) == {"order": 12}
        assert used(["kdv-conserved", "--s", "2", spath]) == {}
        assert used(["--window=-6,6", "krichever", "--oper", spath]) == {"window": [-6, 6]}
        assert used(["--window=-6,6", "--degree", "6", "main-check", "--miura", mpath]) == {
            "window": [-6, 6], "degree": 6}

    def test_byte_stable(self, tmp_path, capsys):
        chi = tpoly({0: 1}, 12)
        M = MiuraOper(2, (chi, -chi))
        path = write_json(tmp_path, "m.json", jsonio.miura_to_json(M))
        run(["--json", "miura", path])
        first = capsys.readouterr().out
        run(["--json", "miura", path])
        second = capsys.readouterr().out
        assert first == second
