"""CLI behavior: output, exit codes, scripts, paradox reports, REPL."""

import io
import json

import pytest

from grossone.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_number(self, capsys):
        code, out, err = run(capsys, "--eval", "card(ints())")
        assert (code, out, err) == (0, "2*G + 1\n", "")

    def test_powers_sum(self, capsys):
        code, out, _ = run(capsys, "--eval", "x2(3*G)")
        assert (code, out) == (0, "8^G - 1\n")

    def test_eval_error_exit_code(self, capsys):
        code, out, err = run(capsys, "--eval", "(G+1)/(G-1)")
        assert code == 3
        assert out == ""
        assert "not exactly divisible" in err

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "--eval", "tri(G,")
        assert code == 2
        assert "expected" in err

    def test_lex_error_exit_code(self, capsys):
        code, _, _ = run(capsys, "--eval", "@")
        assert code == 2

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "--json", "--eval", "grandi(G)")
        assert code == 0
        assert json.loads(out) == {"type": "number", "value": "0"}

    def test_deterministic(self, capsys):
        first = run(capsys, "--eval", "ramanujan()")
        second = run(capsys, "--eval", "ramanujan()")
        assert first == second


class TestExpressionOptionValues:
    """An expression option takes the next argument as its value, also when
    that starts with "-", exactly as the "--option=value" form does."""

    CASES = [
        (("--eval", "-(9)"), 0, "-9\n", ""),
        (("--eval", "-nat()"), 3, "", "error: -: argument 1: expected a number\n"),
        (("--eval", "-G^-1"), 0, "-G^-1\n", ""),
        (("paradox", "hilbert", "--m", "-(1)"), 3, "",
         "error: newcomer count -1 must be a positive gross-integer\n"),
        (("paradox", "thomson", "--switches", "-(1)"), 3, "",
         "error: the number of switches must be positive\n"),
        (("paradox", "torricelli", "--h", "-(G^-1)"), 3, "",
         "error: width -G^-1 must be a single positive infinitesimal term\n"),
    ]

    @pytest.mark.parametrize("argv, code, out, err", CASES, ids=[" ".join(c[0]) for c in CASES])
    def test_value_starting_with_minus(self, capsys, argv, code, out, err):
        *head, option, value = argv
        assert run(capsys, *argv) == (code, out, err)
        assert run(capsys, *head, f"{option}={value}") == (code, out, err)

    def test_missing_value_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--eval"])
        assert exit_.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


class TestScript:
    def test_identity_script(self, tmp_path, capsys):
        script = tmp_path / "identities.g"
        script.write_text(
            "# identity suite\n"
            "\n"
            "0*G\n"
            "G-G\n"
            "G/G\n"
            "G^0\n"
            "G^-1 * G  # inverse element\n"
        )
        code, out, err = run(capsys, "--script", str(script))
        assert code == 0
        assert err == ""
        assert out.splitlines() == [
            "0*G => 0",
            "G-G => 0",
            "G/G => 1",
            "G^0 => 1",
            "G^-1 * G => 1",
        ]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "--script", "/nonexistent/path.g")
        assert code == 4
        assert err

    def test_error_reports_line_number(self, tmp_path, capsys):
        script = tmp_path / "bad.g"
        script.write_text("1+1\n2*2\ntri(G,\n3*3\n")
        code, out, err = run(capsys, "--script", str(script))
        assert code == 2
        assert "line 3" in err
        assert out.splitlines() == ["1+1 => 2", "2*2 => 4"]

    def test_json_lines(self, tmp_path, capsys):
        script = tmp_path / "two.g"
        script.write_text("G+1\ncard(nat())\n")
        code, out, _ = run(capsys, "--json", "--script", str(script))
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines == [
            {"input": "G+1", "type": "number", "value": "G + 1"},
            {"input": "card(nat())", "type": "number", "value": "G"},
        ]


class TestParadox:
    def test_hilbert_default(self, capsys):
        code, out, _ = run(capsys, "paradox", "hilbert")
        assert code == 0
        assert "AP(first=G, step=1, count=1)" in out
        assert "RESOLVED" in out

    def test_torricelli_width(self, capsys):
        code, out, _ = run(capsys, "paradox", "torricelli", "--h", "2*G^-1")
        assert code == 0
        assert "upper triangle area" in out

    def test_unknown_paradox(self, capsys):
        code, _, err = run(capsys, "paradox", "zeno")
        assert code == 5
        assert "unknown paradox" in err

    def test_thomson_params(self, capsys):
        code, out, _ = run(capsys, "paradox", "thomson", "--initial", "off", "--switches", "G")
        assert code == 0
        assert "the lamp is: on" in out

    def test_bad_param_exit(self, capsys):
        code, _, _ = run(capsys, "paradox", "torricelli", "--h", "G")
        assert code == 3

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "--json", "paradox", "galileo")
        assert code == 0
        data = json.loads(out)
        assert data["name"] == "galileo"
        assert data["resolved"] is True
        assert all(claim["ok"] for claim in data["claims"])


class TestRepl:
    def feed(self, monkeypatch, capsys, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = main([])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_evaluates_lines(self, monkeypatch, capsys):
        code, out, err = self.feed(monkeypatch, capsys, "G^0\nparity(G-1)\n:quit\n")
        assert code == 0
        assert "1" in out
        assert "odd" in out
        assert err == ""

    def test_errors_do_not_terminate(self, monkeypatch, capsys):
        code, out, err = self.feed(monkeypatch, capsys, "@\nG+1\n:quit\n")
        assert code == 0
        assert "G + 1" in out
        assert "unexpected character" in err

    def test_json_toggle(self, monkeypatch, capsys):
        code, out, _ = self.feed(monkeypatch, capsys, ":json\ngrandi(G)\n:quit\n")
        assert code == 0
        assert '{"type": "number", "value": "0"}' in out

    def test_eof_exits_cleanly(self, monkeypatch, capsys):
        code, _, _ = self.feed(monkeypatch, capsys, "1+1\n")
        assert code == 0
