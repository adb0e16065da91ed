"""CLI behavior: output, exit codes, scripts, paradox reports, REPL."""

import io
import json
import sys

import pytest

from grossone.cli import main
from grossone.exprlang import MAX_NESTING


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

    def test_a_file_that_is_not_utf8_is_an_io_error(self, tmp_path, capsys):
        script = tmp_path / "bad.g"
        script.write_bytes(b"G+1\n\xff\xfe\n")
        code, out, err = run(capsys, "--script", str(script))
        assert (code, out) == (4, "")
        assert err == "error: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte\n"

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


class TestDigitLimit:
    """Integers past the interpreter's int-to-string digit limit end in a
    one-line error with a documented exit code."""

    LIMIT = sys.get_int_max_str_digits()

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_a_literal_with_too_many_digits_is_a_parse_error(self, capsys, flags):
        code, out, err = run(capsys, *flags, "--eval", "1 + " + "9" * (self.LIMIT + 1))
        assert (code, out) == (2, "")
        assert err == f"error: expected an integer of at most {self.LIMIT} digits at offset 4\n"

    def test_a_literal_at_the_limit_is_a_number(self, capsys):
        assert run(capsys, "--eval", "9" * self.LIMIT + " > G^-1") == (0, "true\n", "")

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_printing_a_number_with_too_many_digits_is_an_eval_error(self, capsys, flags):
        code, out, err = run(capsys, *flags, "--eval", f"2^{4 * self.LIMIT}")
        assert (code, out) == (3, "")
        assert err == f"error: cannot print a number with more than {self.LIMIT} digits\n"

    def test_a_script_prints_nothing_for_the_failing_line(self, tmp_path, capsys):
        script = tmp_path / "big.g"
        script.write_text(f"G+1\n2^{4 * self.LIMIT} + G\n")
        code, out, err = run(capsys, "--script", str(script))
        assert (code, out) == (3, "G+1 => G + 1\n")
        assert err.startswith("line 2: error: cannot print a number")

    def test_comparing_such_a_number_still_works(self, capsys):
        assert run(capsys, "--eval", f"2^{4 * self.LIMIT} < 3") == (0, "false\n", "")

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_an_error_naming_such_a_number_is_an_eval_error(self, capsys, flags):
        # The refused division's message would print the dividend.
        line = f"(10^{self.LIMIT + 700}*G+1)/(G-1)"
        code, out, err = run(capsys, *flags, "--eval", line)
        assert (code, out) == (3, "")
        assert err == f"error: cannot print a number with more than {self.LIMIT} digits\n"

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    @pytest.mark.parametrize("line", [
        "{BIG}", "ap(BIG, 3)", "addf(nat(), {BIG})", "remf(nat(), {BIG})", "ap(1, BIG)",
        "root(BIG + 1, 2)", "root((BIG)^G, 2)", "(G+1)^(-(BIG))", "evalat(G^(1/BIG), 2)",
        "root(2, BIG)", "root(2*G, BIG)",
    ])
    def test_a_set_or_a_message_naming_such_an_int_is_an_eval_error(self, capsys, flags, line):
        # A set prints its plain ints, and these messages name one.
        code, out, err = run(capsys, *flags, "--eval", line.replace("BIG", f"10^{self.LIMIT + 700}"))
        assert (code, out) == (3, "")
        assert err == f"error: cannot print a number with more than {self.LIMIT} digits\n"

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    @pytest.mark.parametrize("line, err", [
        ("ap(BIG*G, 3)", "error: ap: argument 1: expected a finite integer\n"),
        ("geo(BIG*G, 2)", "error: geo: argument 1: expected a finite rational\n"),
    ])
    def test_an_argument_of_the_wrong_kind_is_named_whatever_its_size(self, capsys, flags, line, err):
        code, out, got = run(capsys, *flags, "--eval", line.replace("BIG", f"10^{self.LIMIT + 700}"))
        assert (code, out, got) == (3, "", err)

    def test_a_script_stops_at_an_error_naming_such_a_number(self, tmp_path, capsys):
        script = tmp_path / "div.g"
        script.write_text(f"G+1\n(10^{self.LIMIT + 700}*G+1)/(G-1)\nG\n")
        code, out, err = run(capsys, "--script", str(script))
        assert (code, out) == (3, "G+1 => G + 1\n")
        assert err == f"line 2: error: cannot print a number with more than {self.LIMIT} digits\n"


def _mixed(depth: int) -> str:
    """``depth`` levels of brackets, calls, unary minuses and exponents around 1."""
    text = "1"
    for i in range(depth):
        text = ("({})", "root({}, 1)", "-{}", "1^{}")[i % 4].format(text)
    return text


class TestNestingLimit:
    """Up to MAX_NESTING levels of nesting parse and evaluate; one more is a
    parse error (exit 2), never a RecursionError traceback."""

    N = MAX_NESTING
    CONSTRUCTS = {
        "parentheses": (lambda d: "(" * d + "G" + ")" * d, "G"),
        "calls": (lambda d: "root(" * d + "G" + ", 1)" * d, "G"),
        "unary minuses": (lambda d: "-" * d + "G", "G"),
        "power tower": (lambda d: "^".join(["1"] * (d + 1)), "1"),
        "braces": (lambda d: "{" + "(" * (d - 1) + "1" + ")" * (d - 1) + "}", "{1}"),
    }

    @pytest.mark.parametrize("kind", CONSTRUCTS)
    def test_the_limit_evaluates(self, capsys, kind):
        text, value = self.CONSTRUCTS[kind]
        assert run(capsys, "--eval", text(self.N)) == (0, value + "\n", "")

    @pytest.mark.parametrize("kind", CONSTRUCTS)
    def test_one_level_more_is_a_parse_error(self, capsys, kind):
        code, out, err = run(capsys, "--eval", self.CONSTRUCTS[kind][0](self.N + 1))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: expected at most {self.N} levels of nesting at offset ")

    def test_the_offset_is_that_of_the_first_operand_past_the_limit(self, capsys):
        code, _, err = run(capsys, "--json", "--eval", "(" * 200 + "1" + ")" * 200)
        assert (code, err) == (2, f"error: expected at most {self.N} levels of nesting at offset 101\n")

    def test_levels_of_every_kind_add_up(self, capsys):
        assert run(capsys, "--eval", _mixed(self.N)) == (0, "1\n", "")
        assert run(capsys, "--eval", "{" + _mixed(self.N - 1) + "}") == (0, "{-1}\n", "")
        assert run(capsys, "--eval", _mixed(self.N + 1))[0] == 2
        assert run(capsys, "--eval", "{" + _mixed(self.N) + "}")[0] == 2

    @pytest.mark.parametrize("text", [
        "(" * 164 + "1" + ")" * 164, "root(" * 140 + "G" + ", 1)" * 140,
        "^".join(["1"] * 495), "-" * 986 + "1", "(" * 5000 + "1",
    ])
    def test_inputs_deeper_than_the_limit_are_parse_errors(self, capsys, text):
        assert run(capsys, "--eval", text)[0] == 2

    def test_a_flat_chain_is_not_nesting(self, capsys):
        assert run(capsys, "--eval", " + ".join(["G"] * 300)) == (0, "300*G\n", "")
        assert run(capsys, "--eval", "(" + " - ".join(["(1)"] * 300) + ")") == (0, "-298\n", "")


class TestPowerSizeLimit:
    """A power of a rational whose size passes gnum.MAX_POWER_BITS (2**20)
    is refused before it is built: exit 3 and one line on stderr."""

    ERR = "error: a power would need more than 1048576 bits\n"

    @pytest.mark.parametrize("line", [
        "2^(10^9)",
        "10^10^10",
        "(1/2)^(2^20 + 1)",
        "(3*G)^(-10^7)",
        "lamp(on, 2^20000)",
        "geo(1/2, 2^20000)",
        "2^(G + 2^20000)",
        "(2/3)^(2^20000*G)",
        "evalat(2^G, 2^40)",
        "evalat((3/2)^G + G, 2^21)",
        "evalat(G^6, 2^200000)",
        "evalat(G^-6 + 1, 2^200000)",
    ])
    def test_a_power_past_the_limit_is_an_eval_error(self, capsys, line):
        assert run(capsys, "--eval", line) == (3, "", self.ERR)

    def test_thomson_with_a_huge_switch_count(self, capsys):
        assert run(capsys, "paradox", "thomson", "--switches", "2^20000") == (3, "", self.ERR)

    def test_a_parse_error_after_large_literal_products_is_reported_first(self, capsys):
        # Folding these products at parse time would build a 12-million-bit number.
        line = "7^370000*" * 12 + "7 + )"
        assert run(capsys, "--eval", line) == (2, "", f"error: expected expression at offset {len(line) - 1}\n")

    def test_powers_of_one_and_of_g_have_no_limit(self, capsys):
        assert run(capsys, "--eval", "1^(10^9) + (-1)^(10^9+1) + G^(10^9)") == (0, "G^1000000000\n", "")
        assert run(capsys, "--eval", "1^(10^9*G)") == (0, "1\n", "")


class TestOddRoots:
    """An odd root of a negative coefficient is negative; an even one is
    refused with the degree as an English ordinal."""

    @pytest.mark.parametrize("line, out", [
        ("(-8)^(1/3)", "-2\n"),
        ("(-8*G^3)^(1/3)", "-2*G\n"),
        ("(-8/27)^(1/3)", "-2/3\n"),
        ("root(-32*G^5, 5)", "-2*G\n"),
    ])
    def test_odd_root_of_a_negative_number(self, capsys, line, out):
        assert run(capsys, "--eval", line) == (0, out, "")

    @pytest.mark.parametrize("line, err", [
        ("(-4)^(1/2)", "error: -4 is not a perfect 2nd power\n"),
        ("root(-4*G^2, 2)", "error: -4 is not a perfect 2nd power\n"),
        ("root(2*G, 2)", "error: 2 is not a perfect 2nd power\n"),
        ("root(2, 3)", "error: 2 is not a perfect 3rd power\n"),
        ("root(2, 11)", "error: 2 is not a perfect 11th power\n"),
        ("root(2, 21)", "error: 2 is not a perfect 21st power\n"),
    ])
    def test_a_root_that_is_not_exact_is_an_eval_error(self, capsys, line, err):
        assert run(capsys, "--eval", line) == (3, "", err)

    @pytest.mark.parametrize("line, err", [
        ("root(2^G, 2)", "error: cannot take a root of the factor 2^G\n"),
        ("root((3/2)^G, 2)", "error: cannot take a root of the factor (3/2)^G\n"),
    ])
    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_a_root_of_an_exponential_factor_names_it(self, capsys, flags, line, err):
        assert run(capsys, *flags, "--eval", line) == (3, "", err)

    def test_json_value(self, capsys):
        assert run(capsys, "--json", "--eval", "(-8)^(1/3)") == (
            0, '{"type": "number", "value": "-2"}\n', "")

    @pytest.mark.parametrize("line, degree", [
        ("root(2, 10^18)", 10**18),
        ("root(2, 1000000000000)", 10**12),
        ("(2*G)^(1/10^18)", 10**18),
        ("(2*G)^(1/100000000000)", 10**11),
    ])
    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_a_huge_degree_is_refused_without_building_a_power(self, capsys, flags, line, degree):
        assert run(capsys, *flags, "--eval", line) == (3, "", f"error: 2 is not a perfect {degree}th power\n")


class TestMixedChains:
    """A chain stops at its first error, operands checked left to right."""

    @pytest.mark.parametrize("line, err", [
        ("1 + nat() + (1/0)", "error: +: argument 2: expected a number\n"),
        ("(1/0) + nat()", "error: division by zero\n"),
        ("1 - card(nat()) * x", "error: unknown identifier 'x'\n"),
        ("2 + 3 - nat() ^ 2", "error: ^: argument 1: expected a number\n"),
        ("G - {1,2}", "error: -: argument 2: expected a number\n"),
        # Four operands: the first is argument 1 of its operator and is
        # checked before the next is evaluated; every other is argument 2.
        ("nat() + 1 + 2 + 3", "error: +: argument 1: expected a number\n"),
        ("nat() - (1/0) + 2 + 3", "error: -: argument 1: expected a number\n"),
        ("{1} - x + 3 + 4", "error: -: argument 1: expected a number\n"),
        ("1 + 2 - nat() + 3", "error: -: argument 2: expected a number\n"),
        ("1 + 2 - nat() + (1/0)", "error: -: argument 2: expected a number\n"),
        ("G - (1/0) + nat() - x", "error: division by zero\n"),
        ("G + 1 - 2 + parity(G)", "error: +: argument 2: expected a number\n"),
        ("1 - 2 + 3 - {1,2}", "error: -: argument 2: expected a number\n"),
        ("1 + 2 + 3 - x", "error: unknown identifier 'x'\n"),
        ("1 + nat() + 3 < x", "error: +: argument 2: expected a number\n"),
    ])
    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_the_first_error_is_reported(self, capsys, flags, line, err):
        assert run(capsys, *flags, "--eval", line) == (3, "", err)


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

    @pytest.mark.parametrize("argv", [
        ["--eval", "1/0", "paradox", "galileo"],
        ["--script", "missing.g", "paradox", "hilbert"],
    ])
    def test_a_mode_with_paradox_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)  # where missing.g does not exist
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "paradox: not allowed with argument --eval or --script" in captured.err

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


# One value line, one evaluation error and one lex error through every runner:
# stdout, stderr and exit code byte for byte.
VALUE, EVAL_ERROR, LEX_ERROR = "G+1", "(G+1)/(G-1)", "@"
EVAL_MESSAGE = "error: (G + 1) is not exactly divisible by (G - 1)\n"
LEX_MESSAGE = "error: unexpected character '@' at offset 0\n"
VALUE_JSON = '{"type": "number", "value": "G + 1"}\n'


class TestRunnersPinned:
    @pytest.mark.parametrize("argv, expected", [
        (("--eval", VALUE), (0, "G + 1\n", "")),
        (("--json", "--eval", VALUE), (0, VALUE_JSON, "")),
        (("--eval", EVAL_ERROR), (3, "", EVAL_MESSAGE)),
        (("--json", "--eval", EVAL_ERROR), (3, "", EVAL_MESSAGE)),
        (("--eval", LEX_ERROR), (2, "", LEX_MESSAGE)),
        (("--json", "--eval", LEX_ERROR), (2, "", LEX_MESSAGE)),
    ])
    def test_eval(self, capsys, argv, expected):
        assert run(capsys, *argv) == expected

    @pytest.mark.parametrize("bad, code, message", [
        (EVAL_ERROR, 3, EVAL_MESSAGE),
        (LEX_ERROR, 2, LEX_MESSAGE),
    ])
    @pytest.mark.parametrize("json_flag, echo", [
        ((), "G+1 => G + 1\n"),
        (("--json",), '{"input": "G+1", "type": "number", "value": "G + 1"}\n'),
    ])
    def test_script_stops_at_the_first_error(self, tmp_path, capsys, bad, code, message,
                                             json_flag, echo):
        script = tmp_path / "s.g"
        script.write_text(f"{VALUE}\n{bad}\nG\n")
        expected = (code, echo, "line 2: " + message)
        assert run(capsys, *json_flag, "--script", str(script)) == expected

    def test_repl_continues_after_errors_and_toggles_json(self, monkeypatch, capsys):
        lines = [VALUE, EVAL_ERROR, LEX_ERROR, ":json", VALUE, EVAL_ERROR, LEX_ERROR, ":json",
                 VALUE, ":quit"]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{x}\n" for x in lines)))
        assert main([]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "g> G + 1\n" "g> g> g> "
            "g> " + VALUE_JSON + "g> g> g> "
            "g> G + 1\n" "g> "
        )
        assert captured.err == (EVAL_MESSAGE + LEX_MESSAGE) * 2

    def test_repl_starts_in_json_mode_with_json(self, monkeypatch, capsys):
        lines = [VALUE, EVAL_ERROR, ":json", VALUE, ":quit"]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{x}\n" for x in lines)))
        assert main(["--json"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "g> " + VALUE_JSON + "g> g> g> G + 1\n" "g> "
        assert captured.err == EVAL_MESSAGE
