import io
import json
import subprocess
import sys
import types

import pytest

from abjadnum import (
    Alphabet,
    decompose,
    encode,
    format_reading,
    gematria,
    gregorian_to_hijri_year,
    hijri_to_gregorian_year,
)
from abjadnum.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHappyPaths:
    def test_encode(self, capsys):
        code, out, err = run_cli(capsys, "encode", "--alphabet", "arabic", "1245")
        assert (code, err) == (0, "")
        assert out == "همرغ\n"

    def test_encode_matches_library_byte_for_byte(self, capsys):
        for n in (1, 200, 1245, 1999):
            code, out, _ = run_cli(capsys, "encode", "--alphabet", "arabic", str(n))
            assert code == 0
            assert out.encode() == (encode(n, Alphabet.ARABIC).text + "\n").encode()

    def test_decode(self, capsys):
        code, out, _ = run_cli(capsys, "decode", "--alphabet", "arabic", "همرغ")
        assert (code, out) == (0, "1245\n")

    def test_decode_strict(self, capsys):
        code, out, _ = run_cli(
            capsys, "decode", "--alphabet", "arabic", "--strict", "ر"
        )
        assert (code, out) == (0, "200\n")

    def test_gematria(self, capsys):
        code, out, _ = run_cli(capsys, "gematria", "--alphabet", "arabic", "احمد زينب")
        assert (code, out) == (0, "122\n")
        assert out.strip() == str(gematria("احمد زينب", Alphabet.ARABIC).total)

    def test_translit(self, capsys):
        code, out, _ = run_cli(
            capsys, "translit", "--from", "western", "--to", "mashreki", "1225"
        )
        assert (code, out) == (0, "١٢٢٥\n")

    def test_read_ltr(self, capsys):
        code, out, _ = run_cli(capsys, "read", "--direction", "ltr", "12457892")
        assert (code, out) == (0, "12 millions 457 mille 892\n")

    def test_read_rtl_default(self, capsys):
        code, out, _ = run_cli(capsys, "read", "12457892")
        assert code == 0
        assert out.strip() == format_reading(decompose(12457892), "rtl")

    def test_read_figure_exact(self, capsys):
        code, out, _ = run_cli(capsys, "read", "--figure-exact", "12457892")
        assert code == 0
        assert out == "2 et 90 et 800 et 7 et 50 et 400 mille et 2 et 10 millions\n"

    def test_read_custom_labels(self, capsys):
        code, out, _ = run_cli(
            capsys, "read", "--direction", "ltr", "--labels", ",thousand", "2500"
        )
        assert (code, out) == (0, "2 thousand 500\n")

    def test_provenance(self, capsys):
        code, out, _ = run_cli(capsys, "provenance", "--script", "western", "0")
        assert code == 0
        assert out.startswith("arabic Sad ص:")
        assert "Sifr" in out

    def test_hijri(self, capsys):
        code, out, _ = run_cli(capsys, "hijri", "1225")
        assert (code, out) == (0, "1810\n")

    def test_hijri_reverse(self, capsys):
        code, out, _ = run_cli(capsys, "hijri", "--reverse", "1810")
        assert (code, out) == (0, "1225\n")

    def test_hijri_400_digit_year_both_directions(self, capsys):
        year = int("9" * 400)
        code, out, _ = run_cli(capsys, "hijri", str(year))
        assert (code, out) == (0, f"{hijri_to_gregorian_year(year)}\n")
        code, out, _ = run_cli(capsys, "hijri", "--reverse", str(year))
        assert (code, out) == (0, f"{gregorian_to_hijri_year(year)}\n")


class TestStdin:
    def _feed(self, monkeypatch, text):
        monkeypatch.setattr(
            sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(text.encode()))
        )

    def test_decode_from_stdin(self, capsys, monkeypatch):
        self._feed(monkeypatch, "همرغ\n")
        code, out, _ = run_cli(capsys, "decode", "--alphabet", "arabic")
        assert (code, out) == (0, "1245\n")

    def test_encode_from_stdin(self, capsys, monkeypatch):
        self._feed(monkeypatch, "200\n")
        code, out, _ = run_cli(capsys, "encode", "--alphabet", "arabic")
        assert (code, out) == (0, "ر\n")


class TestJson:
    def test_encode_payload(self, capsys):
        code, out, _ = run_cli(capsys, "encode", "--alphabet", "arabic", "--json", "1245")
        assert code == 0
        payload = json.loads(out)
        assert payload["text"] == "همرغ"
        assert payload["value"] == 1245
        assert [l["value"] for l in payload["letters"]] == [5, 40, 200, 1000]
        assert payload["letters"][0]["name"] == "Haa"

    def test_gematria_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "gematria", "--alphabet", "arabic", "--json", "احمد زينب"
        )
        payload = json.loads(out)
        assert payload["total"] == 122
        assert payload["per_word"] == [
            {"word": "احمد", "value": 53},
            {"word": "زينب", "value": 69},
        ]

    def test_read_payload_mirrors_the_groups(self, capsys):
        code, out, _ = run_cli(capsys, "read", "--json", "1000")
        payload = json.loads(out)
        assert payload["groups"] == [
            {"index": 0, "value": 0, "components": []},
            {"index": 1, "value": 1, "components": [{"rank": "units", "value": 1}]},
        ]

    def test_provenance_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "provenance", "--script", "mashreki", "--json", "6"
        )
        payload = json.loads(out)
        assert payload["alphabet"] == "hebrew"
        assert payload["letter"]["name"] == "Vav"


class TestDomainErrors:
    CASES = [
        (["encode", "--alphabet", "hebrew", "500"], "OutOfRange"),
        (["encode", "--alphabet", "arabic", "2000"], "OutOfRange"),
        (["encode", "--alphabet", "arabic", "0"], "ZeroUnencodable"),
        (["decode", "--alphabet", "arabic", "XYZ"], "UnknownLetter"),
        (["decode", "--alphabet", "arabic", "--strict", "غرمه"], "NonCanonical"),
        (["gematria", "--alphabet", "arabic", "abc"], "UnknownLetter"),
        (["translit", "--from", "western", "--to", "mashreki", "12a"], "InvalidGlyph"),
        (["read", "--labels", ",mille", "12457892"], "InsufficientLabels"),
        (["hijri", "--reverse", "600"], "PreEpoch"),
    ]

    @pytest.mark.parametrize("argv,code_name", CASES)
    def test_exit_1_with_machine_readable_message(self, capsys, argv, code_name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"ERROR {code_name}: ")
        assert "\n" not in err.strip()


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "1245"])
        assert exc.value.code == 2

    def test_bad_flag_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "--alphabet", "greek", "7"])
        assert exc.value.code == 2

    def test_non_integer_input(self, capsys):
        # A number is read by parse_digits: a non-digit is a domain error.
        code, out, err = run_cli(capsys, "encode", "--alphabet", "arabic", "abc")
        assert (code, out, err) == (1, "", "ERROR InvalidGlyph: 'a' is not a western digit\n")

    def test_result_past_the_digit_limit_names_the_limit(self, capsys):
        year = "9" * sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "hijri", "--reverse", year)
        assert (code, out) == (2, "")
        assert err.startswith(
            f"usage error: the result has more than {sys.get_int_max_str_digits()} "
            "decimal digits"
        )
        assert "set_int_max_str_digits" not in err

    def test_rejected_argument_is_echoed_in_short(self, capsys):
        year = "9" * (sys.get_int_max_str_digits() + 1)
        code, out, err = run_cli(capsys, "hijri", "--reverse", year)
        assert (code, out) == (2, "")
        assert err == (
            f"usage error: the digit string has more than {sys.get_int_max_str_digits()} "
            "decimal digits, the most that can be read\n"
        )
        code, out, err = run_cli(capsys, "hijri", "--reverse", year + "x")
        assert (code, out, err) == (1, "", "ERROR InvalidGlyph: 'x' is not a western digit\n")
        code, _, err = run_cli(capsys, "read", "12x")
        assert (code, err) == (1, "ERROR InvalidGlyph: 'x' is not a western digit\n")

    def test_empty_decode_input(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(b"  \n"))
        )
        assert main(["decode", "--alphabet", "arabic"]) == 2


def test_console_entry_point_emits_utf8():
    proc = subprocess.run(
        [sys.executable, "-m", "abjadnum", "encode", "--alphabet", "arabic", "1245"],
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.decode("utf-8").strip() == "همرغ"
