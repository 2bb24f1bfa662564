"""CLI behavior: output, exit codes, and JSON schema conformance."""

import argparse
import json
import pathlib
import re
import shlex
import sys

import jsonschema
import pytest

from bstwist import __version__, intmat, selftest as selftest_mod
from bstwist.cli import _build_parser, main
from bstwist.intmat import snf

SCHEMAS = pathlib.Path(__file__).resolve().parents[1] / "src/bstwist/schemas"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def load_schema(name):
    return json.loads((SCHEMAS / name).read_text())


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "phi.endo"
    path.write_text("group 2 3\na -> a\nb -> b^2\n")
    return str(path)


@pytest.fixture
def spec_file2(tmp_path):
    path = tmp_path / "psi.endo"
    path.write_text("group 2 3\na -> a b\nb -> b^2\n")
    return str(path)


class TestWordCommands:
    def test_normalize(self, capsys):
        code, out, _ = run(capsys, "normalize", "--group", "2,3", "b^5 a")
        assert code == 0 and out.strip() == "b a b^6"

    def test_normalize_json(self, capsys):
        payload = run_json(capsys, "normalize", "--group", "2,3",
                           "--format", "json", "b^5 a")
        assert payload["normal_form"] == "b a b^6"
        assert "config" in payload

    def test_config_records_parsed_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["bs-twist", "-q"])
        argv = ["normalize", "--group=-2,3", "--format", "json", "a^-1 b"]
        payload = run_json(capsys, *argv)
        assert shlex.split(payload["config"]) == argv

    def test_json_records_the_package_version(self, capsys):
        payload = run_json(capsys, "normalize", "--group", "2,3",
                           "--format", "json", "b^5 a")
        pyproject = (SCHEMAS.parents[2] / "pyproject.toml").read_text()
        declared = re.search(r'^version = "(.*)"$', pyproject, re.M).group(1)
        assert payload["version"] == __version__ == declared

    def test_equal(self, capsys):
        code, out, _ = run(capsys, "equal", "--group", "1,2",
                           "a^-1 b^2 a", "b^4")
        assert code == 0 and out.strip() == "equal"
        code, out, _ = run(capsys, "equal", "--group", "1,2", "a b", "b a")
        assert code == 0 and out.strip() == "not-equal"

    def test_mult(self, capsys):
        code, out, _ = run(capsys, "mult", "--group", "2,2", "a b", "b a^-1")
        assert code == 0 and out.strip() == "b^2"

    def test_model_check(self, capsys):
        payload = run_json(capsys, "model-check", "--group", "1,-1",
                           "--format", "json", "b a b^-1", "b^2 a")
        assert payload["agree"] is True
        assert payload["britton"] == payload["model"]

    def test_standardize(self, capsys):
        payload = run_json(capsys, "standardize", "--group", "3,2",
                           "--format", "json")
        assert (payload["m"], payload["n"]) == (2, 3)
        assert payload["image_a"] == "a^-1"

    def test_kernel_decompose(self, capsys):
        code, out, _ = run(capsys, "kernel-decompose", "--group", "2,3",
                           "b a b a^-1")
        assert code == 0 and out.strip() == "g_0^1 g_-1^1"

    def test_normalize_prints_long_exponents(self, capsys):
        # the pinch chain a^-k b a^k = b^(2^k) in B(1,2); 2^20000 has 6021
        # digits, beyond CPython's default int/str conversion limit
        code, out, err = run(capsys, "normalize", "--group", "1,2",
                             "a^-20000 b a^20000")
        assert code == 0, err
        assert out.strip() == f"b^{2 ** 20000}"

    def test_kappa(self, capsys):
        code, out, _ = run(capsys, "kappa", "--group", "2,3", "a^-1 b a")
        assert code == 0 and out.strip() == "3/2"


class TestHomCommands:
    def test_validate(self, capsys, spec_file):
        payload = run_json(capsys, "hom-validate", "--group", "2,3",
                           "--spec", spec_file, "--format", "json")
        schema = load_schema("induced.schema.json")
        jsonschema.validate(payload, schema)
        assert payload["k"] == 1 and payload["kernel_preserved"] is True
        assert payload["kappa_scale"] == "2"

    def test_invalid_spec_is_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.endo"
        bad.write_text("group 2 3\na -> a\nb -> b a\n")
        code, _, err = run(capsys, "hom-validate", "--group", "2,3",
                           "--spec", str(bad))
        assert code == 1
        assert "relation-violated" in err

    @pytest.mark.parametrize("text", ["groupie 2 3\na -> a\nb -> b^2\n",
                                      "group 2 3\na -> \nb -> b^2\n",
                                      "group 2 3\na -> a\na -> b\n",
                                      "group 2 3\na -> a\nc -> b\n"])
    def test_lenient_spec_files_are_refused(self, capsys, tmp_path, text):
        # a header that only starts with "group", an empty image that once
        # read as the identity (written 1), and a repeated or unknown
        # generator
        path = tmp_path / "lenient.endo"
        path.write_text(text)
        code, out, err = run(capsys, "hom-validate", "--group", "2,3",
                             "--spec", str(path))
        assert code == 1 and "invalid-input" in err and out == ""

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run(capsys, "hom-validate", "--group", "2,3",
                           "--spec", "/nonexistent.endo")
        assert code == 1


class TestCertifyCommands:
    def test_certify_json_schema_and_golden(self, capsys, spec_file):
        payload = run_json(capsys, "certify", "--group", "2,3",
                           "--spec", spec_file, "--format", "json")
        jsonschema.validate(payload, load_schema("certificate.schema.json"))
        payload.pop("config")
        assert payload.pop("version") == __version__
        golden = json.loads((GOLDEN / "certificate.json").read_text())
        assert payload == golden

    def test_coincidence(self, capsys, spec_file, spec_file2):
        payload = run_json(capsys, "coincidence", "--group", "2,3",
                           "--spec", spec_file, "--spec2", spec_file2,
                           "--format", "json")
        jsonschema.validate(payload, load_schema("certificate.schema.json"))
        assert payload["kind"] == "infinite"

    def test_kappa_certificate_on_minus_case(self, capsys, tmp_path):
        path = tmp_path / "cube.endo"
        path.write_text("group 3 -3\na -> a^3\nb -> b\n")
        payload = run_json(capsys, "certify", "--group", "3,-3",
                           "--spec", str(path), "--format", "json")
        jsonschema.validate(payload, load_schema("certificate.schema.json"))
        cert = payload["certificate"]
        assert cert["invariant"] == "kappa"
        assert cert["scale_checks"]["kappa(phi(b))"] == "1"
        assert cert["scale_checks"]["(n/m)^(k-1) of phi"] == "1"

    @pytest.mark.parametrize("command, option", [
        ("certify", "--window=-3"), ("coincidence", "--window=8"),
        ("enumerate", "--jobs=2")])
    def test_removed_options_are_usage_errors(self, capsys, spec_file,
                                              command, option):
        argv = [command, "--group", "2,3", "--spec", spec_file]
        if command == "coincidence":
            argv += ["--spec2", spec_file]
        _build_parser().parse_args(argv)  # valid without the option
        with pytest.raises(SystemExit) as info:
            main(argv + [option])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["certify", "--spec", "b12.endo"],
        ["coincidence", "--spec", "b12.endo", "--spec2", "b12.endo"],
        ["hom-validate", "--spec", "b12.endo"],
        ["hom-induced", "--spec", "b12.endo"],
        # only --spec2 is off the group; the message names it, where the
        # library's own pair check would name both groups instead
        ["coincidence", "--spec", "b23.endo", "--spec2", "b12.endo"],
    ], ids=["certify", "coincidence", "hom-validate", "hom-induced",
            "coincidence-spec2"])
    def test_spec_from_another_group_is_refused(self, capsys, monkeypatch,
                                                tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "b12.endo").write_text("group 1 2\na -> a\nb -> b^2\n")
        (tmp_path / "b23.endo").write_text("group 2 3\na -> a\nb -> b^2\n")
        code, out, err = run(capsys, argv[0], "--group", "2,3", *argv[1:])
        assert (code, out) == (1, "")
        assert err == ("error [group-mismatch]: spec file b12.endo is on "
                       "B(1,2), --group is B(2,3)\n")

    def test_b11_refused(self, capsys, tmp_path):
        # B(-1,-1) is Z + Z too; the message names the group it refuses
        path = tmp_path / "phi.endo"
        for m in (1, -1):
            path.write_text(f"group {m} {m}\na -> a^2 b\nb -> a b\n")
            for argv in (["certify"], ["coincidence", "--spec2", str(path)]):
                code, out, err = run(capsys, *argv, f"--group={m},{m}",
                                     "--spec", str(path))
                assert (code, out) == (1, "")
                assert err == (f"error [unsupported-group]: B({m},{m}) = Z + Z "
                               "admits automorphisms with finite Reidemeister "
                               "number; refusing rather than misleading\n")


class TestEnumerate:
    def test_klein_report(self, capsys, tmp_path):
        path = tmp_path / "flip.endo"
        path.write_text("group 1 -1\na -> a^3\nb -> b^2\n")
        payload = run_json(capsys, "enumerate", "--group", "1,-1",
                           "--spec", str(path), "--bounds", "u=64,v=8",
                           "--format", "json")
        jsonschema.validate(payload, load_schema("ballreport.schema.json"))
        assert payload["stable_classes"] == 4
        assert "stabilized" not in payload

    def test_spec_from_another_group_is_refused(self, capsys, tmp_path, spec_file):
        klein = tmp_path / "flip.endo"
        klein.write_text("group 1 -1\na -> a^3\nb -> b^2\n")
        for argv in (("--spec", spec_file),
                     ("--spec", str(klein), "--spec2", spec_file)):
            code, out, err = run(capsys, "enumerate", "--group", "1,-1", *argv)
            assert code == 1 and "group-mismatch" in err and out == ""

    def test_negative_margin_is_refused(self, capsys, tmp_path):
        path = tmp_path / "flip.endo"
        path.write_text("group 1 -1\na -> a^3\nb -> b^2\n")
        code, out, err = run(capsys, "enumerate", "--group", "1,-1",
                             "--spec", str(path), "--margin", "-3")
        assert code == 1 and "invalid-input" in err and out == ""

    def test_box_too_small(self, capsys, tmp_path):
        path = tmp_path / "flip.endo"
        path.write_text("group 1 -1\na -> a^3\nb -> b^2\n")
        code, _, err = run(capsys, "enumerate", "--group", "1,-1",
                           "--spec", str(path), "--bounds", "u=1,v=1",
                           "--margin", "5")
        assert code == 1 and "box-too-small" in err

    @pytest.mark.parametrize("bounds", ["u=64", "u=64,v=8,z=3", "u=-3,v=8"])
    def test_bounds_outside_the_family_box_are_refused(self, capsys, tmp_path,
                                                       bounds):
        path = tmp_path / "flip.endo"
        path.write_text("group 1 -1\na -> a^3\nb -> b^2\n")
        code, out, err = run(capsys, "enumerate", "--group", "1,-1",
                             "--spec", str(path), "--bounds", bounds)
        assert code == 1 and "invalid-input" in err and out == ""

    @pytest.mark.parametrize("bounds", ["u=4,v=2,u=8", "u=4,v=2,v=2"])
    def test_repeated_bounds_keys_are_refused(self, capsys, tmp_path, bounds):
        # the last value used to win silently: u=4,v=2,u=8 ran the box u=8,v=2
        path = tmp_path / "flip.endo"
        path.write_text("group 1 -1\na -> a^3\nb -> b^2\n")
        with pytest.raises(SystemExit) as info:
            run(capsys, "enumerate", "--group", "1,-1", "--spec", str(path),
                "--bounds", bounds)
        assert info.value.code == 2
        assert "repeats" in capsys.readouterr().err

    def test_zero_bounds_are_refused(self, capsys, tmp_path):
        # a zero box stays zero when doubled, so its one class of the
        # identity map looked stable although R(id) is infinite
        path = tmp_path / "id.endo"
        path.write_text("group 1 -1\na -> a\nb -> b\n")
        code, out, err = run(capsys, "enumerate", "--group", "1,-1",
                             "--spec", str(path), "--bounds", "u=0,v=0",
                             "--margin", "0")
        assert code == 1 and "invalid-input" in err and out == ""


class TestMatrixCommands:
    def test_snf(self, capsys):
        payload = run_json(capsys, "snf", "2 4; 6 8", "--format", "json")
        assert payload["diagonal"] == [2, 4]
        assert payload["coker_order"] == 8

    @pytest.mark.parametrize("matrix,order", [("2 4; 6 8", 8), ("1 2; 2 4", None)])
    def test_snf_of_a_square_matrix_takes_one_snf(self, capsys, monkeypatch,
                                                   matrix, order):
        calls = []

        def counting_snf(M):
            calls.append(M)
            return snf(M)

        monkeypatch.setattr(intmat, "snf", counting_snf)
        payload = run_json(capsys, "snf", matrix, "--format", "json")
        assert payload["coker_order"] == order
        assert len(calls) == 1

    @pytest.mark.parametrize("matrix", ["", ";", " ; "])
    def test_snf_of_no_entries_is_refused(self, capsys, matrix):
        code, out, err = run(capsys, "snf", matrix)
        assert code == 1 and "invalid-input" in err and out == ""

    def test_power_constraint(self, capsys):
        payload = run_json(capsys, "power-constraint", "--group", "2,-2",
                           "--range=-3,3", "--format", "json")
        assert payload["solutions"] == [-3, -1, 1, 3]

    def test_power_constraint_wide_range(self, capsys):
        payload = run_json(capsys, "power-constraint", "--group", "2,-2",
                           "--range=-100000,100000", "--format", "json")
        assert payload["solutions"] == list(range(-99999, 100000, 2))
        assert len(payload["solutions"]) == 100000

    @pytest.mark.parametrize("group", ["0,3", "2", "2,3,4"])
    def test_malformed_group_is_a_usage_error(self, capsys, group):
        with pytest.raises(SystemExit) as info:
            main(["normalize", f"--group={group}", "a"])
        assert info.value.code == 2
        assert "--group expects m,n" in capsys.readouterr().err

    def test_negative_m_via_equals_form(self, capsys):
        payload = run_json(capsys, "standardize", "--group=-3,2",
                           "--format", "json")
        assert (payload["m"], payload["n"]) == (2, -3)


class TestSelftest:
    def test_json_has_checks_and_config(self, capsys, monkeypatch):
        monkeypatch.setattr(selftest_mod, "ACCEPTANCE_CHECKS",
                            [("ok", lambda: (True, "fine"))])
        payload = run_json(capsys, "selftest", "--format", "json")
        assert payload == {"checks": [{"name": "ok", "passed": True,
                                       "detail": "fine"}],
                           "passed": True, "config": "selftest --format json",
                           "version": __version__}

    def test_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["selftest", "--seed", "5"])
        assert info.value.code == 2

    def test_failed_check_exits_1_and_prints_the_table(self, capsys,
                                                       monkeypatch):
        monkeypatch.setattr(selftest_mod, "ACCEPTANCE_CHECKS", [
            ("good", lambda: (True, "fine")),
            ("broken", lambda: (False, "off by one"))])
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert out == "good    PASS  fine\nbroken  FAIL  off by one\n"
        code, out, _ = run(capsys, "selftest", "--format", "json")
        assert code == 1 and json.loads(out)["passed"] is False


class TestExitCodes:
    def test_syntax_error_is_2(self, capsys):
        code, _, err = run(capsys, "normalize", "--group", "2,3", "c")
        assert code == 2 and "syntax" in err

    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["normalize", "b"])  # missing required --group
        assert info.value.code == 2

    def test_unknown_subcommand_is_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2


class TestRoundTrips:
    def test_normalize_fixed_point(self, capsys):
        import random
        from bstwist.words import GroupSpec, format_word
        from test_words import random_word
        rng = random.Random(51)
        for _ in range(25):
            w = format_word(random_word(rng))
            code, out, _ = run(capsys, "normalize", "--group", "2,3", w)
            assert code == 0
            first = out.strip()
            code, out, _ = run(capsys, "normalize", "--group", "2,3", first)
            assert out.strip() == first


# ---------------------------------------------------------------------------
# Pinned output of every command: exit code, stdout and stderr, byte for
# byte, in text and JSON.  The spec files are written to the working
# directory under fixed names, so `config` is the same on every run.

PIN_SPECS = {
    "phi.endo": "group 2 3\na -> a\nb -> b^2\n",
    "psi.endo": "group 2 3\na -> a b\nb -> b^2\n",
    "kill.endo": "group 2 3\na -> a^2\nb -> 1\n",
    "cube.endo": "group 3 -3\na -> a^3\nb -> b\n",
    "flip.endo": "group 2 2\na -> a^-1\nb -> b^-1\n",
    "klein.endo": "group 1 -1\na -> a^3\nb -> b^2\n",
    "klein2.endo": "group 1 -1\na -> a b\nb -> b^-1\n",
}

PIN_CASES = {
    "normalize": ["normalize", "--group", "2,3", "b^5 a"],
    "normalize-syntax": ["normalize", "--group", "2,3", "c"],
    "normalize-long-a": ["normalize", "--group", "2,3",
                         "a^1000000 b a^-1000000"],
    "equal": ["equal", "--group", "1,2", "a^-1 b^2 a", "b^4"],
    "not-equal": ["equal", "--group", "1,2", "a b", "b a"],
    "mult": ["mult", "--group", "2,2", "a b", "b a^-1", "a"],
    "model-check": ["model-check", "--group", "1,-1", "b a b^-1", "b^2 a"],
    "hom-validate": ["hom-validate", "--group", "2,3", "--spec", "phi.endo"],
    "hom-validate-missing": ["hom-validate", "--group", "2,3",
                             "--spec", "missing.endo"],
    "hom-induced": ["hom-induced", "--group", "2,3", "--spec", "kill.endo"],
    "kernel-decompose": ["kernel-decompose", "--group", "2,3", "b a b a^-1"],
    "kernel-decompose-empty": ["kernel-decompose", "--group", "2,3", "1"],
    "kernel-decompose-outside": ["kernel-decompose", "--group", "2,3", "a"],
    "kappa": ["kappa", "--group", "2,3", "a^-1 b a"],
    "certify": ["certify", "--group", "2,3", "--spec", "phi.endo"],
    "certify-kappa": ["certify", "--group", "3,-3", "--spec", "cube.endo"],
    "certify-unknown": ["certify", "--group", "2,2", "--spec", "flip.endo"],
    "certify-mismatch": ["certify", "--group", "1,2", "--spec", "phi.endo"],
    "coincidence": ["coincidence", "--group", "2,3", "--spec", "phi.endo",
                    "--spec2", "psi.endo"],
    "enumerate": ["enumerate", "--group", "1,-1", "--spec", "klein.endo",
                  "--bounds", "u=16,v=4"],
    "enumerate-pair": ["enumerate", "--group", "1,-1", "--spec", "klein.endo",
                       "--spec2", "klein2.endo", "--bounds", "u=12,v=4",
                       "--margin", "1"],
    "enumerate-too-small": ["enumerate", "--group", "1,-1", "--spec",
                            "klein.endo", "--bounds", "u=1,v=1",
                            "--margin", "5"],
    "snf": ["snf", "2 4; 6 8"],
    "snf-singular": ["snf", "2 4; 4 8"],
    "snf-wide": ["snf", "1 2 3; 4 5 6"],
    "snf-empty": ["snf", ""],
    "snf-empty-rows": ["snf", ";"],
    "snf-ragged": ["snf", "1 2;"],
    "power-constraint": ["power-constraint", "--group", "2,-2",
                         "--range=-3,3"],
    "power-constraint-default": ["power-constraint", "--group", "2,3"],
    "power-constraint-none": ["power-constraint", "--group", "2,3",
                              "--range=2,5"],
    "power-constraint-reversed": ["power-constraint", "--group", "2,3",
                                  "--range=5,1"],
    "standardize": ["standardize", "--group=-3,2"],
    "selftest": ["selftest"],
}

PIN_GOLDEN = GOLDEN / "cli_outputs.json"


def _subcommands():
    (sub,) = [action for action in _build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    return sub.choices


def test_every_command_is_pinned():
    assert set(_subcommands()) == {argv[0] for argv in PIN_CASES.values()}


def test_every_spec_command_requires_a_group():
    # a spec file names its own group; the command's --group is what it is
    # checked against, so no command may read a spec without one
    spec_commands = set()
    for name, parser in _subcommands().items():
        options = {option: action for action in parser._actions
                   for option in action.option_strings}
        if "--spec" in options:
            spec_commands.add(name)
            assert "--group" in options and options["--group"].required, name
    assert {"certify", "coincidence", "enumerate"} <= spec_commands


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(PIN_CASES))
def test_pinned_output(capsys, monkeypatch, tmp_path, case, fmt):
    monkeypatch.chdir(tmp_path)
    for name, text in PIN_SPECS.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, *PIN_CASES[case], "--format", fmt)
    expected = json.loads(PIN_GOLDEN.read_text())[f"{case}[{fmt}]"]
    assert {"code": code, "out": out, "err": err} == expected
