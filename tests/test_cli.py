import io
import json
from pathlib import Path

import pytest

from cantortx.cli import main
from cantortx.textio import parse, serialize
from cantortx.group import canonical_core
from cantortx.machines import machine_g4, oplus, swap_transducer
from cantortx.transducer import Transducer


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_example(tmp_path, capsys, name):
    code, out, _ = run(capsys, "example", "--name", name)
    assert code == 0
    path = tmp_path / f"{name.replace(':', '_')}.tx"
    path.write_text(out)
    return str(path)


class TestCommands:
    def test_example_and_sig(self, tmp_path, capsys):
        path = write_example(tmp_path, capsys, "g4")
        code, out, _ = run(capsys, "sig", path)
        assert code == 0
        assert out.strip() == "sync_level=1 sig=8 rsig=2"

    def test_member(self, tmp_path, capsys):
        path = write_example(tmp_path, capsys, "g4")
        code, out, _ = run(capsys, "member", "--r", "3", "--ordered", path)
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "member", "--r", "1", path)
        assert code == 0 and out.strip().startswith("false")

    def test_order_and_orbit(self, tmp_path, capsys):
        path = write_example(tmp_path, capsys, "id:3")
        code, out, _ = run(capsys, "order", path)
        assert code == 0 and out.strip() == "Finite(1)"
        t3 = write_example(tmp_path, capsys, "T:3")
        code, out, _ = run(capsys, "orbit", "--class", "1,2", "--steps", "4", t3)
        assert code == 0
        assert json.loads(out)["lengths"] == [2, 3, 4, 5, 6]

    def test_order_tests_powers_up_to_the_bound(self, tmp_path, capsys):
        # T:3^31 is the last power tested; T:3^32 is never formed
        t3 = write_example(tmp_path, capsys, "T:3")
        code, out, _ = run(capsys, "order", "--bound", "31", "--json", t3)
        assert code == 0
        assert json.loads(out)["result"]["state_counts"] == list(range(3, 34))

    def test_mul_pipeline(self, tmp_path, capsys):
        path = write_example(tmp_path, capsys, "g4")
        code, out, _ = run(capsys, "mul", path, path)
        assert code == 0
        M = parse(out)
        assert isinstance(M, Transducer) and len(M.states) == 1

    def test_parse_round_trip(self, tmp_path, capsys):
        path = write_example(tmp_path, capsys, "T:4")
        code, out, _ = run(capsys, "parse", path)
        assert code == 0
        assert parse(out) == parse((tmp_path / "T_4.tx").read_text())

    def test_minimize_core_invert(self, tmp_path, capsys):
        path = write_example(tmp_path, capsys, "g4")
        code, out, _ = run(capsys, "invert", path)
        assert code == 0
        assert parse(out) is not None
        code, out, _ = run(capsys, "core", path)
        assert code == 0 and parse(out) == machine_g4()
        code, out, _ = run(capsys, "minimize", "--root", "a", path)
        assert code == 0 and len(parse(out).states) == 2

    def test_realize_then_analyze(self, tmp_path, capsys):
        path = write_example(tmp_path, capsys, "g4")
        code, out, _ = run(capsys, "realize", "--r", "3", path)
        assert code == 0
        realized = tmp_path / "realized.tx"
        realized.write_text(out)
        code, out, _ = run(capsys, "sync-level", str(realized))
        assert code == 0

    def test_partition(self, capsys):
        code, out, _ = run(capsys, "partition", "--n", "7", "--sigs", "1,5")
        assert code == 0
        assert json.loads(out)["classes"] == [[1, 2, 4, 5], [3, 6]]

    def test_json_report_shape(self, tmp_path, capsys):
        path = write_example(tmp_path, capsys, "g4")
        code, out, _ = run(capsys, "sig", "--json", path)
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"command", "inputs", "result", "bounds", "elapsed_ms"}
        assert report["result"]["rsig"] == 2

    def test_json_stable_across_runs(self, tmp_path, capsys):
        path = write_example(tmp_path, capsys, "g4")
        _, out1, _ = run(capsys, "analyze", "--json", path)
        _, out2, _ = run(capsys, "analyze", "--json", path)
        a, b = json.loads(out1), json.loads(out2)
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        assert a == b

    def test_edges_dump(self, tmp_path, capsys):
        path = write_example(tmp_path, capsys, "g4")
        code, out, _ = run(capsys, "edges", path)
        assert code == 0 and "a -1|0-> b" in out


class TestPipelines:
    def test_stdin_stdout_composition(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import cantortx

        # the child imports the package under test, however pytest found it
        src = str(Path(cantortx.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        first = subprocess.run(
            [sys.executable, "-m", "cantortx.cli", "example", "--name", "g4"],
            capture_output=True, text=True, check=True, env=env,
        )
        second = subprocess.run(
            [sys.executable, "-m", "cantortx.cli", "sig", "-"],
            input=first.stdout, capture_output=True, text=True, check=True, env=env,
        )
        assert second.stdout.strip() == "sync_level=1 sig=8 rsig=2"

    def test_verify_f_relations_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "F-relations")
        assert code == 0 and "PASS" in out and "F-relations" in out


class TestErrors:
    def test_domain_error_exits_one(self, tmp_path, capsys):
        path = write_example(tmp_path, capsys, "g4")
        code, out, err = run(capsys, "realize", "--r", "1", path)
        assert code == 1 and "error:" in err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.tx"
        bad.write_text("TRANSDUCER n=2 r=0 states=q initial=-\nq 0 -> q : 0\n")
        code, out, err = run(capsys, "sig", str(bad))
        assert code == 1 and "missing transition" in err

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["member"])  # missing --r and file
        assert exc.value.code == 2

    def test_order_past_the_32nd_power(self, tmp_path, capsys):
        # T:3^k needs k + 1 image rounds, more than the 32 that once bounded
        # them
        path = write_example(tmp_path, capsys, "T:3")
        code, out, err = run(capsys, "order", "--bound", "40", path)
        assert code == 0 and err == ""
        assert out.strip() == f"ExceedsBound{tuple(range(3, 43))}"

    def test_non_clopen_image_exits_one(self, tmp_path, capsys):
        path = tmp_path / "golden_mean.tx"
        path.write_text("TRANSDUCER n=2 r=0 states=a initial=-\n"
                        "a 0 -> a : 0\na 1 -> a : 0,1\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1 and out == ""
        assert err == "error: some state image is not clopen\n"

    @pytest.mark.parametrize("argv", [
        ("orbit", "--class", "1,2", "--steps", "-1"),
        ("order", "--bound", "-3"),
        ("order", "--state-cap", "-1"),
        ("realize", "--r", "2", "--depth", "-1"),
        ("order", "--json", "--bound", "-1"),
    ])
    def test_negative_numeric_option_is_a_usage_error(self, tmp_path, capsys, argv):
        path = write_example(tmp_path, capsys, "T:3")
        with pytest.raises(SystemExit) as exc:
            main([*argv, path])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert f"error: argument {argv[-2]}: must not be negative" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, code, message", [
        (("sig", "{missing}"), 1, "error: {missing}: No such file or directory"),
        (("edges", "{tmp}"), 1, "error: {tmp}: Is a directory"),
        (("partition", "--n", "7", "--sigs", "x"), 2, "argument --sigs: invalid"),
        (("partition", "--n", "7", "--sigs", "1,,5"), 2, "argument --sigs: invalid"),
        (("partition", "--n", "1", "--sigs", "1"), 2, "argument --n: must be at least 2"),
        (("partition", "--n", "0", "--sigs", "1"), 2, "argument --n: must be at least 2"),
        (("mul", "-", "-"), 2, "stdin can be read only once"),
        (("product", "-", "-"), 2, "stdin can be read only once"),
        (("parse", "{dotted}"), 1, "error: line 2: dotted output in a plain machine"),
        (("sig", "{dotted}"), 1, "error: line 2: dotted output in a plain machine"),
    ])
    def test_bad_paths_and_arguments_name_one_error(self, tmp_path, capsys, argv, code, message):
        dotted = tmp_path / "dotted.tx"
        dotted.write_text("TRANSDUCER n=2 r=0 states=a initial=-\na 0 -> a : .0\na 1 -> a : 1\n")
        names = {"missing": str(tmp_path / "missing.tx"), "tmp": str(tmp_path), "dotted": str(dotted)}
        try:
            got = main([arg.format(**names) for arg in argv])
        except SystemExit as exc:
            got = exc.code
        out, err = capsys.readouterr()
        assert got == code and out == ""
        assert message.format(**names) in err
        assert err.count("error:") == 1 and "Traceback" not in err

    def test_orbit_letter_out_of_range(self, tmp_path, capsys):
        t3 = write_example(tmp_path, capsys, "T:3")
        for steps in ((), ("--steps", "1"), ("--steps", "0")):
            code, out, err = run(capsys, "orbit", "--class", "7", *steps, t3)
            assert code == 1 and out == ""
            assert err == "error: letter 7 out of range for alphabet of size 3\n"

    def test_zero_numeric_option_is_accepted(self, tmp_path, capsys):
        path = write_example(tmp_path, capsys, "T:3")
        code, out, _ = run(capsys, "orbit", "--class", "1,2", "--steps", "0", path)
        assert code == 0 and json.loads(out)["lengths"] == [2]

    def test_unordered_element_reasons(self, tmp_path, capsys):
        # a member over 3 roots that neither preserves nor reverses the order
        M = canonical_core(oplus(2, swap_transducer(), 4))
        path = tmp_path / "oplus.tx"
        path.write_text(serialize(M))
        code, out, _ = run(capsys, "member", "--r", "3", str(path))
        assert code == 0 and out.strip() == "true"
        reason = "the element neither preserves nor reverses the lexicographic order"
        code, out, _ = run(capsys, "member", "--r", "3", "--ordered", str(path))
        assert code == 0 and out.strip() == f"false ({reason})"
        code, out, _ = run(capsys, "member", "--r", "3", "--ordered", "--json", str(path))
        assert json.loads(out)["result"]["reason"] == reason
        code, out, err = run(capsys, "realize", "--r", "3", str(path))
        assert code == 1 and out == ""
        assert err.strip() == f"error: element is not realizable over 3 roots: {reason}"

    def test_empty_output_cycle_is_not_a_member(self, tmp_path, capsys):
        path = tmp_path / "empty_cycle.tx"
        path.write_text(serialize(Transducer(2, {"a": {0: ((), "a"), 1: ((0,), "a")}})))
        code, out, err = run(capsys, "member", "--r", "1", str(path))
        assert code == 0 and err == ""
        assert out.strip() == "false (cycle through state 'a' outputs the empty word)"
        code, out, _ = run(capsys, "orient", str(path))
        assert code == 0 and json.loads(out)["orientation"] == "neither"

    def test_congruence_reasons(self, tmp_path, capsys):
        path = write_example(tmp_path, capsys, "g4")
        code, out, _ = run(capsys, "member", "--r", "1", "--ordered", path)
        assert code == 0 and out.strip() == "false (membership congruence fails)"
        code, out, err = run(capsys, "realize", "--r", "1", path)
        assert code == 1 and err.strip() == (
            "error: element is not realizable over 1 roots: "
            "membership congruence fails at this root count")

    def test_minimize_gcp_bound(self, tmp_path, capsys):
        # s owes a 64-letter word before copying its input
        u = tuple((j * j + 1) % 3 for j in range(64))
        M = Transducer(3, {
            "s": {i: (u + (i,), "id") for i in range(3)},
            "id": {i: ((i,), "id") for i in range(3)},
        })
        path = tmp_path / "owes.tx"
        path.write_text(serialize(M))
        code, out, _ = run(capsys, "minimize", "--root", "s", str(path))
        assert code == 0
        assert parse(out).output("0", 2) == u + (2,)
        # z outputs 0 whatever it reads: a constant map
        path = tmp_path / "constant.tx"
        path.write_text(
            "TRANSDUCER n=2 r=0 states=z initial=-\n"
            "z 0 -> z : 0\nz 1 -> z : 0\n"
        )
        code, out, err = run(capsys, "minimize", str(path))
        assert code == 1 and out == ""
        assert err.strip() == (
            "error: state 'z' maps every input to one point, "
            "so its forced output is infinite")
        with pytest.raises(SystemExit) as exc:
            main(["minimize", "--gcp-bound", "4", str(path)])
        assert exc.value.code == 2
        assert "--gcp-bound" in capsys.readouterr().err

    def test_invert_invalid_element(self, tmp_path, capsys):
        path = tmp_path / "swapping.tx"
        path.write_text("TRANSDUCER n=2 r=0 states=s,t initial=-\n"
                        "s 0 -> t : 0\ns 1 -> t : 1\nt 0 -> s : 0\nt 1 -> s : 1\n")
        code, out, err = run(capsys, "invert", str(path))
        assert code == 1 and out == ""
        assert err == "error: not a valid core element: not synchronizing\n"

    def test_member_bad_root_count(self, tmp_path, capsys):
        path = write_example(tmp_path, capsys, "g4")
        code, _, err = run(capsys, "member", "--r", "7", path)
        assert code == 1 and "root count" in err


GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_sync.json"
GOLDEN_EXAMPLES = ("g4", "T:3", "U:4", "A:3", "B:3", "piR:3")
INVERTIBLE_EXAMPLES = ("g4", "T:3", "U:4", "piR:3")


def stdout_of(capsys, *argv):
    """stdout of one successful command, with the timing dropped from a
    --json report so that the text is reproducible."""
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    if "--json" in argv:
        report = json.loads(out)
        report.pop("elapsed_ms")
        out = json.dumps(report, sort_keys=True) + "\n"
    return out


def golden_outputs(capsys, monkeypatch, tmp_path):
    """stdout of sync-level, core and sig, plain and --json, and of invert
    (on the core elements) on the built-in examples,
    and of the README pipeline `tx realize --r 3 g4.tx | tx core -
    | tx sig -` (with sync-level on the realized machine too), keyed by the
    command line."""
    monkeypatch.chdir(tmp_path)
    got = {}
    for name in GOLDEN_EXAMPLES:
        path = f"{name.replace(':', '_')}.tx"
        (tmp_path / path).write_text(stdout_of(capsys, "example", "--name", name))
        for command in ("sync-level", "core", "sig"):
            for flags in ((), ("--json",)):
                argv = (command, *flags, path)
                got[" ".join(argv)] = stdout_of(capsys, *argv)
        if name in INVERTIBLE_EXAMPLES:
            got[f"invert {path}"] = stdout_of(capsys, "invert", path)
    realized = stdout_of(capsys, "realize", "--r", "3", "g4.tx")
    monkeypatch.setattr("sys.stdin", io.StringIO(realized))
    core = stdout_of(capsys, "core", "-")
    got["realize --r 3 g4.tx"] = realized
    got["realize --r 3 g4.tx | core -"] = core
    for head, text, command in (("realize --r 3 g4.tx |", realized, "sync-level"),
                                ("realize --r 3 g4.tx | core - |", core, "sig")):
        for flags in ((), ("--json",)):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            got[" ".join((head, command, *flags, "-"))] = stdout_of(capsys, command, *flags, "-")
    return got


class TestGoldenOutputs:
    """The synchronization commands and invert print, byte for byte, what is
    recorded in tests/golden/cli_sync.json."""

    def test_sync_level_core_sig(self, capsys, monkeypatch, tmp_path):
        want = json.loads(GOLDEN.read_text())
        got = golden_outputs(capsys, monkeypatch, tmp_path)
        assert got.keys() == want.keys()
        for line, out in got.items():
            assert out == want[line], line


KERNEL_GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_kernel.json"
KERNEL_EXAMPLES = ("T:3", "U:3", "T:4", "U:4", "T:5", "g4", "piR:4")


def outcome_of(capsys, *argv):
    """stdout of one command, or its exit code and stderr when it fails."""
    code, out, err = run(capsys, *argv)
    return out if code == 0 else f"exit {code}: {err}"


def kernel_outputs(capsys, monkeypatch, tmp_path):
    """stdout of the commands that print canonical forms, keyed by the
    command line: minimize at every root of T:3, U:4 and g4 and of two
    realized machines; mul of T:3 U:3, T:5 T:5, g4 g4 and piR:4 T:4; product
    of two realized machines; and realize of T:3, U:4, g4, piR:4 and the
    product piR:4 T:4 (both orientation-reversing) at every root count."""
    monkeypatch.chdir(tmp_path)
    got = {}

    def record(*argv):
        got[" ".join(argv)] = outcome_of(capsys, *argv)
        return got[" ".join(argv)]

    def save(path, text):
        (tmp_path / path).write_text(text)
        return path

    files = {
        name: save(f"{name.replace(':', '_')}.tx", stdout_of(capsys, "example", "--name", name))
        for name in KERNEL_EXAMPLES
    }
    for name in ("T:3", "U:4", "g4"):
        for q in parse((tmp_path / files[name]).read_text()).states:
            record("minimize", "--root", q, files[name])
    for a, b in (("T:3", "U:3"), ("T:5", "T:5"), ("g4", "g4"), ("piR:4", "T:4")):
        record("mul", files[a], files[b])
    files["piR:4 T:4"] = save("piR_4-T_4.tx", got["mul piR_4.tx T_4.tx"])
    for name in ("T:3", "U:4", "g4", "piR:4", "piR:4 T:4"):
        for r in range(1, parse((tmp_path / files[name]).read_text()).n):
            record("realize", "--r", str(r), files[name])
    realized = [
        save(f"realized-{k}.tx", record("realize", "--r", r, files[name]))
        for k, (name, r) in enumerate((("T:3", "2"), ("g4", "3"), ("U:4", "3")))
    ]
    for path in realized[:2]:
        record("minimize", path)
    record("product", realized[1], realized[2])
    return got


class TestKernelGolden:
    """minimize, mul, product and realize print, byte for byte, what is
    recorded in tests/golden/cli_kernel.json, including the order of the
    states line."""

    def test_canonical_forms(self, capsys, monkeypatch, tmp_path):
        want = json.loads(KERNEL_GOLDEN.read_text())
        got = kernel_outputs(capsys, monkeypatch, tmp_path)
        assert got.keys() == want.keys()
        for line, out in got.items():
            assert out == want[line], line
