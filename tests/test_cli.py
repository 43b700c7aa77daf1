import json
import time
from pathlib import Path

import pytest

from wildram.cli import main

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "wildram" / "schemas"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def validate(payload, schema_name):
    if jsonschema is None:
        pytest.skip("jsonschema not installed")
    with open(SCHEMA_DIR / schema_name) as fh:
        schema = json.load(fh)
    jsonschema.validate(payload, schema)


def write_additive_json(tmp_path, name, p, k, coeffs):
    data = {"field": {"p": p, "k": k, "modulus": None}, "a": coeffs}
    if k == 1:
        data["field"] = {"p": p, "k": 1, "modulus": [0, 1]}
    else:
        del data["field"]["modulus"]
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def write_map_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_obstruction_command(capsys):
    code, out = run_cli(capsys, "obstruction", "--p", "2", "--m", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["crit_count"] == 14
    assert payload["obstructed"] is True
    validate(payload, "obstruction.json")

    code, out = run_cli(capsys, "obstruction", "--p", "2", "--m", "2", "--json")
    assert code == 1  # mathematically negative: not obstructed at this level
    payload = json.loads(out)
    assert payload["crit_count"] == 6 and payload["iterate_hint"] == 2
    validate(payload, "obstruction.json")


def test_identities_command(capsys):
    code, out = run_cli(capsys, "identities", "--p", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["wilson_residue"] == 4
    validate(payload, "identities.json")


def test_census_command(capsys):
    code, out = run_cli(capsys, "census", "--p", "3", "--m", "1", "--q", "9", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["class_count"] == 8
    validate(payload, "census.json")


def test_lift_reduce_command(capsys):
    code, out = run_cli(
        capsys, "lift", "--p", "3", "--a", "1", "--reduce", "--sbar", "1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["reduction"]["coeffs"] == [[0], [2], [0], [1]]  # z^3 - z = z^3 + 2z
    validate(payload, "lift.json")


def test_lift_scaling_and_critical(capsys):
    code, out = run_cli(
        capsys, "lift", "--p", "3", "--a", "1", "--scaling-check", "--critical", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["scaling_check"] is True
    assert payload["critical"]["value_valuation"] == -3
    validate(payload, "lift.json")


def test_lift_locus_flag(capsys):
    code, out = run_cli(
        capsys, "lift", "--p", "3", "--a", "1", "--locus", "1", "1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["locus"]["degree"] == 9
    validate(payload, "lift.json")


def test_orbit_command_grid(capsys):
    code, out = run_cli(
        capsys, "orbit", "--p", "3", "--a", "1,2,4", "--max-steps", "8", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [o["verdict"] for o in payload["orbits"]] == ["escape"] * 3
    validate(payload, "orbit_grid.json")


def test_orbit_jobs_capped_at_task_count(capsys, monkeypatch):
    # a fork-started pool forks every worker at the first submit, so --jobs
    # above the number of --a values must not reach the executor; the fake
    # records the pool size and runs the tasks in this process
    import concurrent.futures

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    serial = run_cli(capsys, "orbit", "--p", "3", "--a", "1,2", "--max-steps", "8", "--json")
    for jobs, expected in (("64", [2]), ("2", [2]), ("1", [])):
        sizes.clear()
        assert run_cli(capsys, "orbit", "--p", "3", "--a", "1,2", "--max-steps", "8",
                       "--json", "--jobs", jobs) == serial
        assert sizes == expected
    sizes.clear()
    assert run_cli(capsys, "orbit", "--p", "3", "--a", "1", "--jobs", "64")[0] == 0
    assert sizes == []  # one task runs in this process


def test_locus_command(capsys):
    code, out = run_cli(capsys, "locus", "--p", "3", "--m", "1", "--n", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 9
    validate(payload, "locus.json")

    code, _ = run_cli(capsys, "locus", "--p", "7", "--m", "1", "--n", "1")
    assert code == 3  # budget


def test_pco_command(capsys, tmp_path):
    fc = {
        "domain": {"kind": "finite_field", "p": 3, "k": 1, "modulus": [0, 1]},
        "num": [[0], [2], [0], [1]],
        "den": [[1]],
    }
    path = write_map_json(tmp_path, "fc.json", fc)
    code, out = run_cli(capsys, "pco", "--map", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["edges"] == [[0, 0, 3]]
    validate(payload, "pco.json")

    code, out = run_cli(capsys, "pco", "--map", path, "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert '"3"' in out


def test_monodromy_command(capsys, tmp_path):
    path = write_additive_json(tmp_path, "f.json", 2, 1, [[1], [1]])
    code, out = run_cli(capsys, "monodromy", "--map", path, "--depth", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["levels"][1]["order"] == 4
    assert payload["projections"][0]["kernel_size"] == 2
    validate(payload, "monodromy.json")


def test_normal_form_and_conjugate_commands(capsys, tmp_path):
    f1 = write_additive_json(tmp_path, "f1.json", 3, 1, [[2], [1]])
    code, out = run_cli(capsys, "normal-form", "--map", f1, "--json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "normal_form.json")

    f2 = write_additive_json(tmp_path, "f2.json", 3, 1, [[1], [1]])
    code, out = run_cli(capsys, "conjugate", "--first", f1, "--second", f2, "--json")
    assert code == 1  # different multipliers: not conjugate
    payload = json.loads(out)
    assert payload == {"conjugate": False}
    validate(payload, "conjugate.json")

    code, out = run_cli(capsys, "conjugate", "--first", f1, "--second", f1, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["conjugate"] is True
    validate(payload, "conjugate.json")


def test_obstruction_range_error_exit_code(capsys):
    code = main(["obstruction", "--p", "2", "--m", "0", "--json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "m must be >= 1" in err and "Traceback" not in err


def test_obstruction_pipeline_command(capsys, tmp_path):
    path = write_additive_json(tmp_path, "f.json", 2, 1, [[1], [1]])
    code, out = run_cli(capsys, "obstruction", "--map", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3 and payload["level_order"] == 8
    assert payload["obstruction"]["crit_count"] == 14
    validate(payload, "obstruction.json")


def test_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "census", "--p", "3", "--m", "1", "--q", "9", "--json")
    _, out2 = run_cli(capsys, "census", "--p", "3", "--m", "1", "--q", "9", "--json")
    assert out1 == out2


def test_deterministic_across_processes():
    # fresh interpreters must produce byte-identical reports
    import subprocess
    import sys

    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "wildram.cli", *args],
            capture_output=True,
            check=True,
        ).stdout

    for args in (
        ["census", "--p", "2", "--m", "2", "--q", "4", "--json"],
        ["orbit", "--p", "3", "--a", "1,2", "--max-steps", "6", "--json"],
        ["obstruction", "--p", "2", "--m", "3", "--json"],
    ):
        assert run(args) == run(args)


def test_usage_error_exit_code(capsys):
    code = main(["census", "--p", "3"])  # missing required flags
    assert code == 2

    code = main(["obstruction"])
    assert code == 2


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("WILDRAM_BUDGET", "4")
    code, _ = run_cli(capsys, "census", "--p", "3", "--m", "1", "--q", "9", "--json")
    assert code == 3
    monkeypatch.delenv("WILDRAM_BUDGET")


def test_census_witness_samples_replay(capsys):
    argv = ["census", "--p", "5", "--m", "2", "--q", "5", "--json"]
    code, first = run_cli(capsys, *argv)
    assert code == 0
    code, second = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(first)["witness_samples"]
    assert json.loads(first) == json.loads(second)


GOOD_F3 = {"field": {"p": 3, "k": 1, "modulus": [0, 1]}, "a": [[2], [1]]}
MALFORMED_MAPS = {
    "truncated": json.dumps(GOOD_F3)[:25],
    "no_field": json.dumps({"a": [[2], [1]]}),
    "no_coeffs": json.dumps({"field": GOOD_F3["field"]}),
    "not_additive": json.dumps({"field": GOOD_F3["field"], "coeffs": [[0], [1], [1]]}),
    "field_not_object": json.dumps({"field": 3, "a": [[2], [1]]}),
    "missing_file": None,
}


@pytest.mark.parametrize("command", ["conjugate", "normal-form"])
@pytest.mark.parametrize("case", sorted(MALFORMED_MAPS))
def test_malformed_map_file_exits_2(capsys, tmp_path, command, case):
    bad = tmp_path / "bad.json"
    if MALFORMED_MAPS[case] is not None:
        bad.write_text(MALFORMED_MAPS[case])
    good = write_map_json(tmp_path, "good.json", GOOD_F3)
    if command == "conjugate":
        argv = ["conjugate", "--first", str(bad), "--second", good]
    else:
        argv = ["normal-form", "--map", str(bad)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("text", ['{"domain": {"kind": "finite', '{"num": [[1]]}'])
def test_malformed_rational_map_file_exits_2(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = main(["pco", "--map", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_failed_certificate_exits_4(capsys, tmp_path, monkeypatch):
    from wildram import moduli

    monkeypatch.setattr(moduli, "add_compose", lambda f, g: f)
    f1 = write_additive_json(tmp_path, "f1.json", 3, 1, [[2], [1]])
    code = main(["conjugate", "--first", f1, "--second", f1])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("internal verification failed") and "Traceback" not in err


# argv -> exit code: malformed numbers are input errors (2), and so are
# flags a subcommand does not have (--seed anywhere, --jobs outside orbit);
# a p whose Q(zeta_p) work exceeds the default budget is refused up front (3)
EXIT_CODE_TABLE = [
    (["orbit", "--p", "3", "--a", "x"], 2),
    (["orbit", "--p", "3", "--a", "1", "--jobs", "0"], 2),
    (["orbit", "--p", "3", "--a", "1", "--jobs", "-3"], 2),
    (["lift", "--p", "3", "--a", "1", "--reduce", "--sbar", "x"], 2),
    (["lift", "--p", "3", "--a", "1", "--dot"], 2),  # --dot draws the orbit: needs --orbit
    (["identities", "--p", "100003"], 3),
    (["lift", "--p", "1009", "--a", "1"], 3),
    (["orbit", "--p", "101", "--a", "1"], 3),
    (["census", "--p", "2", "--m", "1", "--q", "2", "--seed", "1"], 2),
    (["census", "--p", "2", "--m", "2", "--q", "4", "--json", "--jobs", "2"], 2),
    (["census", "--p", "5", "--m", "2", "--q", "5", "--json", "--jobs", "2"], 2),
    (["census", "--p", "2", "--m", "0", "--q", "2"], 2),
    (["census", "--p", "2", "--m", "1", "--q", "1"], 2),  # q = 1 is no field
    (["census", "--p", "1", "--m", "1", "--q", "2"], 2),
    (["WILDRAM_BUDGET=abc", "census", "--p", "3", "--m", "1", "--q", "9"], 2),
    (["WILDRAM_BUDGET=0", "census", "--p", "3", "--m", "1", "--q", "9"], 2),
    (["WILDRAM_BUDGET=-5", "census", "--p", "3", "--m", "1", "--q", "9"], 2),
]


@pytest.mark.parametrize("argv,code", EXIT_CODE_TABLE, ids=[" ".join(a) for a, _ in EXIT_CODE_TABLE])
def test_exit_code_table(capsys, monkeypatch, argv, code):
    # a leading NAME=value item sets that environment variable, as in a shell
    monkeypatch.delenv("WILDRAM_BUDGET", raising=False)
    env = [a.split("=", 1) for a in argv if "=" in a and not a.startswith("-")]
    for name, value in env:
        monkeypatch.setenv(name, value)
    t0 = time.perf_counter()
    assert main(argv[len(env):]) == code
    assert time.perf_counter() - t0 < 2.0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for name, value in env:  # the message names the variable and its bad value
        assert f"{name}={value!r}" in err
    if code == 3:
        assert "(p-1)^4" in err and "65536" in err and "WILDRAM_BUDGET" in err


# the refusals outside Q(zeta_p): each names what it counted, the default
# budget and the variable that raises it
@pytest.mark.parametrize("argv,requested", [
    (["census", "--p", "3", "--m", "3", "--q", "81"], 524880),  # 80 * 81^2 maps
    (["monodromy", "--depth", "17"], 131072),  # |Z_17| = 2^17 for z + z^2 over F_2
], ids=["census", "monodromy"])
def test_budget_refusals_name_the_knob(capsys, monkeypatch, tmp_path, argv, requested):
    monkeypatch.delenv("WILDRAM_BUDGET", raising=False)
    if argv[0] == "monodromy":
        argv = [*argv, "--map", write_additive_json(tmp_path, "f.json", 2, 1, [[1], [1]])]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"= {requested} " in err and "65536" in err and "WILDRAM_BUDGET" in err


def test_locus_limits_are_fixed(capsys, monkeypatch):
    # no budget raises the locus limits: p <= 5 and m + n <= 4
    monkeypatch.setenv("WILDRAM_BUDGET", str(2**40))
    for argv, limit in ((["--p", "7", "--m", "1", "--n", "1"], "limit 5"),
                        (["--p", "3", "--m", "2", "--n", "3"], "limit 4")):
        assert main(["locus", *argv]) == 3
        err = capsys.readouterr().err
        assert limit in err and "WILDRAM_BUDGET does not raise" in err
