import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from monodual import catalog
from monodual.cli import main
from monodual.homdual import duality_to_dict, hom_set, named_duality
from monodual.tables import render_table


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_monoids_catalog_prints_embedded_table_verbatim(capsys):
    code, out, _ = run(capsys, "monoids", "catalog", "--label", "M6")
    assert code == 0
    assert out == render_table("M6", catalog.MONOID_TABLES["M6"]) + "\n"


def test_monoids_catalog_all_labels(capsys):
    code, out, _ = run(capsys, "monoids", "catalog")
    assert code == 0
    for lab in ("M0", "M26", "N1", "N2", "F4-mult"):
        assert render_table(lab, catalog.MONOID_TABLES[lab]) in out


def test_monoids_catalog_json_matches_export(capsys):
    code, out, _ = run(capsys, "monoids", "catalog", "--format", "json")
    assert code == 0
    assert out.strip() == catalog.catalog_to_json().strip()


def test_monoids_catalog_label_json_matches_export(capsys):
    exported = {e["label"]: e for e in json.loads(catalog.catalog_to_json())}
    assert list(exported) == list(catalog.M_LABELS + catalog.N_LABELS + ("F4-mult",))
    for lab, want in exported.items():
        code, out, _ = run(capsys, "monoids", "catalog", "--label", lab, "--format", "json")
        assert code == 0
        assert json.loads(out) == want, lab


def test_monoids_enumerate_order_three(capsys):
    code, out, _ = run(capsys, "monoids", "enumerate", "--order", "3")
    assert code == 0
    assert out.startswith("5 commutative monoid classes of order 3")
    for lab in ("M3", "M4", "M5", "M6", "M7"):
        assert lab in out


def test_monoids_enumerate_json_is_stable(capsys):
    code, first, _ = run(capsys, "monoids", "enumerate", "--order", "4", "--format", "json")
    assert code == 0
    code, second, _ = run(capsys, "monoids", "enumerate", "--order", "4", "--format", "json")
    assert first == second
    data = json.loads(first)
    assert data["count"] == 19


def test_semirings_enumerate(capsys):
    code, out, _ = run(capsys, "semirings", "enumerate", "--additive", "M4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert sorted(c["mult_label"] for c in data["classes"]) == ["M3", "M4", "M4"]


def test_dualities_find_reduced(capsys):
    code, out, _ = run(capsys, "dualities", "find", "--max-order", "4", "--reduce",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["quadruples"] == 110
    assert len(data["classes"]) == 22
    assert sorted(c["matched_name"] for c in data["classes"]) == sorted(catalog.PSI_TABLES)


def test_dualities_find_json_stable_across_runs(capsys):
    code, first, _ = run(capsys, "dualities", "find", "--format", "json")
    code2, second, _ = run(capsys, "dualities", "find", "--format", "json")
    assert code == code2 == 0 and first == second


def test_dual_map_command(tmp_path, capsys):
    psi = named_duality("psi5").transposed()
    homs = [h.values for h in hom_set(psi.s, psi.s).base]
    matrix = [[list(homs[1]), list(homs[0])], [list(homs[2]), list(homs[1])]]
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix))
    code, out, _ = run(capsys, "dual-map", "--psi", "psi5.T", "--sites", "2",
                       "--map", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert len(data["dual_matrix"]) == 2


def test_simulate_pathwise(tmp_path, capsys):
    psi = named_duality("psi2")
    ident = (0, 1)
    rates = [{"id": "flip", "matrix": [[list(ident), list(ident)],
                                       [list(ident), list(ident)]], "rate": 1.0}]
    path = tmp_path / "rates.json"
    path.write_text(json.dumps(rates))
    code, out, _ = run(capsys, "simulate", "--psi", "psi2", "--sites", "2",
                       "--rates", str(path), "--t-max", "5", "--seed", "9",
                       "--check", "pathwise")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True


def test_simulate_pathwise_sampled_coverage(tmp_path, capsys):
    psi = named_duality("psi5").transposed()
    homs = [h.values for h in hom_set(psi.s, psi.s).base]
    rates = [{"id": "m", "matrix": [[list(homs[1]), list(homs[2])],
                                    [list(homs[0]), list(homs[1])]], "rate": 1.0}]
    path = tmp_path / "rates.json"
    path.write_text(json.dumps(rates))
    code, out, _ = run(capsys, "simulate", "--psi", "psi5.T", "--sites", "2",
                       "--rates", str(path), "--t-max", "5", "--seed", "13",
                       "--check", "pathwise", "--coverage", "sampled")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True and data["coverage"] == "sampled"


def test_simulate_expectation(tmp_path, capsys):
    psi = named_duality("psi5").transposed()
    homs = [h.values for h in hom_set(psi.s, psi.s).base]
    rates = [{"id": "m", "matrix": [[list(homs[2]), list(homs[1])],
                                    [list(homs[0]), list(homs[2])]], "rate": 0.8}]
    path = tmp_path / "rates.json"
    path.write_text(json.dumps(rates))
    code, out, _ = run(capsys, "simulate", "--psi", "psi5.T", "--sites", "2",
                       "--rates", str(path), "--t-max", "1", "--seed", "4",
                       "--check", "expectation", "--replicates", "4000",
                       "--x", "1,2", "--y", "1,0")
    assert code == 0
    data = json.loads(out)
    assert data["consistent"] is True
    assert abs(data["lhs"] - data["rhs"]) <= 4 * data["combined_stderr"]


def test_usage_error_exit_codes(capsys):
    code, _, _ = run(capsys, "monoids", "enumerate")  # missing --order
    assert code == 2
    # statistical subcommand without --seed is a usage error: no hidden entropy
    code, _, _ = run(capsys, "simulate", "--psi", "psi2", "--sites", "2",
                     "--rates", "x.json", "--t-max", "1", "--check", "pathwise")
    assert code == 2


def test_computation_error_exit_code(capsys):
    code, _, err = run(capsys, "monoids", "catalog", "--label", "M99")
    assert code == 3
    assert json.loads(err)["error"] == "KeyError"


def test_closed_stdout_exits_zero_quietly():
    """`monodual ... | head -1`: the output (about 200 kB) outgrows the pipe, so
    the write after the reader closes fails; that is no computation error."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "monodual.cli", "monoids", "enumerate", "--order", "6", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_wrong_shaped_matrix_is_a_computation_error(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps([[[0, 1], [0, 1]], [[0, 1], [0, 1]]]))  # 2x2
    code, _, err = run(capsys, "dual-map", "--psi", "psi2", "--sites", "3",
                       "--map", str(path))
    assert code == 3
    assert json.loads(err)["error"] == "ValueError"


def test_expectation_without_configurations_is_usage_error(tmp_path, capsys):
    rates = [{"id": "i", "matrix": [[[0, 1]]], "rate": 1.0}]
    path = tmp_path / "rates.json"
    path.write_text(json.dumps(rates))
    code, _, err = run(capsys, "simulate", "--psi", "psi2", "--sites", "1",
                       "--rates", str(path), "--t-max", "1", "--seed", "1",
                       "--check", "expectation")
    assert code == 2 and "--x" in err


def test_dual_map_accepts_a_duality_file(tmp_path, capsys):
    from monodual.homdual import duality_to_dict

    psi = named_duality("psi4")
    psi_path = tmp_path / "psi.json"
    psi_path.write_text(json.dumps(duality_to_dict(psi)))
    ident = list(range(3))
    matrix = [[ident]]
    map_path = tmp_path / "matrix.json"
    map_path.write_text(json.dumps(matrix))
    code, out, _ = run(capsys, "dual-map", "--psi", str(psi_path), "--sites", "1",
                       "--map", str(map_path))
    assert code == 0
    assert json.loads(out)["dual_matrix"] == [[ident]]


def test_a_duality_file_whose_path_ends_in_the_transpose_selector_is_read_as_a_file(tmp_path, capsys):
    psi_path = tmp_path / "psi4.T"
    psi_path.write_text(json.dumps(duality_to_dict(named_duality("psi4"))))
    map_path = tmp_path / "matrix.json"
    map_path.write_text(json.dumps([[[0, 1, 2]]]))
    code, out, _ = run(capsys, "dual-map", "--psi", str(psi_path), "--sites", "1",
                       "--map", str(map_path))
    assert code == 0
    assert json.loads(out)["dual_matrix"] == [[[0, 1, 2]]]
    code, _, err = run(capsys, "dual-map", "--psi", str(tmp_path / "psi99.T"), "--sites", "1",
                       "--map", str(map_path))
    assert code == 3 and "psi99.T" in err


GOLDEN_DIR = Path(__file__).parent / "golden"
_SIMULATE_PATHWISE = ("simulate", "--psi", "psi5.T", "--sites", "2",
                      "--rates", str(GOLDEN_DIR / "simulate_rates.json"),
                      "--t-max", "10", "--seed", "7", "--check", "pathwise")
GOLDEN = {
    "catalog_M6.txt": ("monoids", "catalog", "--label", "M6"),
    "catalog_N1.txt": ("monoids", "catalog", "--label", "N1"),
    "reduced_classes.json": ("dualities", "find", "--reduce", "--format", "json"),
    "enumerate_order3.json": ("monoids", "enumerate", "--order", "3", "--format", "json"),
    "dualities_find.json": ("dualities", "find", "--format", "json"),
    "enumerate_order5.json": ("monoids", "enumerate", "--order", "5", "--format", "json"),
    "semirings_M15.json": ("semirings", "enumerate", "--additive", "M15", "--format", "json"),
    "reproduce.json": ("reproduce", "--format", "json"),
    "simulate_pathwise.json": _SIMULATE_PATHWISE,
    "simulate_pathwise_sampled.json": (*_SIMULATE_PATHWISE, "--coverage", "sampled"),
}


def test_golden_outputs(capsys):
    for name, argv in GOLDEN.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN_DIR / name).read_text(), name


@pytest.mark.slow
def test_simulate_near_the_jump_budget_matches_its_golden_output(capsys):
    # 2.3 * 4.2e5 expected jumps, just under the default budget of 10^6: 966 352 events
    code, out, _ = run(capsys, "simulate", "--psi", "psi5.T", "--sites", "2",
                       "--rates", str(GOLDEN_DIR / "simulate_rates.json"),
                       "--t-max", "4.2e5", "--seed", "7", "--check", "pathwise")
    assert code == 0
    assert out == (GOLDEN_DIR / "simulate_pathwise_long.json").read_text()


def test_expectation_from_samples_without_spread_is_judged_by_their_range(capsys):
    # one or two paths per side: lhs = -1 and rhs = 1 with zero sample spread on both sides
    for seed, replicates in (("2", "1"), ("4", "1"), ("2", "2")):
        code, out, _ = run(capsys, "simulate", "--psi", "psi5.T", "--sites", "2",
                           "--rates", str(GOLDEN_DIR / "simulate_rates.json"), "--check", "expectation",
                           "--x", "1,2", "--y", "1,0", "--t-max", "1", "--seed", seed,
                           "--replicates", replicates)
        data = json.loads(out)
        assert code == 0 and data["consistent"] is True, (seed, replicates)
        assert (data["lhs"], data["rhs"]) == (-1.0, 1.0)
        assert data["lhs_stderr"] == data["rhs_stderr"] == data["combined_stderr"] == 0.0


def _expectation_args(tmp_path, *extra):
    psi = named_duality("psi5").transposed()
    homs = [h.values for h in hom_set(psi.s, psi.s).base]
    rates = [{"id": "m", "matrix": [[list(homs[2]), list(homs[1])],
                                    [list(homs[0]), list(homs[2])]], "rate": 0.8}]
    path = tmp_path / "rates.json"
    path.write_text(json.dumps(rates))
    return ["simulate", "--psi", "psi5.T", "--sites", "2", "--rates", str(path),
            "--t-max", "1", "--seed", "4", "--check", "expectation", *extra]


def test_expectation_past_the_run_budget_exits_3_before_drawing(tmp_path, capsys):
    # 10^5 replicates of 0.8 * 25 = 20 expected jumps: 2 * 10^6 jumps, twice the budget
    argv = _expectation_args(tmp_path, "--replicates", "100000", "--x", "1,2", "--y", "1,0")
    argv[argv.index("--t-max") + 1] = "25"
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and time.perf_counter() - start < 1.0
    assert json.loads(err)["error"] == "SizeBudgetExceeded"


def test_simulate_rejects_malformed_start_configurations(tmp_path, capsys):
    for x, y in [("1", "1,0"), ("1,2,9", "1,0"), ("1,a", "1,0"), ("1,2", "1,3"), ("1,2", "-1,0")]:
        code, out, err = run(capsys, *_expectation_args(tmp_path, "--replicates", "10",
                                                         f"--x={x}", f"--y={y}"))
        assert code == 2 and out == "", (x, y)
        assert "usage error" in err


def test_simulate_without_a_start_configuration_is_a_usage_error(tmp_path, capsys):
    # argparse reads the value "--" of --x=-- as an empty list
    for extra in (["--x=--", "--y=1,0"], ["--x=1,2", "--y=--"], ["--y=1,0"]):
        code, out, err = run(capsys, *_expectation_args(tmp_path, "--replicates", "10", *extra))
        assert code == 2 and out == "", extra
        assert "usage error" in err


def test_replicates_below_one_is_usage_error(tmp_path, capsys):
    code, out, _ = run(capsys, *_expectation_args(tmp_path, "--replicates", "0",
                                                  "--x", "1,2", "--y", "1,0"))
    assert code == 2 and out == ""
    code, out, _ = run(capsys, "reproduce", "--replicates", "0")
    assert code == 2 and out == ""


def test_out_of_range_orders_are_usage_errors(capsys):
    for argv in (["monoids", "enumerate", "--order", "0"],
                 ["monoids", "enumerate", "--order", "9"],
                 ["dualities", "find", "--max-order", "1"],
                 ["dualities", "find", "--max-order", "9"]):
        code, out, _ = run(capsys, *argv)
        assert code == 2 and out == "", argv


def test_non_finite_or_negative_t_max_is_usage_error(tmp_path, capsys):
    for t_max in ("-1", "nan", "inf", "-inf"):
        for check in ("expectation", "pathwise"):
            argv = _expectation_args(tmp_path, "--replicates", "10", "--x", "1,2", "--y", "1,0")
            argv[argv.index("--t-max") + 1] = t_max
            argv[argv.index("--check") + 1] = check
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", (t_max, check)
            assert "--t-max" in err


def _psi5_rates_file(tmp_path, sites: int) -> str:
    psi = named_duality("psi5").transposed()
    homs = [h.values for h in hom_set(psi.s, psi.s).base]
    matrix = [[list(homs[(i + j) % 3]) for j in range(sites)] for i in range(sites)]
    path = tmp_path / f"rates{sites}.json"
    path.write_text(json.dumps([{"id": "m", "matrix": matrix, "rate": 0.8}]))
    return str(path)


def _config_text(sites: int):
    """Comma-separated configurations: half valid for psi5.T on `sites` sites, half not."""
    valid = st.lists(st.integers(0, 2), min_size=sites, max_size=sites)
    malformed = st.one_of(
        st.lists(st.integers(-1, 3), max_size=3).map(lambda v: ",".join(map(str, v))),
        st.text(alphabet="0123,a -.", max_size=6),
    )
    return st.one_of(valid.map(lambda v: ",".join(map(str, v))), malformed)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _is_config(text: str, sites: int) -> bool:
    """Whether the CLI reads text as a configuration of psi5.T on `sites` sites."""
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        return False
    return len(values) == sites and all(0 <= v <= 2 for v in values)


# finite times whose expected jump count (rate 0.8) is far past the default budget
HUGE_T_MAX = [1e9, 1e300]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    check=st.sampled_from(["expectation", "pathwise"]),
    sites=st.integers(1, 2),
    t_max=st.one_of(st.floats(-5.0, 20.0), st.sampled_from([math.nan, math.inf, -math.inf]),
                    st.sampled_from(HUGE_T_MAX)),
    replicates=st.integers(1, 50),
    seed=st.integers(0, 2 ** 32),
    data=st.data(),
)
def test_simulate_fuzz_exit_codes_and_json(tmp_path, check, sites, t_max, replicates, seed, data):
    x = data.draw(_config_text(sites), label="x")
    y = data.draw(_config_text(sites), label="y")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["simulate", "--psi", "psi5.T", "--sites", str(sites),
                     "--rates", _psi5_rates_file(tmp_path, sites), f"--t-max={t_max!r}",
                     "--seed", str(seed), "--check", check, "--replicates", str(replicates),
                     f"--x={x}", f"--y={y}"])
    elapsed = time.perf_counter() - start
    assert code in (0, 2, 3, 4)
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    if t_max in HUGE_T_MAX and (check == "pathwise" or _is_config(x, sites) and _is_config(y, sites)):
        assert code == 3 and out.getvalue() == "" and elapsed < 1.0
        error = json.loads(err.getvalue(), parse_constant=_reject_constant)
        assert error["error"] == "SizeBudgetExceeded"


def test_pathwise_seeds_below_one_is_usage_error(capsys):
    for seeds in ("0", "-3"):
        code, out, err = run(capsys, "reproduce", "--pathwise-seeds", seeds)
        assert code == 2 and out == "" and "--pathwise-seeds" in err, seeds


def test_negative_seed_is_usage_error(tmp_path, capsys):
    argv = _expectation_args(tmp_path, "--replicates", "10", "--x", "1,2", "--y", "1,0")
    for check in ("pathwise", "expectation"):
        argv[argv.index("--check") + 1] = check
        argv[argv.index("--seed") + 1] = "-1"
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "--seed" in err, check
    argv[argv.index("--check") + 1] = "pathwise"
    argv[argv.index("--seed") + 1] = "0"
    assert run(capsys, *argv)[0] == 0


def test_negative_sites_is_usage_error(tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    matrix.write_text("[]")
    code, out, err = run(capsys, "dual-map", "--psi", "psi2", "--sites", "-1", "--map", str(matrix))
    assert code == 2 and out == "" and "--sites" in err
    argv = _expectation_args(tmp_path, "--replicates", "10", "--x", "1,2", "--y", "1,0")
    argv[argv.index("--sites") + 1] = "-1"
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "--sites" in err


def test_dual_map_past_int64_indices_exits_3_naming_the_count(tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    matrix.write_text("[]")
    for psi, sites, count in [("psi5.T", "40", "3^40"), ("psi2", "64", "2^64")]:
        start = time.perf_counter()
        code, out, err = run(capsys, "dual-map", "--psi", psi, "--sites", sites, "--map", str(matrix))
        assert code == 3 and out == "" and time.perf_counter() - start < 1.0
        error = json.loads(err)
        assert error["error"] == "SizeBudgetExceeded" and f"{count} configurations" in error["message"]


_PSI5T = duality_to_dict(named_duality("psi5").transposed())
MALFORMED_INPUTS = {
    "map-entry-not-a-list": ("--map", [[1]]),
    "map-entry-too-short": ("--map", [[[0, 1]]]),
    "map-entry-out-of-range": ("--map", [[[0, 1, 7]]]),
    "map-entry-boolean": ("--map", [[[False, True, 2]]]),
    "rates-not-a-list": ("--rates", {"id": "m", "matrix": [[[0, 1, 2]]], "rate": 1.0}),
    "rate-not-a-number": ("--rates", [{"id": "m", "matrix": [[[0, 1, 2]]], "rate": [1.0]}]),
    "rate-too-large-for-a-float": ("--rates", [{"id": "m", "matrix": [[[0, 1, 2]]], "rate": 10 ** 400}]),
    "rate-a-string": ("--rates", [{"id": "m", "matrix": [[[0, 1, 2]]], "rate": "1"}]),
    "rate-boolean": ("--rates", [{"id": "m", "matrix": [[[0, 1, 2]]], "rate": True}]),
    "rate-missing": ("--rates", [{"id": "m", "matrix": [[[0, 1, 2]]]}]),
    "rates-entry-without-matrix": ("--rates", [{"id": "m", "rate": 1.0}]),
    "rates-repeated-id": ("--rates", [{"id": "m", "matrix": [[[0, 1, 2]]], "rate": 1.0},
                                      {"id": "m", "matrix": [[[0, 1, 2]]], "rate": 100.0}]),
    "psi-not-an-object": ("--psi", [[0, 1], [1, 0]]),
    "psi-values-not-a-table": ("--psi", {"s": {"table": [[0]]}, "r": {"table": [[0]]},
                                          "t": {"table": [[0]]}, "values": 5}),
    "psi-value-boolean": ("--psi", {**_PSI5T, "values": [[False, 0, 0], [0, 1, 2], [0, 0, 2]]}),
    "psi-neutral-boolean": ("--psi", {**_PSI5T, "s": {**_PSI5T["s"], "neutral": False}}),
}


@pytest.mark.parametrize("flag, content", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_input_files_are_computation_errors(tmp_path, capsys, flag, content):
    files = {"--psi": "psi5.T", "--map": [[[0, 1, 2]]],
             "--rates": [{"id": "m", "matrix": [[[0, 1, 2]]], "rate": 1.0}]}
    for name in ("--map", "--rates"):
        path = tmp_path / f"{name[2:]}.json"
        path.write_text(json.dumps(files[name]))
        files[name] = str(path)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    files[flag] = str(path)
    argv = (["dual-map", "--map", files["--map"]] if flag != "--rates" else
            ["simulate", "--rates", files["--rates"], "--t-max", "1", "--seed", "1",
             "--check", "pathwise"])
    code, out, err = run(capsys, *argv, "--psi", files["--psi"], "--sites", "1")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] in ("ValueError", "DualityError")


@pytest.mark.parametrize("budget", ["abc", "1e6", "0", "-5"])
def test_a_pair_budget_that_is_no_positive_integer_is_named(capsys, monkeypatch, budget):
    monkeypatch.setenv("MONODUAL_PAIR_BUDGET", budget)
    code, out, err = run(capsys, "dualities", "find", "--max-order", "3")
    assert code == 3 and out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "message": f"MONODUAL_PAIR_BUDGET must be a positive integer, got {budget!r}",
    }
