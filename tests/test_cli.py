"""CLI harness tests: exit codes, reproducibility, config precedence."""

import ast
import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from spinsphere import cli
from spinsphere.cli import main, parse_config_file, resolve_config, build_parser
from spinsphere.collapse import CollapseTimeoutError, capture_law
from spinsphere.lens import LensSearchError
from spinsphere.reports import write_csv


def run_cli(args):
    return main(args)


def read_bytes_map(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_every_experiment_passes(tmp_path):
    fast = {
        "evolve": [],
        "bloch": [],
        "curvature": [],
        "uncertainty": ["--states", "2000"],
        "born": ["--trials", "3000"],
        "markov": ["--trials", "3000"],
        "lens": [],
        "epr": ["--trials", "3000"],
        "e2-split": ["--trials", "3000"],
    }
    for name, extra in fast.items():
        out = tmp_path / name
        code = run_cli([name, "--out", str(out), *extra])
        assert code == 0, name
        stem = name.replace("-", "_")
        # One CSV at most; born writes its own only with --outcomes-csv.
        csv = [] if name in ("uncertainty", "born", "epr") else [f"{stem}_0.csv"]
        assert sorted(p.name for p in out.iterdir()) == [*csv, f"{stem}_report.json"], name
        report = json.loads((out / f"{stem}_report.json").read_text())
        assert report["pass"] is True
        assert report["experiment"] == name
        assert report["config"]["seed"] == 42  # echo of resolved config


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value line\n")
    code = run_cli(["born", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    missing = run_cli(["born", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert missing == 2
    unknown_key = tmp_path / "unk.cfg"
    unknown_key.write_text("flux_capacitor=88\n")
    assert run_cli(["born", "--config", str(unknown_key), "--out", str(tmp_path)]) == 2


def test_invalid_value_exits_2(tmp_path):
    assert run_cli(["born", "--c1sq", "1.5", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "argv, config",
    [
        (["born", "--trials", "0"], None),
        (["epr", "--trials", "0"], None),
        (["markov", "--trials", "0"], None),
        (["evolve", "--dt", "0"], None),
        (["curvature", "--planes", "-1"], None),
        (["uncertainty", "--states", "0"], None),
        (["born"], "trials=2.5\n"),
        (["born"], "c1sq=abc\n"),
        (["born", "--trials", "abc"], None),
        (["warp-drive"], None),
        (["evolve", "--t-final", "inf"], None),
        (["lens", "--span", "inf"], None),
        (["lens", "--displacement", "inf"], None),
        (["e2-split", "--hbar", "inf"], None),
        (["uncertainty", "--mu", "inf"], None),
        (["bloch", "--bx", "nan"], None),
        (["evolve"], "t_final=inf\n"),
        (["lens"], "span=inf\n"),
        (["lens"], "displacement=-inf\n"),
        (["e2-split"], "hbar=inf\n"),
        (["uncertainty"], "mu=inf\n"),
        (["bloch"], "bx=nan\n"),
        (["lens", "--span", "-0.5", "--displacement", "0"], None),
        (["lens"], "span=0\n"),
        (["evolve", "--mu", "-1000"], None),
        (["evolve", "--t-final", "1e308"], None),
        (["bloch", "--t-final", "1e308"], None),
        (["e2-split", "--t-final", "1e308"], None),
        (["e2-split", "--b0", "1e-320"], None),
        (["lens", "--span", "1e308"], None),
        (["lens", "--displacement", "1e308"], None),
        (["e2-split", "--b0", "1e-300", "--mu", "1e-300", "--trials", "2000"], None),
        (["e2-split", "--b0", "1e-300", "--mu", "1e-300", "--t-final", "1"], None),
        (["e2-split", "--b0", "1e300", "--mu", "1e10"], None),
        (["evolve", "--bz", "1e200"], None),
        (["bloch", "--bx", "1e300", "--by", "1e300"], None),
        (["e2-split", "--b0", "1e200", "--trials", "2000"], None),
        (["evolve", "--bz", "1e-300", "--mu", "1e-300"], None),
        # About 1e12 steps or more: the result array cannot be allocated.
        (["evolve", "--dt", "1e-12"], None),
        (["bloch", "--dt", "1e-12"], None),
        (["e2-split", "--t-final", "1e9", "--trials", "100"], None),
        (["lens", "--span", "1e12"], None),
        # Over the bound of 1e7 integration steps, whatever the machine's memory.
        (["evolve", "--dt", "1e-8"], None),
        (["bloch", "--dt", "1e-8"], None),
        (["e2-split", "--t-final", "1e5", "--trials", "100"], None),
        (["lens", "--span", "1e5"], None),
        # Over the count budget of 1e7 items: refused before anything is allocated.
        (["born", "--trials", "1000000000"], None),
        (["uncertainty", "--states", "1000000000"], None),
        (["markov", "--delta-grid", "30000"], None),
    ],
    ids=["born-trials", "epr-trials", "markov-trials", "evolve-dt", "curvature-planes",
         "uncertainty-states", "config-trials", "config-c1sq", "flag-type",
         "unknown-experiment", "evolve-t-final-inf", "lens-span-inf",
         "lens-displacement-inf", "e2-split-hbar-inf", "uncertainty-mu-inf",
         "bloch-bx-nan", "config-t-final-inf", "config-span-inf",
         "config-displacement-neg-inf", "config-hbar-inf", "config-mu-inf",
         "config-bx-nan", "lens-span-negative", "config-span-zero",
         "evolve-mu-negative-step-guard", "evolve-t-final-overflow",
         "bloch-t-final-overflow", "e2-split-t-final-overflow", "e2-split-b0-overflow",
         "lens-span-overflow", "lens-displacement-overflow", "e2-split-mu-b0-underflow",
         "e2-split-mu-b0-underflow-t-final", "e2-split-quarter-turn-underflow",
         "evolve-b-square-overflow", "bloch-b-square-overflow", "e2-split-b-square-overflow",
         "evolve-omega-underflow", "evolve-dt-step-count", "bloch-dt-step-count",
         "e2-split-t-final-step-count", "lens-span-step-count", "evolve-dt-step-bound",
         "bloch-dt-step-bound", "e2-split-t-final-step-bound", "lens-span-step-bound",
         "born-trials-budget", "uncertainty-states-budget", "markov-delta-grid-budget"],
)
def test_bad_input_is_one_line_exit_2(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "bad.cfg"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    assert run_cli([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, error",
    [
        (["e2-split", "--b0", "1e-300", "--mu", "1e-300", "--t-final", "1"],
         "mu*b0 = 1e-300*1e-300 underflows to 0"),
        (["e2-split", "--b0", "1e300", "--mu", "1e10"],
         "the quarter turn (pi/4) hbar/|mu b0| underflows to 0 at mu*b0 = inf; set --t-final"),
        # |B|^2 overflows, |B| does not: the step guard sees the true omega.
        (["evolve", "--bz", "1e200"], "dt*|omega| = 1e+197 exceeds the 0.1 accuracy guard"),
        (["bloch", "--bx", "1e300", "--by", "1e300"],
         "dt*|omega| = 1.41e+297 exceeds the 0.1 accuracy guard"),
        (["evolve", "--bz", "1e-300", "--mu", "1e-300"], "omega = mu |B| / hbar underflows to 0"),
    ],
    ids=["e2-split-mu-b0-underflow", "e2-split-quarter-turn-underflow",
         "evolve-b-square-overflow", "bloch-b-square-overflow", "evolve-omega-underflow"],
)
def test_extreme_fields_name_the_cause(tmp_path, capsys, argv, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_tiny_and_huge_fields_with_a_finite_omega_run(tmp_path):
    # |B|^2 underflows or overflows, mu |B| does not.
    for argv in (["--bz", "1e-300"], ["--bz", "1e200", "--mu", "1e-200"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["evolve", *argv, "--out", str(tmp_path)]) == 0


def test_unwritable_out_is_one_line_exit_2(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run_cli(["curvature", "--out", str(blocker / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err

    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    # The report is written after the experiment ran.
    monkeypatch.setattr(cli, "write_json_report", full_disk)
    assert run_cli(["curvature", "--planes", "0", "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


@pytest.mark.parametrize(
    "experiment, target, error",
    [
        ("born", "run_collapse_batch", CollapseTimeoutError("1 of 1 trials exceeded 9 steps")),
        ("lens", "design_lens", LensSearchError("no (A, w) reached miss < 1e-3")),
    ],
)
def test_non_convergence_exits_3(tmp_path, capsys, monkeypatch, experiment, target, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, target, fail)
    assert run_cli([experiment, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == f"did not converge: {error}\n"


def test_unreachable_lens_target_exits_3(tmp_path, capsys):
    # No bump of the family bends the ray 1 across within a span of 0.2.
    assert run_cli(["lens", "--span", "0.2", "--displacement", "1",
                    "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "did not converge: no (A, w) in the family reached miss < 0.001; "
        "best miss 1.411e-01\n")
    assert not (tmp_path / "out").exists()


def test_lens_target_on_the_start_names_span_and_displacement(tmp_path, capsys):
    # span and displacement are the lens inputs a user sets; the launch is fixed.
    assert run_cli(["lens", "--span", "1e-9", "--displacement", "0",
                    "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: span and displacement put the lens target on the ray's start (0.0, 0.0)\n")


def test_out_of_memory_is_one_line_exit_2(tmp_path, capsys, monkeypatch):
    # What `born --trials 100000000000` raises; nothing is allocated here.
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape "
                          "(100000000000,) and data type int64")

    monkeypatch.setattr(cli, "run_collapse_batch", no_memory)
    assert run_cli(["born", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: born: out of memory (Unable to allocate 745. GiB for an array "
        "with shape (100000000000,) and data type int64)\n")
    assert not (tmp_path / "born_report.json").exists()


@pytest.mark.parametrize(
    "argv, p_any_zero",
    [
        (["born", "--region-width", "1e-17", "--trials", "2000"], False),
        (["epr", "--region-width", "1e-17"], False),
        # The terminal state (1, -1)/sqrt(2) has no grid point in this box.
        (["e2-split", "--mu", "-1", "--region-width", "1e-17", "--trials", "1"], True),
    ],
)
def test_hopeless_collapse_runs_exit_2_before_the_batch(tmp_path, capsys, monkeypatch,
                                                         argv, p_any_zero):
    # A theta box of 1e-17 holds at most one grid point per source, so
    # p_any <= 2^-56 and a trial outlasts 10^6 steps almost surely.
    def never(*args, **kwargs):
        raise AssertionError("the batch ran")

    laws, timeout_chance = [], cli.timeout_chance

    def record(phi, region, n_trials):
        laws.append(capture_law(phi, region))
        return timeout_chance(phi, region, n_trials)

    monkeypatch.setattr(cli, "run_collapse_batch", never)
    monkeypatch.setattr(cli, "run_epr_batch", never)
    monkeypatch.setattr(cli, "timeout_chance", record)
    assert run_cli([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: in this capture region a batch of ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    assert len(laws) == 1 and (laws[0] == (0, 0)) == p_any_zero


@pytest.mark.parametrize("chance, code", [(0.5, 2), (math.nextafter(0.5, 0.0), 0)])
def test_runs_are_refused_from_a_timeout_chance_of_one_half(tmp_path, monkeypatch,
                                                             chance, code):
    monkeypatch.setattr(cli, "timeout_chance", lambda *args: chance)
    assert run_cli(["born", "--trials", "1000", "--out", str(tmp_path)]) == code


def test_oversized_planes_fails_fast(tmp_path, capsys):
    # All planes are drawn as one (planes, 2, 3) array; the count budget
    # refuses 1e13 planes (437 TiB of draws) before anything is allocated.
    assert run_cli(["curvature", "--planes", "10000000000000",
                    "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: planes must lie in [0, 1e+07], got 10000000000000\n"
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "error, code, message",
    [
        (MemoryError(), 2, "error: born: out of memory\n"),
        (CollapseTimeoutError("1 of 1 trials exceeded 9 steps"), 3,
         "did not converge: 1 of 1 trials exceeded 9 steps\n"),
    ],
    ids=["out-of-memory", "timeout"],
)
@pytest.mark.parametrize("existed", [False, True], ids=["fresh", "existing"])
def test_failed_run_removes_only_the_out_it_made(tmp_path, capsys, monkeypatch,
                                                  error, code, message, existed):
    def fail(*args, **kwargs):
        raise error

    out = tmp_path / "parent" / "out"
    if existed:
        out.mkdir(parents=True)
    monkeypatch.setattr(cli, "run_collapse_batch", fail)
    assert run_cli(["born", "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message
    # The parent directory made for a fresh --out goes too.
    assert out.exists() == existed and (tmp_path / "parent").exists() == existed
    if existed:
        assert list(out.iterdir()) == []


def test_evolve_ends_at_t_final(tmp_path):
    # t_final < 4 dt: four steps of t_final / 4, not four steps of dt.
    assert run_cli(["evolve", "--t-final", "0.001", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "evolve_0.csv").read_text().splitlines()
    assert len(rows) == 1 + 5
    assert float(rows[-1].split(",")[0]) == 0.001


def test_threshold_failure_exits_1(tmp_path):
    # Wrong evolution time: terminal state misses the equal superposition.
    code = run_cli(
        ["e2-split", "--t-final", "0.3", "--trials", "2000", "--out", str(tmp_path)]
    )
    assert code == 1
    report = json.loads((tmp_path / "e2_split_report.json").read_text())
    assert report["pass"] is False
    assert report["checks"]["terminal_state"] is False


@pytest.mark.parametrize("flag", ["--mu", "--b0"])
def test_e2_split_passes_with_negative_mu_b0(tmp_path, flag):
    # With mu b0 < 0 the quarter turn (pi/4) hbar/|mu b0| ends at (1, -1)/sqrt(2).
    assert run_cli(["e2-split", flag, "-1", "--trials", "2000", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "e2_split_report.json").read_text())
    assert report["config"]["t_final"] == pytest.approx(np.pi / 4)
    assert report["metrics"]["terminal_state_error"] < 1e-10


def test_reruns_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["born", "--c1sq", "0.75", "--trials", "4000", "--seed", "7",
            "--outcomes-csv"]
    assert run_cli([*args, "--out", str(out_a)]) == 0
    assert run_cli([*args, "--out", str(out_b)]) == 0
    assert read_bytes_map(out_a) == read_bytes_map(out_b)
    m_a, m_b = tmp_path / "ma", tmp_path / "mb"
    for out in (m_a, m_b):
        assert run_cli(["markov", "--trials", "2000", "--out", str(out)]) == 0
    assert read_bytes_map(m_a) == read_bytes_map(m_b)


def test_born_outcomes_csv_golden(tmp_path):
    # Per-trial outcomes and step counts are integers: the same on every machine.
    assert run_cli(["born", "--trials", "3000", "--outcomes-csv", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["born_0.csv", "born_report.json"]
    digest = hashlib.sha256((tmp_path / "born_0.csv").read_bytes()).hexdigest()
    assert digest == "18aa86d02533caeed6c73f58178c745a3a73c4045c811907dad82f20af521a98"


def test_seed_changes_output(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli(["born", "--trials", "4000", "--seed", "1", "--out", str(out_a)])
    run_cli(["born", "--trials", "4000", "--seed", "2", "--out", str(out_b)])
    a = json.loads((out_a / "born_report.json").read_text())
    b = json.loads((out_b / "born_report.json").read_text())
    assert a["metrics"]["per_eigenstate_counts"] != b["metrics"]["per_eigenstate_counts"]


def test_config_file_and_override_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nc1sq = 0.25\ntrials = 3000\nseed = 9\n")
    values = parse_config_file(str(cfg))
    assert values == {"c1sq": 0.25, "trials": 3000, "seed": 9}
    parser = build_parser()
    args = parser.parse_args(
        ["born", "--config", str(cfg), "--c1sq", "0.75", "--out", str(tmp_path)]
    )
    resolved = resolve_config(args)
    assert resolved["c1sq"] == 0.75  # flag wins
    assert resolved["trials"] == 3000  # file wins over default
    assert resolved["seed"] == 9
    # Flags and config files cast alike: an integer literal for a float
    # key echoes as a float either way.
    lens_cfg = tmp_path / "lens.cfg"
    lens_cfg.write_text("span=1\ndisplacement=0.05\n")
    by_flag, by_file = tmp_path / "lens_flag", tmp_path / "lens_file"
    argv = ["lens", "--span", "1", "--displacement", "0.05"]
    assert run_cli([*argv, "--out", str(by_flag)]) == 0
    assert run_cli(["lens", "--config", str(lens_cfg), "--out", str(by_file)]) == 0
    assert read_bytes_map(by_flag) == read_bytes_map(by_file)
    assert '"span": 1.0,' in (by_file / "lens_report.json").read_text()


def test_report_embeds_rerunnable_config(tmp_path):
    assert run_cli(["born", "--trials", "2500", "--seed", "3", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "born_report.json").read_text())
    cfg = report["config"]
    rerun = tmp_path / "rerun"
    code = run_cli(
        [
            "born",
            "--trials", str(cfg["trials"]),
            "--seed", str(cfg["seed"]),
            "--c1sq", str(cfg["c1sq"]),
            "--out", str(rerun),
        ]
    )
    assert code == 0
    again = json.loads((rerun / "born_report.json").read_text())
    assert again["metrics"] == report["metrics"]


def test_empty_csv_has_header_only(tmp_path):
    target = tmp_path / "empty.csv"
    write_csv(target, ["t", "x"], [])
    assert target.read_bytes() == b"t,x\r\n"


def test_csv_cells_of_numpy_and_python_scalars(tmp_path):
    target = tmp_path / "cells.csv"
    write_csv(target, ["a", "b", "c", "d", "e"],
              [[np.float64(0.1), 0.1, np.int64(3), 7, ""],
               [np.float64(1e-300), 2.0 / 3.0, np.float32(0.5), -1, None]])
    assert target.read_bytes() == (b"a,b,c,d,e\r\n0.1,0.1,3,7,\r\n"
                                   b"1e-300,0.6666666666666666,0.5,-1,\r\n")


def test_json_keys_sorted(tmp_path):
    assert run_cli(["curvature", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "curvature_report.json").read_text()
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)


def test_markov_walk_frequencies_pinned(tmp_path):
    # Absorption counts of the 20,000 walks per start at seed 42.  These are
    # exact count/n values, so any change to the walk engine or its streams
    # shows here; exact_u is left out (its last bits depend on LAPACK).
    assert run_cli(["markov", "--trials", "20000", "--seed", "42",
                    "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "markov_report.json").read_text())
    counts = [18720, 14924, 9973, 5012, 1404]
    expected = [c / 20_000 for c in counts]
    assert report["metrics"]["walk_starts"] == [10, 20, 30, 40, 50]
    assert report["metrics"]["mc_frequencies"] == expected
    lines = (tmp_path / "markov_0.csv").read_text().splitlines()
    column = [line.split(",")[2] for line in lines[1:]]
    assert [cell for cell in column if cell] == [repr(f) for f in expected]
    assert [i for i, cell in enumerate(column) if cell] == [10, 20, 30, 40, 50]


# ---------------------------------------------------------------------------
# Library surface
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "spinsphere"
BENCH = SRC.parents[1] / "bench"


def _package_imports(tree):
    """{local name: (module, name)} and {local alias: module} of the
    spinsphere imports of a module."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.startswith("spinsphere")):
            source = (node.module or "").removeprefix("spinsphere").lstrip(".")
            for alias in node.names:
                local = alias.asname or alias.name
                if source:
                    names[local] = (source, alias.name)
                else:
                    modules[local] = alias.name
    return names, modules


def _split_class(cls):
    """The members of a class looked up by name (methods and class
    attributes, not dunders), and the rest of its body."""
    members, rest = {}, [*cls.decorator_list, *cls.bases]
    for node in cls.body:
        name = (node.name if isinstance(node, ast.FunctionDef) else
                node.targets[0].id if isinstance(node, ast.Assign)
                and isinstance(node.targets[0], ast.Name) else "__")
        if name.startswith("__"):
            rest.append(node)
        else:
            members[name] = node
    return members, rest


def unreachable_definitions():
    """(module, name) of each top-level definition and class member
    ("Class.member") of the package that neither the CLI entry point
    cli.main nor bench/*.py reaches.

    Code uses a bare name of its module or of its imports, an attribute of
    a module alias or a "module.name" string (bench/tracing.py wraps the
    functions it names so), and, for any other attribute name, every class
    member of that name; a member is reached once its class is too.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    body = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                members, body[(module, node.name)] = _split_class(node)
                for name, member in members.items():
                    body[(module, f"{node.name}.{name}")] = [member]
            elif isinstance(node, ast.FunctionDef):
                body[(module, node.name)] = [node]
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            body[(module, name.id)] = [node.value]
    members = {}
    for module, name in body:
        if "." in name:
            members.setdefault(name.split(".")[1], set()).add((module, name))

    def uses(nodes, module, imports):
        names, modules = imports
        found = set()
        for node in (sub for top in nodes for sub in ast.walk(top)):
            if isinstance(node, ast.Name):
                found.add((module, node.id) if (module, node.id) in body
                          else names.get(node.id))
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    found.add((modules[node.value.id], node.attr))
                found |= members.get(node.attr, set())
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.count(".") == 1:
                found.add(tuple(node.value.split(".")))
        return found & body.keys()

    imports = {module: _package_imports(tree) for module, tree in trees.items()}
    edges = {key: uses(nodes, key[0], imports[key[0]]) for key, nodes in body.items()}
    todo = [("cli", "main")]
    for path in BENCH.glob("*.py"):
        names, modules = _package_imports(tree := ast.parse(path.read_text()))
        # tracing.py imports every module as spinsphere.<module>.
        todo += uses([tree], None, (names, {**{m: m for m in trees}, **modules}))
    reached, waiting = set(), set()
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        if "." in key[1] and (key[0], key[1].split(".")[0]) not in reached:
            waiting.add(key)
            continue
        reached.add(key)
        todo += edges[key]
        todo += [m for m in waiting - reached if (m[0], m[1].split(".")[0]) == key]
    return sorted(body.keys() - reached)


def test_every_library_definition_is_reachable_from_the_cli_or_bench():
    # A name that only tests call belongs in the test that uses it.
    assert unreachable_definitions() == []
