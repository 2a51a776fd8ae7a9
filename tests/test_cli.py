"""Command line behavior: exit codes, outputs, overrides and deterministic files."""

import _ctypes
import contextlib
import ctypes
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from optbasis import cli, experiments, linalg, obf
from optbasis.basis import defining_relation_errors
from optbasis.cli import build_parser, main
from optbasis.config import config_from_dict

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path, name="case.json", *, family="elliptic", m=6, p=1,
                 rank=8, oversample=6, power=2, seed=0, **extra):
    raw = {
        "problem": {"family": family},
        "grid": {"m_intervals": m},
        "weights": {"p": p},
        "rsvd": {"rank": rank, "oversample": oversample, "power": power, "seed": seed},
    }
    for section, content in extra.items():
        raw.setdefault(section, {}).update(content)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args([])
        assert err.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["--help"])
        assert err.value.code == 0
        assert "assemble-check" in capsys.readouterr().out


class TestAssembleCheck:
    def test_elliptic_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["assemble-check", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        for line in ("operator factorizes", "weight factor roundtrip",
                     "operator symmetric", "maximum principle",
                     "interior row sums vanish"):
            assert line in out
        assert "FAIL" not in out
        assert re.search(r"operator factorizes \(N = 25, nnz\(LU\) = \d+\)", out)

    def test_rte_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, family="rte", m=5,
                           grid={"n_angles": 6})
        assert main(["assemble-check", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        for line in ("kernel rows normalized", "off-diagonal signs",
                     "diagonal positive", "zero source gives zero solution"):
            assert line in out
        assert "ok   operator reciprocal (exact L^T == P L P, 0 mismatched entries)" in out
        assert "FAIL" not in out

    def test_rte_with_odd_angles_has_no_reversal(self, tmp_path, capsys):
        cfg = write_config(tmp_path, family="rte", m=5, grid={"n_angles": 5})
        assert main(["assemble-check", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "ok   operator reciprocal (no direction reversal exists for 5 angles)" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("family, assemble, grid, line", [
        ("elliptic", "assemble_elliptic", {},
         r"FAIL operator symmetric \(defect [1-9]\S*\)"),
        ("rte", "assemble_rte", {"n_angles": 6},
         r"FAIL operator reciprocal \(L\^T != P L P, [1-9]\d* mismatched entries\)"),
    ])
    def test_an_operator_off_in_one_entry_fails_its_structural_line(
            self, tmp_path, capsys, monkeypatch, family, assemble, grid, line):
        original = getattr(experiments, assemble)

        def perturbed(*args):
            op = sp.csr_matrix(original(*args), copy=True)
            j = op.indices[op.indptr[0]:op.indptr[1]].max()  # a neighbour of unknown 0
            op[0, j] *= 1.5
            return op

        monkeypatch.setattr(experiments, assemble, perturbed)
        cfg = write_config(tmp_path, family=family, m=5, grid=grid)
        assert main(["assemble-check", "--config", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert "ok   operator factorizes" in out
        assert re.search(line, out), out

    def test_identity_family(self, tmp_path, capsys):
        cfg = write_config(tmp_path, family="identity", m=4)
        assert main(["assemble-check", "--config", str(cfg)]) == 0
        assert "operator factorizes" in capsys.readouterr().out

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": {"family": "elliptic"}}')
        assert main(["assemble-check", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        assert main(["assemble-check", "--config", str(tmp_path / "gone.json")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("token, extra, where", [
        ("Infinity", {"grid": {"length": float("inf")}}, "grid.length"),
        ("NaN", {"problem": {"source": {"amplitude": float("nan")}}},
         "problem.source.amplitude"),
    ])
    @pytest.mark.parametrize("command", ["assemble-check", "solve-linear"])
    def test_non_finite_numbers_exit_two(self, tmp_path, capsys, token, extra, where,
                                         command):
        cfg = write_config(tmp_path, **extra)
        assert token in cfg.read_text()
        argv = [command, "--config", str(cfg)]
        if command == "solve-linear":
            argv += ["--out", str(tmp_path / "curve.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"'{where}' must be a finite number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "curve.csv").exists()


class TestFillGuard:
    def test_a_block_factor_beyond_the_address_space_exits_two(self, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.setattr(linalg, "address_space_limit", lambda: 1024)
        cfg = write_config(tmp_path, family="rte", m=6, grid={"n_angles": 8})
        out = tmp_path / "b.obf"
        assert main(["basis", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: the block LU needs ")
        assert err[0].endswith("more than the address-space limit of 1,024 bytes")
        assert not out.exists()


class TestOverrideValidation:
    # m = 6 gives 25 unknowns
    @pytest.mark.parametrize("flags, message", [
        (["--rank", "0"], "error: 'rsvd.rank' must be at least 1"),
        (["--oversample", "-1"], "error: 'rsvd.oversample' must be nonnegative"),
        (["--power", "-1"], "error: 'rsvd.power' must be nonnegative"),
        (["--seed", "-1"], "error: 'rsvd.seed' must be nonnegative\n"),
        (["--rank", "100"], "= 106 exceeds the 25 unknowns"),
        (["--relax", "2"], "'nonlinear.relax' must be in (0, 1]"),
        (["--relax", "0"], "'nonlinear.relax' must be in (0, 1]"),
        (["--tol", "0"], "'nonlinear.tol' must be positive"),
        (["--max-iter", "0"], "'nonlinear.max_iter' must be at least 1"),
    ])
    def test_bad_overrides_exit_two(self, tmp_path, capsys, flags, message):
        cfg = write_config(tmp_path, family="semilinear_elliptic")
        out = tmp_path / "curve.csv"
        assert main(["solve-nonlinear", "--config", str(cfg), "--out", str(out)]
                    + flags) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, token", [("--tol", "inf"), ("--relax", "nan")])
    def test_non_finite_float_flags_exit_two(self, tmp_path, capsys, flag, token):
        cfg = write_config(tmp_path, family="semilinear_elliptic")
        with pytest.raises(SystemExit) as err:
            main(["solve-nonlinear", "--config", str(cfg),
                  "--out", str(tmp_path / "curve.csv"), flag, token])
        assert err.value.code == 2
        assert f"'{token}' is not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, token", [
        ("nwidth-check", "--samples", "0"),
        ("nwidth-check", "--samples", "-3"),
        ("bayes-check", "--samples", "0"),
        ("solve-linear", "--nmax", "0"),
        ("solve-linear", "--nmax", "-2"),
        ("solve-nonlinear", "--nmax", "0"),
    ])
    def test_non_positive_count_flags_exit_two(self, tmp_path, capsys, command, flag, token):
        family = "semilinear_elliptic" if command == "solve-nonlinear" else "elliptic"
        cfg = write_config(tmp_path, family=family)
        out = tmp_path / "curve.csv"
        argv = [command, "--config", str(cfg), flag, token]
        if command.startswith("solve"):
            argv += ["--out", str(out)]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        err = capsys.readouterr().err
        assert f"'{token}' is not a positive integer" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, family", [
        ("basis", "elliptic"), ("sv-decay", "elliptic"), ("solve-linear", "elliptic"),
        ("solve-nonlinear", "semilinear_elliptic"), ("sweep", "elliptic")])
    def test_a_too_wide_sketch_is_refused_before_the_factor(self, tmp_path, capsys,
                                                            monkeypatch, command, family):
        calls = []
        monkeypatch.setattr(experiments, "factorize", lambda *args: calls.append(args))
        cfg = write_config(tmp_path, family=family)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--rank", "30"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: 'rsvd.rank' + 'rsvd.oversample' = 36 exceeds the 25 unknowns of the "
                "problem\n")
        assert calls == []

    @pytest.mark.parametrize("argv", [["assemble-check"], ["oracle-svd", "--out", "o.obf"],
                                      ["nwidth-check", "--samples", "2"],
                                      ["bayes-check", "--samples", "2"]],
                             ids=lambda argv: argv[0])
    def test_commands_that_do_not_sketch_accept_a_too_wide_sketch(self, tmp_path,
                                                                   monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, rank=30)
        assert _run_quietly([argv[0], "--config", str(cfg), *argv[1:]])[0] == 0

    @pytest.mark.parametrize("command", ["basis", "sv-decay", "solve-nonlinear", "sweep"])
    def test_configured_sketch_larger_than_the_problem_exits_two(self, tmp_path, capsys,
                                                                 command):
        # the shipped semilinear config's 50 + 50 sketch columns on 25 unknowns
        cfg = write_config(tmp_path, family="semilinear_elliptic", rank=50, oversample=50)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'rsvd.rank' + 'rsvd.oversample' = 100 exceeds the 25 unknowns" in err
        assert "Traceback" not in err


def _run_quietly(argv):
    """main(argv) with its stdout and stderr captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _flag_values(**strategies):
    """Optional flag values: each flag is absent or drawn from its strategy."""
    return st.fixed_dictionaries({flag: st.none() | value for flag, value in strategies.items()})


def _flags(values):
    # --flag=value, so that a negative number is not taken for an option
    return [f"--{flag}={value}" for flag, value in values.items() if value is not None]


def _assert_clean_failure(code, err):
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestOverrideFuzz:
    # elliptic m = 6 (25 unknowns): a run either succeeds or exits 2 with one
    # error line.  --power stops at 3 to keep each run short; larger values
    # take the same code path with more passes and are left untested.
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_flag_values(rank=st.integers(-2, 40), oversample=st.integers(-2, 40),
                        power=st.integers(-1, 3), seed=st.integers(-2, 2 ** 70)))
    def test_basis_overrides_succeed_reproducibly_or_exit_two(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg = write_config(tmp)
            out = tmp / "a.obf"
            code, err = _run_quietly(["basis", "--config", str(cfg), "--out", str(out)]
                                     + _flags(values))
            if code != 0:
                _assert_clean_failure(code, err)
                assert not out.exists()
                return
            # the sidecar's config alone reproduces the run byte for byte
            recorded = json.loads(obf.sidecar_path(out).read_text())["config"]
            rerun_cfg = tmp / "rerun.json"
            rerun_cfg.write_text(json.dumps(recorded))
            rerun = tmp / "b.obf"
            assert _run_quietly(["basis", "--config", str(rerun_cfg), "--out", str(rerun)])[0] == 0
            assert rerun.read_bytes() == out.read_bytes()
            assert obf.sidecar_path(rerun).read_bytes() == obf.sidecar_path(out).read_bytes()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_flag_values(
        tol=st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0, 1e-300, 1e-20]),
        relax=st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0]),
        **{"max-iter": st.integers(-2, 60)}))
    def test_solve_nonlinear_overrides_succeed_or_exit_two(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg = write_config(tmp, family="semilinear_elliptic")
            out = tmp / "curve.csv"
            code, err = _run_quietly(["solve-nonlinear", "--config", str(cfg),
                                      "--out", str(out)] + _flags(values))
            if code != 0:
                _assert_clean_failure(code, err)
                assert not out.exists()
                return
            header, rows = read_csv(out)
            assert header == "n,rel_l2,rel_energy" and len(rows) == 8


class TestBasisCommand:
    def test_writes_a_readable_basis_with_sidecar(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "case.obf"
        assert main(["basis", "--config", str(cfg), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "left_orthonormality" in stdout
        assert "wrote rank-8 basis" in stdout
        back = obf.read_basis(out)
        assert back.rank == 8
        assert back.meta["family"] == "elliptic"
        assert back.meta["config"]["grid"]["m_intervals"] == 6

    def test_rank_override_beats_the_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "case.obf"
        assert main(["basis", "--config", str(cfg), "--out", str(out),
                     "--rank", "5"]) == 0
        assert obf.read_basis(out).rank == 5

    def test_seed_override_changes_nothing_observable_for_the_oracle_free_run(self, tmp_path):
        # two runs with the same seed produce byte-identical files
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.obf", tmp_path / "b.obf"
        assert main(["basis", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["basis", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_override_flags_are_the_config_the_sidecar_records(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.obf", tmp_path / "b.obf"
        assert main(["basis", "--config", str(cfg), "--out", str(a), "--rank", "7",
                     "--oversample", "3", "--power", "1", "--seed", "9"]) == 0
        side = json.loads(obf.sidecar_path(a).read_text())
        assert side["config"]["rsvd"] == {"rank": 7, "oversample": 3, "power": 1, "seed": 9}
        recorded = tmp_path / "recorded.json"
        recorded.write_text(json.dumps(side["config"]))
        assert main(["basis", "--config", str(recorded), "--out", str(b)]) == 0
        assert b.read_bytes() == a.read_bytes()

    @pytest.mark.parametrize("command, method", [("basis", "rsvd"),
                                                 ("oracle-svd", "dense_oracle")])
    def test_basis_meta_is_only_the_method(self, tmp_path, command, method):
        # everything else about the run is the config the sidecar records
        cfg = write_config(tmp_path)
        out = tmp_path / "b.obf"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        side = json.loads(obf.sidecar_path(out).read_text())
        assert side["basis_meta"] == {"method": method}
        assert side["family"] == side["config"]["problem"]["family"] == "elliptic"

    def test_config_of_a_full_meta_sidecar_reproduces_its_basis(self, tmp_path):
        # a pair written when basis_meta repeated the config: its recorded
        # config alone rebuilds the same bytes
        earlier = Path(__file__).parent / "data" / "rte_m4_full_meta.obf"
        recorded = tmp_path / "recorded.json"
        recorded.write_text(json.dumps(obf.read_basis(earlier).meta["config"]))
        out = tmp_path / "b.obf"
        assert main(["basis", "--config", str(recorded), "--out", str(out)]) == 0
        assert out.read_bytes() == earlier.read_bytes()

    def test_rte_config_rerun_is_byte_identical(self, tmp_path):
        cfg = CONFIGS / "rte.json"
        a, b = tmp_path / "a.obf", tmp_path / "b.obf"
        assert main(["basis", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["basis", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert obf.read_basis(a).rank == 50


# The thread variables OpenBLAS reads when it loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def run_child(args, threads=None, **kwargs):
    """A separate interpreter with no BLAS thread variable set, or OPENBLAS_NUM_THREADS."""
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=300, env=env, **kwargs)


class TestSolveThreads:
    def test_transport_prints_one_sweep_of_node_blocks(self, tmp_path, capsys):
        cfg = write_config(tmp_path, family="rte", m=6, grid={"n_angles": 8})
        assert main(["basis", "--config", str(cfg), "--out", str(tmp_path / "b.obf")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "sparse solves: 1 thread, node blocks of 8 unknowns, all columns in one sweep")

    def test_transport_prints_its_float32_power_passes(self, tmp_path, capsys):
        # power 2 above runs every pass in float64; at power 6 all but the last two
        # run in float32, and the line says how many
        cfg = write_config(tmp_path, family="rte", m=6, power=6, grid={"n_angles": 8})
        assert main(["basis", "--config", str(cfg), "--out", str(tmp_path / "b.obf")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "sparse solves: 1 thread, node blocks of 8 unknowns, all columns in one sweep, "
            "4 of 6 power passes in float32")

    def test_one_angle_transport_prints_superlus_chunks(self, tmp_path, capsys):
        # a node of one unknown is factored by SuperLU and solved in column chunks
        cfg = write_config(tmp_path, family="rte", grid={"n_angles": 1})
        assert main(["basis", "--config", str(cfg), "--out", str(tmp_path / "b.obf")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "sparse solves: 1 thread, chunks of at most 32 columns"

    @pytest.mark.parametrize("command, family", [("solve-linear", "elliptic"),
                                                 ("solve-nonlinear", "semilinear_elliptic")])
    def test_curve_commands_print_the_thread_count(self, tmp_path, capsys, command, family):
        cfg = write_config(tmp_path, family=family)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "sparse solves: 1 thread, chunks of at most 32 columns"

    def test_csv_bytes_do_not_depend_on_the_blas_thread_variables(self, tmp_path):
        # the elliptic-solve benchmark shape, whose fixed points run large GEMMs;
        # left to its own pool, OpenBLAS starts one thread per core, and 2
        # threads are asked for in case that is one
        cfg = write_config(tmp_path, family="semilinear_elliptic", m=32, p=2,
                           rank=310, oversample=20, power=2, problem={"eps": 0.0625})
        outputs = []
        for threads in (None, 1, 2):
            out = tmp_path / f"curve-{threads}.csv"
            run = run_child(["-m", "optbasis.cli", "solve-nonlinear", "--config", str(cfg),
                             "--out", str(out), "--nmax", "300"], threads)
            assert run.returncode == 0, run.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_the_cli_pins_each_bundled_blas_to_one_thread(self, tmp_path):
        # numpy and scipy each load an OpenBLAS of their own; each is set to two
        # threads before the command runs
        code = (
            "import ctypes, sys\n"
            "import numpy, scipy\n"
            "from pathlib import Path\n"
            "from optbasis import cli\n"
            "getters = []\n"
            "for package, pattern, suffix in ((numpy, 'libscipy_openblas64_*', '64_'),\n"
            "                                 (scipy, 'libscipy_openblas*', '')):\n"
            "    libs = Path(package.__file__).parents[1] / f'{package.__name__}.libs'\n"
            "    for path in libs.glob(pattern):\n"
            "        lib = ctypes.CDLL(str(path))\n"
            "        getattr(lib, 'scipy_openblas_set_num_threads' + suffix)(2)\n"
            "        getters.append(getattr(lib, 'scipy_openblas_get_num_threads' + suffix))\n"
            "if len(getters) != 2:\n"
            "    sys.exit(f'found {len(getters)} bundled OpenBLAS libraries, not 2')\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(*(get() for get in getters))\n"
        )
        cfg = write_config(tmp_path)
        run = run_child(["-c", code, "assemble-check", "--config", str(cfg)])
        if run.returncode and "bundled OpenBLAS" in run.stderr:
            pytest.skip(run.stderr.strip())
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "1 1"

    @staticmethod
    def _bundle(monkeypatch, tmp_path, name, **libraries):
        """Stand cli's numpy or scipy in for a package whose bundled-library folder
        holds the given files: bytes, or a path the file links to."""
        folder = tmp_path / name / f"{name}.libs"
        folder.mkdir(parents=True)
        for file_name, content in libraries.items():
            if isinstance(content, bytes):
                (folder / file_name).write_bytes(content)
            else:
                (folder / file_name).symlink_to(content)
        package = types.SimpleNamespace(__name__=name,
                                        __file__=str(tmp_path / name / name / "__init__.py"))
        monkeypatch.setattr(cli, {"numpy": "np"}.get(name, name), package)

    def test_the_pin_leaves_packages_without_bundled_libraries_alone(self, tmp_path,
                                                                     monkeypatch):
        # numpy and scipy built against a system BLAS bundle none
        self._bundle(monkeypatch, tmp_path, "numpy")
        self._bundle(monkeypatch, tmp_path, "scipy")
        assert cli._pin_blas_threads() is None

    def test_the_pin_skips_a_file_that_does_not_load(self, tmp_path, monkeypatch):
        self._bundle(monkeypatch, tmp_path, "numpy",
                     **{"libscipy_openblas64_-0.so": b"not a shared library"})
        self._bundle(monkeypatch, tmp_path, "scipy",
                     **{"libscipy_openblas-0.so": b"not a shared library"})
        assert cli._pin_blas_threads() is None

    def test_a_library_without_the_setter_leaves_the_other_blas_pinned(self, tmp_path,
                                                                         monkeypatch):
        # numpy's stand-in loads but has no setter; scipy's own OpenBLAS,
        # first set to two threads, is still set to one
        libs = Path(scipy.__file__).parents[1] / "scipy.libs"
        found = sorted(libs.glob("libscipy_openblas*"))
        if not found:
            pytest.skip("scipy bundles no OpenBLAS")
        lib = ctypes.CDLL(str(found[0]))
        lib.scipy_openblas_set_num_threads(2)
        self._bundle(monkeypatch, tmp_path, "numpy",
                     **{"libscipy_openblas64_-0.so": Path(_ctypes.__file__)})
        assert cli._pin_blas_threads() is None
        assert lib.scipy_openblas_get_num_threads() == 1


# the problem's operator is factored through experiments.factorize; Newton's
# Jacobians go through nonlinear's own binding and are not counted
@pytest.mark.parametrize("command, family, extra", [
    ("assemble-check", "elliptic", {}),
    ("assemble-check", "rte", {"grid": {"n_angles": 4}}),
    ("basis", "elliptic", {}),
    ("solve-linear", "elliptic", {}),
    ("solve-nonlinear", "semilinear_elliptic", {}),
    ("solve-nonlinear", "semilinear_rte", {"m": 4, "grid": {"n_angles": 4}}),
], ids=["assemble-check-elliptic", "assemble-check-rte", "basis", "solve-linear",
        "solve-nonlinear-elliptic", "solve-nonlinear-rte"])
def test_each_command_factors_the_operator_once(tmp_path, monkeypatch, command, family, extra):
    real, calls = experiments.factorize, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "factorize", counted)
    cfg = write_config(tmp_path, family=family, **extra)
    argv = [command, "--config", str(cfg)]
    if command != "assemble-check":
        argv += ["--out", str(tmp_path / ("b.obf" if command == "basis" else "c.csv"))]
    assert main(argv) == 0
    assert len(calls) == 1


# transport with the order-0 weight on a 5-interval grid and a zero source
TINY_RTE = {"p": 0, "m": 5, "problem": {"source": {"kind": "zero"}}}


# each spacing or anisotropy overflows a different part of the discretization
@pytest.mark.parametrize("family, extra, message", [
    ("elliptic", {"p": 2, "grid": {"length": 1e-300}},
     "the discretized operator is not finite at 'grid.length' = 1e-300, 'problem.eps' = 1.0"),
    ("elliptic", {"p": 2, "grid": {"length": 1e300}},
     "the discretized weight is not finite at 'grid.length' = 1e+300"),
    ("elliptic", {"p": 0, "grid": {"length": 1e300}},
     "the discretized weight is not finite at 'grid.length' = 1e+300"),
    ("rte", {"grid": {"length": 1e-200, "n_angles": 4}},
     "the discretized weight is not finite at 'grid.length' = 1e-200"),
    ("rte", {"grid": {"n_angles": 4}, "problem": {"g": 0.999999999}},
     "anisotropy factor g = 0.999999999 is too close to 1: the Henyey-Greenstein kernel "
     "on 4 angles is not finite"),
    # h^2 underflows to 0, so the order-0 Gram matrix is exactly 0
    ("rte", {**TINY_RTE, "grid": {"length": 1e-170, "n_angles": 4}},
     "the discretized weight is singular at 'grid.length' = 1e-170"),
], ids=["tiny-length", "huge-length", "huge-length-p0", "rte-tiny-length", "rte-g",
        "rte-p0-underflow"])
def test_a_discretization_that_is_not_finite_prints_one_line(tmp_path, family, extra, message):
    # a separate interpreter, so that stderr holds what numpy would print
    cfg = write_config(tmp_path, family=family, **extra)
    run = subprocess.run([sys.executable, "-m", "optbasis.cli", "assemble-check",
                          "--config", str(cfg)],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (run.returncode, run.stdout, run.stderr) == (2, "", f"error: {message}\n")


def test_relation_residuals_do_not_overflow_at_the_edge_of_the_float_range(tmp_path):
    # at 1e-160 the right vectors' squares overflow; a separate interpreter, so that
    # stderr holds what numpy would print
    cfg = write_config(tmp_path, family="rte", **TINY_RTE,
                       grid={"length": 1e-160, "n_angles": 4})
    run = subprocess.run([sys.executable, "-m", "optbasis.cli", "basis", "--config", str(cfg),
                          "--out", str(tmp_path / "b.obf")],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (run.returncode, run.stderr) == (0, "")
    printed = dict(line.split(": ") for line in run.stdout.splitlines()[1:5])
    assert np.isfinite([float(value) for value in printed.values()]).all()
    errors = []
    for length in (1e-100, 1e-160):
        config = config_from_dict(json.loads(write_config(
            tmp_path, family="rte", **TINY_RTE,
            grid={"length": length, "n_angles": 4}).read_text()))
        setup = experiments.build_problem(config)
        solver = setup.factorize()
        errors.append(defining_relation_errors(experiments.compute_problem_basis(setup, solver),
                                               solver, setup.fx))
    for key in ("left_orthonormality", "adjoint_residual"):
        assert errors[1][key] == pytest.approx(errors[0][key], rel=1e-9)


class TestMemoryError:
    def test_out_of_memory_is_one_error_line_and_exit_two(self, tmp_path, capsys,
                                                            monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 4.00 GiB for the LU factors")

        monkeypatch.setattr(experiments, "factorize", exhausted)
        cfg = write_config(tmp_path)
        assert main(["basis", "--config", str(cfg), "--out", str(tmp_path / "b.obf")]) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory (Unable to allocate 4.00 GiB for the LU factors)\n"
        assert not (tmp_path / "b.obf").exists()

    @pytest.mark.parametrize("family, module, name", [
        pytest.param("elliptic", linalg.spla, "splu", id="superlu"),
        pytest.param("rte", linalg.lapack, "dgetri", id="node-blocks-numeric-phase"),
    ])
    def test_a_factor_out_of_memory_is_problem_too_large(self, tmp_path, capsys, monkeypatch,
                                                         family, module, name):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 4.00 GiB")

        monkeypatch.setattr(module, name, exhausted)
        grid = {"n_angles": 4} if family == "rte" else {}
        cfg = write_config(tmp_path, family=family, grid=grid)
        assert main(["basis", "--config", str(cfg), "--out", str(tmp_path / "b.obf")]) == 2
        unknowns = 25 * (4 if family == "rte" else 1)
        assert capsys.readouterr().err == (f"error: the LU factor of {unknowns} unknowns ran out "
                                           f"of memory (Unable to allocate 4.00 GiB)\n")
        assert not (tmp_path / "b.obf").exists()


class TestCurveCommands:
    def test_sv_decay_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "decay.csv"
        assert main(["sv-decay", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == "i,lambda_rel"
        assert len(rows) == 8
        assert rows[0][0] == "1"
        assert float(rows[0][1]) == 1.0
        ratios = [float(r[1]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_sv_decay_is_byte_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sv-decay", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["sv-decay", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_solve_linear_curve_decreases(self, tmp_path):
        cfg = write_config(tmp_path, rank=12, oversample=10, power=3)
        out = tmp_path / "curve.csv"
        assert main(["solve-linear", "--config", str(cfg), "--out", str(out),
                     "--nmax", "12"]) == 0
        header, rows = read_csv(out)
        assert header == "n,rel_l2,rel_energy"
        assert [r[0] for r in rows] == [str(n) for n in range(1, 13)]
        errs = [float(r[1]) for r in rows]
        assert errs[-1] < errs[0]
        assert all(e >= 0 for e in errs)

    def test_solve_linear_rejects_semilinear_families(self, tmp_path, capsys):
        cfg = write_config(tmp_path, family="semilinear_elliptic")
        out = tmp_path / "curve.csv"
        assert main(["solve-linear", "--config", str(cfg), "--out", str(out)]) == 2
        assert "needs a linear problem family" in capsys.readouterr().err
        assert not out.exists()

    def test_solve_linear_rejects_vanishing_reference(self, tmp_path, capsys):
        cfg = write_config(tmp_path, problem={"source": {"kind": "zero"}})
        out = tmp_path / "curve.csv"
        assert main(["solve-linear", "--config", str(cfg), "--out", str(out)]) == 2
        assert "reference solution vanishes" in capsys.readouterr().err

    def test_solve_linear_on_a_one_unknown_grid_exits_two(self, tmp_path, capsys):
        # m = 2 leaves one interior node and no differences: the energy seminorm is 0
        cfg = write_config(tmp_path, m=2, p=0, rank=1, oversample=0)
        out = tmp_path / "curve.csv"
        assert main(["solve-linear", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "zero energy seminorm" in err
        assert not out.exists()

    def test_solve_nonlinear_curve(self, tmp_path):
        cfg = write_config(tmp_path, family="semilinear_elliptic", rank=10,
                           oversample=8, power=3)
        out = tmp_path / "curve.csv"
        assert main(["solve-nonlinear", "--config", str(cfg), "--out", str(out),
                     "--nmax", "10", "--tol", "1e-20"]) == 0
        header, rows = read_csv(out)
        assert header == "n,rel_l2,rel_energy"
        errs = [float(r[1]) for r in rows]
        assert errs[-1] < errs[0]

    def test_solve_nonlinear_rejects_vanishing_reference(self, tmp_path, capsys):
        cfg = write_config(tmp_path, family="semilinear_elliptic",
                           problem={"source": {"kind": "zero"}})
        out = tmp_path / "curve.csv"
        assert main(["solve-nonlinear", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: reference solution vanishes, relative errors undefined\n"
        assert not out.exists()

    def test_solve_nonlinear_rejects_linear_families(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["solve-nonlinear", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "needs a semilinear problem family" in capsys.readouterr().err

    def test_rte_curves_have_no_energy_column(self, tmp_path):
        cfg = write_config(tmp_path, family="rte", m=4, grid={"n_angles": 4},
                           rank=6, oversample=6)
        out = tmp_path / "curve.csv"
        assert main(["solve-linear", "--config", str(cfg), "--out", str(out),
                     "--nmax", "6"]) == 0
        header, _ = read_csv(out)
        assert header == "n,rel_l2"


# each curve command on a family of its kind, m = 6 (25 unknowns)
CURVE_COMMANDS = [("solve-linear", "elliptic"), ("solve-nonlinear", "semilinear_elliptic")]


class TestTruncationBound:
    @pytest.mark.parametrize("command, family", CURVE_COMMANDS)
    def test_curve_commands_print_the_worst_ratio(self, tmp_path, capsys, command, family):
        cfg = write_config(tmp_path, family=family)
        out = tmp_path / "curve.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        # rank 8: lambda_{n+1} is in the basis for n = 1..7
        assert re.fullmatch(r"truncation bound holds for n = 1\.\.7 "
                            r"\(worst lhs/rhs 0\.\d{3} at n = [1-7]\)", last), last

    @pytest.mark.parametrize("command, family", CURVE_COMMANDS)
    def test_halved_singular_values_exit_two_before_the_csv(self, tmp_path, capsys,
                                                            monkeypatch, command, family):
        real = cli.compute_problem_basis

        def halved(setup, solver=None):
            basis = real(setup, solver)
            basis.singular_values = basis.singular_values / 2
            return basis

        monkeypatch.setattr(cli, "compute_problem_basis", halved)
        cfg = write_config(tmp_path, family=family)
        out = tmp_path / "curve.csv"
        code = main([command, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        _assert_clean_failure(code, err)
        assert err.startswith("error: truncation bound fails at n = ")
        assert "raise rsvd.power or rsvd.oversample" in err
        assert not out.exists()

    # sine amplitude 1e160 on m = 8: ||u||^2 overflows, so both sides of the bound
    # are inf; at rank 1 the bound checks no level and the curve itself must refuse
    @pytest.mark.parametrize("rank, message", [
        (5, "truncation bound at n = 1 is not finite: representation error inf, bound inf"),
        (1, "relative errors are not finite"),
    ], ids=["bound", "curve"])
    def test_overflowing_norms_exit_two_before_the_csv(self, tmp_path, capsys, rank, message):
        cfg = write_config(tmp_path, m=8, p=0, rank=rank, oversample=2, power=1,
                           problem={"source": {"kind": "sine", "amplitude": 1e160}})
        out = tmp_path / "curve.csv"
        code = main(["solve-linear", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        _assert_clean_failure(code, err)
        assert err.startswith(f"error: {message}"), err
        assert not out.exists()

    @pytest.mark.parametrize("rank, message", [
        (5, "truncation bound at n = 1 is not finite: representation error inf, bound inf; "
            "the norms overflow"),
        (1, "relative errors are not finite: a norm or a solution overflows"),
    ], ids=["bound", "curve"])
    def test_overflowing_norms_print_one_line_and_no_warning(self, tmp_path, rank, message):
        # a separate interpreter, so that stderr holds what numpy would print
        cfg = write_config(tmp_path, m=8, p=0, rank=rank, oversample=2, power=1,
                           problem={"source": {"kind": "sine", "amplitude": 1e160}})
        run = subprocess.run(
            [sys.executable, "-m", "optbasis.cli", "solve-linear", "--config", str(cfg),
             "--out", str(tmp_path / "curve.csv")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert run.returncode == 2, run.stderr
        assert run.stderr == f"error: {message}\n"

    # the Newton reference of a source at 1e120 overflows: u^3 for the cubic
    # term, the residual's norm for two-photon absorption
    @pytest.mark.parametrize("family, extra", [
        ("semilinear_elliptic", {"m": 8, "problem": {"source": {"kind": "sine",
                                                                "amplitude": 1e120}}}),
        ("semilinear_rte", {"m": 4, "grid": {"n_angles": 4},
                            "problem": {"source": {"kind": "beam", "amplitude": 1e120}}}),
    ], ids=["cubic", "two-photon"])
    def test_an_overflowing_newton_reference_prints_one_line(self, tmp_path, family, extra):
        cfg = write_config(tmp_path, family=family, rank=5, oversample=2, power=1, **extra)
        out = tmp_path / "curve.csv"
        run = subprocess.run(
            [sys.executable, "-m", "optbasis.cli", "solve-nonlinear", "--config", str(cfg),
             "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert run.returncode == 2, run.stderr
        assert run.stderr == ("error: Newton residual is not finite: the source or the "
                              "solution overflows\n")
        assert not out.exists()

    def test_a_rank_one_basis_has_no_level_to_check(self, tmp_path, capsys):
        cfg = write_config(tmp_path, family="rte", m=4, grid={"n_angles": 4},
                           rank=1, oversample=6)
        assert main(["solve-linear", "--config", str(cfg),
                     "--out", str(tmp_path / "curve.csv")]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "truncation bound not checked: no n below the basis rank 1")


def test_unconverged_fixed_point_exits_two_without_a_csv(tmp_path, capsys):
    # a strong cubic term (source amplitude 1000) and three heavily damped sweeps
    cfg = write_config(tmp_path, family="semilinear_elliptic",
                       problem={"source": {"kind": "sine", "amplitude": 1000.0}})
    out = tmp_path / "curve.csv"
    code = main(["solve-nonlinear", "--config", str(cfg), "--out", str(out),
                 "--relax", "0.05", "--max-iter", "3"])
    err = capsys.readouterr().err
    _assert_clean_failure(code, err)
    assert re.fullmatch(r"error: fixed point at n = \d+ did not converge in 3 iterations: "
                        r"final step \S+ against tol 1\.000e-12\n", err), err
    assert not out.exists()


def test_damped_fixed_point_stops_on_the_undamped_step(tmp_path, capsys):
    # the shipped case is almost linear: at relax 0.05 the damped step is
    # already below 1e-14 after one sweep, the undamped step is not
    out = tmp_path / "curve.csv"
    code = main(["solve-nonlinear", "--config", str(CONFIGS / "semilinear_elliptic.json"),
                 "--relax", "0.05", "--max-iter", "3", "--tol", "1e-14", "--nmax", "40",
                 "--out", str(out)])
    err = capsys.readouterr().err
    _assert_clean_failure(code, err)
    # the Diverged of experiments.nonlinear_error_curve
    assert re.fullmatch(r"error: fixed point at n = \d+ did not converge in 3 iterations: "
                        r"final step \S+ against tol 1\.000e-14\n", err), err
    assert not out.exists()


@pytest.mark.parametrize("max_iter, message", [
    ("500", r"left the trust region after \d+ iterations"),
    ("9", r"did not converge in 9 iterations: final step \S+ against tol 1\.000e-12"),
], ids=["trust-region", "unconverged"])
def test_a_failing_fixed_point_names_its_level(tmp_path, capsys, max_iter, message):
    # the shipped semilinear elliptic case at sine amplitude 1e5, undamped:
    # from level 4 on the fixed point leaves the trust region, and with 9
    # sweeps a lower level runs out of sweeps first
    raw = json.loads((CONFIGS / "semilinear_elliptic.json").read_text())
    raw["problem"]["source"]["amplitude"] = 1e5
    cfg = tmp_path / "strong.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "curve.csv"
    code = main(["solve-nonlinear", "--config", str(cfg), "--relax", "1",
                 "--max-iter", max_iter, "--out", str(out)])
    err = capsys.readouterr().err
    _assert_clean_failure(code, err)
    assert re.fullmatch(rf"error: fixed point at n = \d+ {message}\n", err), err
    assert not out.exists()


class TestOracleAndChecks:
    def test_oracle_svd_writes_a_full_rank_basis(self, tmp_path, capsys):
        cfg = write_config(tmp_path, m=5)
        out = tmp_path / "oracle.obf"
        assert main(["oracle-svd", "--config", str(cfg), "--out", str(out)]) == 0
        assert "leading singular values" in capsys.readouterr().out
        back = obf.read_basis(out)
        assert back.rank == back.n_dofs == 16

    def test_nwidth_check_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, m=5)
        assert main(["nwidth-check", "--config", str(cfg), "--samples", "20"]) == 0
        out = capsys.readouterr().out
        assert "width at optimal n = 1 matches next singular value" in out
        assert "random candidates dominated at n = 5" in out
        assert "FAIL" not in out

    def test_nwidth_check_reports_a_positive_domination_margin(self, tmp_path, capsys):
        cfg = write_config(tmp_path, m=5)
        assert main(["nwidth-check", "--config", str(cfg), "--samples", "5"]) == 0
        out = capsys.readouterr().out
        margins = [float(x) for x in re.findall(r"smallest margin (\S+)\)", out)]
        assert len(margins) == 5
        assert all(margin > 0.0 for margin in margins)

    def test_nwidth_check_gates_the_width_relative_to_the_next_singular_value(
            self, tmp_path, capsys, monkeypatch):
        # off by a relative 1e-8, a width of about 1e-2 is within an absolute
        # 1e-9 of lambda_{n+1} but not within a relative 1e-10
        exact = cli.nwidth_eval
        monkeypatch.setattr(cli, "nwidth_eval",
                            lambda *args: exact(*args) * (1.0 + 1e-8))
        cfg = write_config(tmp_path, m=5)
        assert main(["nwidth-check", "--config", str(cfg), "--samples", "2"]) == 1
        out = capsys.readouterr().out
        assert "FAIL width at optimal n = 1 matches next singular value" in out
        assert "FAIL random candidates dominated" not in out

    def test_nwidth_check_forms_the_green_matrix_once(self, tmp_path, monkeypatch):
        calls = []
        solve = linalg.FactorizedSolver.solve

        def counted(self, b):
            calls.append(1 if np.ndim(b) == 1 else np.shape(b)[1])
            return solve(self, b)

        monkeypatch.setattr(linalg.FactorizedSolver, "solve", counted)
        cfg = write_config(tmp_path)  # m = 6, 25 unknowns
        assert main(["nwidth-check", "--config", str(cfg), "--samples", "2"]) == 0
        assert calls == [25]

    @pytest.mark.parametrize("command, m, guard, out", [
        ("nwidth-check", 13, 2048, False),
        ("bayes-check", 13, 2048, False),
        ("oracle-svd", 18, 4096, True),
    ])
    def test_oversize_problem_refused_before_any_factor(self, tmp_path, capsys, monkeypatch,
                                                         command, m, guard, out):
        def refused(*args, **kwargs):
            raise AssertionError("factorized a problem above the dense guard")

        monkeypatch.setattr(linalg, "factorize", refused)
        monkeypatch.setattr(experiments, "factorize", refused)
        cfg = write_config(tmp_path, family="rte", m=m, grid={"n_angles": 16})
        argv = [command, "--config", str(cfg)]
        if out:
            argv += ["--out", str(tmp_path / "oracle.obf")]
        assert main(argv) == 2
        n_dofs = (m - 1) ** 2 * 16
        assert capsys.readouterr().err == (
            f"error: dense verification limited to {guard} unknowns, got {n_dofs}\n"
        )
        assert not (tmp_path / "oracle.obf").exists()

    @pytest.mark.parametrize("command", ["nwidth-check", "bayes-check"])
    def test_one_unknown_problem_refused_before_any_factor(self, tmp_path, capsys,
                                                           monkeypatch, command):
        def refused(*args, **kwargs):
            raise AssertionError("factorized a problem with no proper subspace")

        monkeypatch.setattr(linalg, "factorize", refused)
        monkeypatch.setattr(experiments, "factorize", refused)
        cfg = write_config(tmp_path, m=2, p=0)
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr() == (
            "", "error: the dense optimality checks need at least 2 unknowns, got 1\n"
        )

    def test_bayes_check_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, m=5)
        assert main(["bayes-check", "--config", str(cfg), "--samples", "20"]) == 0
        out = capsys.readouterr().out
        assert "objective at optimum matches closed form" in out
        assert "trace conservation" in out
        assert "reconstruction bound holds" in out
        assert "FAIL" not in out

    def test_bayes_check_observes_the_weighted_optimum(self, tmp_path, monkeypatch):
        # under the prior f ~ N(0, Pi_X^{-1}) the optimal observations span the leading
        # left vectors of A = G F_X^{-1}, the oracle's; G's own fall short at p = 1
        observed = []
        real = cli.trace_objective
        monkeypatch.setattr(cli, "trace_objective",
                            lambda op, obs_matrix: observed.append(obs_matrix)
                            or real(op, obs_matrix))
        cfg = write_config(tmp_path, m=5, p=1)
        assert main(["bayes-check", "--config", str(cfg), "--samples", "2"]) == 0
        setup = experiments.build_problem(config_from_dict(json.loads(cfg.read_text())))
        u_opt = experiments.oracle_problem_basis(setup).left_vectors[:, :4]
        cosines = np.linalg.svd(np.linalg.qr(observed[0])[0].T @ np.linalg.qr(u_opt)[0],
                                compute_uv=False)
        assert cosines.min() >= 1.0 - 1e-12

    def test_bayes_check_catches_a_trace_split_that_does_not_add_up(self, tmp_path, capsys,
                                                                   monkeypatch):
        # inflate the captured trace by 1e-6 of itself: captured + posterior
        # covariance trace is then not tr(G G^T).  G = I here, so the shift
        # (4e-6) is far above the gate (1e-8 tr(G G^T))
        real = cli.trace_objective
        monkeypatch.setattr(cli, "trace_objective",
                            lambda green, obs_matrix: real(green, obs_matrix) * (1 + 1e-6))
        cfg = write_config(tmp_path, family="identity")
        assert main(["bayes-check", "--config", str(cfg), "--samples", "5"]) == 1
        assert "FAIL trace conservation" in capsys.readouterr().out

    def test_bayes_check_gates_are_relative_on_elliptic_problems(self, tmp_path, capsys,
                                                                monkeypatch):
        # tr(G G^T) is about 1.3e-5 at m = 5, so the same 1e-6 relative shift is a
        # gap near 1e-11: under an absolute 1e-9 or 1e-8 gate, over a relative one
        real = cli.trace_objective
        monkeypatch.setattr(cli, "trace_objective",
                            lambda green, obs_matrix: real(green, obs_matrix) * (1 + 1e-6))
        cfg = write_config(tmp_path, m=5)
        assert main(["bayes-check", "--config", str(cfg), "--samples", "5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL objective at optimum matches closed form" in out
        assert "FAIL trace conservation" in out


class TestSweep:
    def test_writes_three_decay_files(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rank=6, oversample=6)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["sv_decay_eps0.0625.csv", "sv_decay_eps0.25.csv",
                         "sv_decay_eps1.csv"]
        for name in names:
            header, rows = read_csv(out_dir / name)
            assert header == "i,lambda_rel"
            assert len(rows) == 6

    def test_identity_family_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, family="identity")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
        assert "needs a PDE problem family" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestPaperScaleFlag:
    def test_identity_is_unaffected(self, tmp_path):
        # the identity family ignores the flag, so this exercises the code
        # path without a large assembly
        cfg = write_config(tmp_path, family="identity", m=4)
        assert main(["assemble-check", "--config", str(cfg), "--paper-scale"]) == 0

    def test_flag_changes_the_grid_for_pde_families(self, tmp_path):
        from optbasis.cli import _load_config

        class Args:
            config = write_config(tmp_path)
            paper_scale = True

        assert _load_config(Args()).m_intervals == 64


def test_a_strongly_nonlinear_curve_iterates_and_holds_the_bound(tmp_path, capsys):
    # the shipped semilinear elliptic case on m = 16 at sine amplitude 1e5:
    # ||N(u)|| is a large fraction of ||L u||, so every level needs several
    # damped sweeps, and the truncation bound still holds at every level
    raw = json.loads((CONFIGS / "semilinear_elliptic.json").read_text())
    raw["grid"]["m_intervals"] = 16
    raw["problem"]["source"]["amplitude"] = 1e5
    cfg = tmp_path / "strong.json"
    cfg.write_text(json.dumps(raw))
    setup = experiments.build_problem(config_from_dict(raw))
    u = experiments.reference_solution(setup, setup.factorize())
    assert np.linalg.norm(setup.term(u)) > 0.3 * np.linalg.norm(setup.operator @ u)

    out = tmp_path / "curve.csv"
    argv = ["solve-nonlinear", "--config", str(cfg), "--relax", "0.5", "--out", str(out)]
    assert main(argv) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(r"truncation bound holds for n = 1\.\.49 "
                        r"\(worst lhs/rhs 0\.\d{3} at n = \d+\)", last), last
    out.unlink()
    code = main(argv + ["--max-iter", "1"])
    err = capsys.readouterr().err
    _assert_clean_failure(code, err)
    assert err.startswith("error: fixed point at n = 1 did not converge in 1 iterations"), err
    assert not out.exists()
