import csv
import dataclasses
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from qutrit_teleport import algebra, certify, cli, dataset, mc, tomography
from qutrit_teleport.errors import DataQualityError, ParseError

from helpers import count_calls

ROOT = Path(__file__).resolve().parent.parent
IDENTITY_MIXED = Path(__file__).resolve().parent / "fixtures" / "identity_mixed.json"


def ingest(path):
    """Load and repair a matrix file, as ``certify --matrix`` does."""
    return dataset.repair_matrix(dataset.load_matrix(path), str(path))


class TestMatrixSchema:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        path = tmp_path / "m.json"
        dataset.save_matrix(mat, path)
        back = dataset.load_matrix(path)
        assert np.abs(back - mat).max() < 1e-12

    def test_missing_field(self):
        with pytest.raises(ParseError, match="missing field 'entries'"):
            dataset.parse_matrix({"dim": 3})

    def test_bad_dim(self):
        with pytest.raises(ParseError, match="'dim'"):
            dataset.parse_matrix({"dim": "three", "entries": []})

    def test_bad_row_length(self):
        doc = {"dim": 2, "entries": [[[1, 0]], [[0, 0], [1, 0]]]}
        with pytest.raises(ParseError, match="row 0"):
            dataset.parse_matrix(doc)

    def test_bad_cell(self):
        doc = {"dim": 1, "entries": [[[1]]]}
        with pytest.raises(ParseError, match=r"entry \(0,0\)"):
            dataset.parse_matrix(doc)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="invalid JSON"):
            dataset.load_matrix(path)


class TestReferenceData:
    def test_rho1_hermiticity_repair_logged(self):
        # the printed (0,1)/(1,0) imaginary parts disagree by 0.006
        raw = dataset.reference_rho_raw(1)
        _, log = dataset.reference_rho(1)
        resid = abs(raw[0, 1] - np.conj(raw[1, 0]))
        assert 0.005 < resid < 0.01
        assert 0.005 < log["hermiticity_residual"] < 0.01

    def test_all_rhos_repair_to_valid_states(self):
        for i in range(1, 11):
            rho, log = dataset.reference_rho(i)
            algebra.check_density_matrix(rho)
            assert max(log.values()) <= dataset.REPAIR_CAP

    def test_identity_fixture_needs_no_repairs(self):
        rho, log = dataset.repair_and_log_density(dataset.load_matrix(IDENTITY_MIXED))
        assert max(log.values()) < 1e-9

    def test_state_index_range(self):
        with pytest.raises(ValueError):
            dataset.reference_rho_raw(11)

    def test_reference_chi_is_choi_normalized_on_disk(self):
        raw = dataset.reference_chi_raw()
        assert abs(np.trace(raw).real - 1.0) < 0.01

    def test_reference_chi_converted_and_physical(self):
        chi, log = dataset.reference_chi()
        # detected, as for any 9x9 file
        assert log["converted_from_choi_normalized"]
        tomography.check_process_matrix(chi, tp_tol=1e-6, psd_tol=1e-7)
        assert abs(tomography.process_fidelity(chi) - 0.596) < 0.005

    def test_listed_fidelity_mean_matches_attached_values(self):
        attached = [
            dataset.LISTED_STATE_FIDELITIES[pos]
            for pos in dataset.STATE_FIDELITY_POSITIONS.values()
        ]
        assert len(attached) == 10
        assert abs(np.mean(attached) - dataset.LISTED_STATE_FIDELITY_MEAN) < 5e-4

    def test_listed_certification_counts_cover_the_grid(self):
        assert dataset.LISTED_N_SIMULABLE + dataset.LISTED_N_GENUINE == 20 * 20

    def test_targets_are_benchmark_states(self):
        targets = dataset.reference_targets()
        assert len(targets) == 10


class TestIngest:
    def test_density_kind(self, tmp_path):
        path = tmp_path / "rho.json"
        dataset.save_matrix(np.eye(3) / 3, path)
        mat, kind, log = ingest(path)
        assert kind == "density"

    def test_process_kind(self, tmp_path):
        path = tmp_path / "chi.json"
        dataset.save_matrix(tomography.noisy_model_chi(), path)
        mat, kind, log = ingest(path)
        assert kind == "process"
        assert not log["converted_from_choi_normalized"]

    def test_unsupported_dim(self, tmp_path):
        path = tmp_path / "m.json"
        dataset.save_matrix(np.eye(4) / 4, path)
        with pytest.raises(ParseError, match="unsupported dimension"):
            ingest(path)

    def test_trace_090_data_quality_error(self, tmp_path):
        path = tmp_path / "low_trace.json"
        dataset.save_matrix(0.90 * np.eye(3) / 3, path)
        with pytest.raises(DataQualityError):
            ingest(path)

    def test_choi_normalized_process_autodetected(self, tmp_path):
        # the Choi form chi' = chi * (s s^T) / 3, s = (sqrt3, sqrt2, ..., sqrt2)
        scale = np.array([math.sqrt(3.0)] + [math.sqrt(2.0)] * 8)
        chi_on = tomography.noisy_model_chi() * np.outer(scale, scale) / 3.0
        path = tmp_path / "chi_on.json"
        dataset.save_matrix(chi_on, path)
        chi, kind, log = ingest(path)
        assert log["converted_from_choi_normalized"]
        assert np.abs(chi - tomography.noisy_model_chi()).max() < 1e-6


def _floats(obj):
    """Every float in a parsed JSON report."""
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, (dict, list)):
        for v in obj.values() if isinstance(obj, dict) else obj:
            yield from _floats(v)


# JSON values that json.load returns as numbers but that are no matrix entry.
NON_NUMBERS = {"nan": float("nan"), "inf": float("inf"), "true": True, "false": False}


@pytest.fixture(scope="module")
def non_number_files(tmp_path_factory):
    """Valid 3x3 and 9x9 matrix files with one entry replaced by a non-number."""
    out_dir = tmp_path_factory.mktemp("non_numbers")
    files = {}
    for shape, mat in (("3x3", np.eye(3) / 3), ("9x9", tomography.noisy_model_chi())):
        for name, value in NON_NUMBERS.items():
            doc = dataset.matrix_to_json(mat)
            doc["entries"][0][1][0] = value
            path = out_dir / f"{shape}-{name}.json"
            path.write_text(json.dumps(doc))
            files[f"{shape}-{name}"] = str(path)
    return files


@pytest.fixture(scope="module")
def unrepairable_files(tmp_path_factory):
    """Matrix files no repair can make physical.

    3x3 ones whose trace is not positive once negative eigenvalues are
    clipped, and 3x3 and 9x9 ones of entries so large that the repair
    overflows, or so small that it underflows.
    """
    out_dir = tmp_path_factory.mktemp("unrepairable")
    files = {}
    for name, mat in (
        ("zero", np.zeros((3, 3))),
        ("negative", np.diag([-1.0, 0.0, 0.0])),
        ("huge", np.full((3, 3), 1e308)),
        ("huge-9x9", np.full((9, 9), 1e308)),
        ("tiny", np.full((3, 3), 1e-320)),
    ):
        files[name] = str(out_dir / f"{name}.json")
        dataset.save_matrix(mat, files[name])
    return files


class TestCli:
    def run(self, argv, capsys):
        code = cli.main(argv)
        out = capsys.readouterr().out
        report = json.loads(out) if out.strip().startswith("{") else None
        return code, report

    def test_teleport_sim(self, capsys):
        code, report = self.run(["teleport_sim"], capsys)
        assert code == 0
        rows = report["results"]["states"]
        assert len(rows) == 10
        for row in rows:
            assert abs(row["fidelity"] - 1.0) < 1e-6
            assert abs(row["success_probability"] - 1 / 18) < 1e-6

    def test_certify_identity_mixed(self, capsys):
        code, report = self.run(["certify"], capsys)
        assert code == 0
        assert report["results"]["verdict"] == "qubit_simulable"

    def test_certify_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "psi.json"
        dataset.save_matrix(algebra.projector(np.ones(3) / math.sqrt(3)), path)
        code, report = self.run(["certify", "--matrix", str(path)], capsys)
        assert code == 0
        assert report["results"]["verdict"] == "genuine_qutrit"
        assert abs(report["results"]["mu"] - 0.5) < 1e-3

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code = cli.main(["certify", "--matrix", str(path)])
        assert code == cli.EXIT_PARSE

    def test_data_quality_exit_code(self, capsys, tmp_path):
        path = tmp_path / "low.json"
        dataset.save_matrix(0.9 * np.eye(3) / 3, path)
        code = cli.main(["certify", "--matrix", str(path)])
        assert code == cli.EXIT_DATA_QUALITY

    def test_batch_reports_adjustments(self, capsys, tmp_path):
        # the batch report carries the repair log, as single-state certify does
        _, bundled = self.run(["certify", "--batch", "--grid", "1x1"], capsys)
        assert bundled["results"]["adjustments"].keys() == dataset.reference_chi()[1].keys()
        chi = tomography.noisy_model_chi(0.7)
        chi[0, 1] += 0.01j
        path = tmp_path / "chi.json"
        dataset.save_matrix(chi, path)
        argv = ["certify", "--batch", "--grid", "1x1", "--matrix", str(path)]
        code, report = self.run(argv, capsys)
        assert code == 0
        assert report["results"]["adjustments"]["hermiticity_residual"] == 0.01

    def test_bad_grid_spec(self, capsys):
        code = cli.main(["certify", "--batch", "--grid", "garbage"])
        assert code == cli.EXIT_PARSE

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--matrix", "/nonexistent/matrix.json"],
            ["mc_errors", "--trials", "1"],
            ["teleport_sim", "--visibility", "1.5"],
            ["certify", "--batch", "--grid", "0x3"],
            ["mc_errors", "--trials", "2", "--exposure", "0"],
            ["tomography", "--exposure", "0"],
            ["mub_study", "--trials", "2", "--exposure", "-5"],
            ["tomography", "--exposure", "nan"],
            ["mc_errors", "--trials", "2", "--exposure", "inf"],
            ["certify", "--trials", "1", "--exposure", "-3", "--visibility", "7"],
            ["teleport_sim", "--exposure", "0"],
            ["tomography", "--exposure", "1e300"],
            ["mub_study", "--trials", "2", "--exposure", "1e300"],
            ["tomography", "--seed", "-1"],
            ["mc_errors", "--seed", "-1"],
            ["mub_study", "--seed", "-1"],
            ["convergence", "--seed", "-1"],
            ["convergence", "--trials", "1"],
            ["certify", "--batch", "--matrix", "/nonexistent/matrix.json"],
            ["certify", "--batch", "--matrix", str(IDENTITY_MIXED)],
            *(["certify", "--matrix", f"3x3-{v}"] for v in NON_NUMBERS),
            *(["certify", "--batch", "--matrix", f"9x9-{v}"] for v in NON_NUMBERS),
        ],
        ids=[
            "missing-matrix-file",
            "one-trial",
            "visibility-above-1",
            "empty-grid",
            "mc-errors-zero-exposure",
            "tomography-zero-exposure",
            "mub-study-negative-exposure",
            "nan-exposure",
            "infinite-exposure",
            "certify-foreign-options",
            "teleport-sim-foreign-option",
            "tomography-huge-exposure",
            "mub-study-huge-exposure",
            "tomography-negative-seed",
            "mc-errors-negative-seed",
            "mub-study-negative-seed",
            "convergence-negative-seed",
            "convergence-one-trial",
            "batch-missing-matrix-file",
            "batch-density-matrix-file",
            *(f"{v}-entry" for v in NON_NUMBERS),
            *(f"batch-{v}-entry" for v in NON_NUMBERS),
        ],
    )
    def test_boundary_inputs_exit_parse(self, argv, capsys, non_number_files):
        code = cli.main([non_number_files.get(a, a) for a in argv])
        captured = capsys.readouterr()
        assert code == cli.EXIT_PARSE
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["tomography", "--exposure", "0.01"],
            ["mub_study", "--exposure", "1", "--trials", "2"],
            ["convergence", "--exposure", "1e-300", "--trials", "2"],
            ["mc_errors", "--exposure", "0.5", "--trials", "2"],
            ["certify", "--matrix", "zero"],
            ["certify", "--matrix", "negative"],
            ["certify", "--batch", "--matrix", "zero"],
            ["certify", "--batch", "--matrix", "negative"],
            ["certify", "--matrix", "huge"],
            ["certify", "--batch", "--matrix", "huge-9x9"],
            ["certify", "--matrix", "tiny"],
        ],
        ids=[
            "tomography-no-counts",
            "mub-study-no-basis-counts",
            "convergence-no-counts",
            "mc-errors-every-trial-excluded",
            "zero-matrix",
            "negative-matrix",
            "batch-zero-matrix",
            "batch-negative-matrix",
            "overflowing-matrix",
            "batch-overflowing-matrix",
            "underflowing-matrix",
        ],
    )
    def test_data_errors_exit_data_quality(self, argv, capsys, unrepairable_files):
        code = cli.main([unrepairable_files.get(a, a) for a in argv])
        captured = capsys.readouterr()
        assert code == cli.EXIT_DATA_QUALITY
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("data-quality error: ")

    def test_mc_errors_needs_two_surviving_trials(self, capsys, monkeypatch):
        # one trial of two excluded: a single sample gives no error bar
        resample = mc.poisson_resample

        def drop_first(tables, statistic, n_trials, seed):
            ens = resample(tables, statistic, n_trials, seed)
            return dataclasses.replace(ens, samples=ens.samples[1:], n_excluded=1)

        monkeypatch.setattr(mc, "poisson_resample", drop_first)
        code = cli.main(["mc_errors", "--trials", "2"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_DATA_QUALITY
        assert captured.err == (
            "data-quality error: 1 of 2 trials gave a value; an error bar needs two\n"
        )

    def test_matrix_read_while_parsing(self, capsys, tmp_path, monkeypatch):
        # the error names the file as given and the reason, and no --out
        # directory is left
        monkeypatch.chdir(tmp_path)
        Path("bad.json").write_text("{")
        Path("deep.json").write_text("[" * 200_000 + "]" * 200_000)
        Path("latin1.json").write_bytes(b'{"dim": 1, "entries": [[["\xe9", 0]]]}')
        reasons = {
            "missing.json": "cannot read file",
            "bad.json": "invalid JSON at line 1",
            "deep.json": "invalid JSON: nested too deeply",
            "latin1.json": "not UTF-8 text",
        }
        for path, reason in reasons.items():
            code = cli.main(["certify", "--matrix", path, "--out", "new"])
            captured = capsys.readouterr()
            assert code == cli.EXIT_PARSE
            assert captured.err.startswith(f"parse error: argument --matrix: {path}: {reason}")
            assert len(captured.err.splitlines()) == 1
            assert not Path("new").exists()

    def test_matrix_path_recorded_as_given(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        dataset.save_matrix(np.eye(3) / 3, tmp_path / "rho.json")
        code, report = self.run(["certify", "--matrix", "./rho.json"], capsys)
        assert code == 0
        assert report["config"]["matrix"] == "./rho.json"

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-file"])
    def test_out_not_a_directory_exits_parse(self, sub, capsys, tmp_path, monkeypatch):
        # rejected before any work: the pipeline's first read would raise
        def no_work():
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(dataset, "reference_chi", no_work)
        path = tmp_path / "report.json"
        path.write_text("")
        code = cli.main(["process", "--out", str(path / sub)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_PARSE
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["mc_errors", "--trials", "1"],
            ["tomography", "--exposure", "0"],
            ["teleport_sim", "--visibility", "1.5"],
            ["certify", "--batch", "--grid", "0x3"],
            ["certify", "--matrix", "/nonexistent/matrix.json"],
        ],
        ids=["trials", "exposure", "visibility", "grid", "matrix"],
    )
    def test_bad_value_leaves_no_out_dir(self, argv, capsys, tmp_path):
        out = tmp_path / "new" / "report"
        code = cli.main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_PARSE
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "new").exists()

    def test_empty_genuine_set_is_null(self, capsys):
        # the single grid state (phi1, phi2) = (0, 0) is qubit-simulable
        # after the published channel
        code, report = self.run(["certify", "--batch", "--grid", "1x1"], capsys)
        assert code == 0
        results = report["results"]
        assert results["n_genuine"] == 0
        assert results["mean_mu_of_genuine"] is None
        assert results["std_mu_of_genuine"] is None
        code, report = self.run(["full_reproduction", "--grid", "1x1"], capsys)
        assert code == 0
        checks = {c["name"]: c for c in report["results"]["checks"]}
        assert checks["mean_mu_of_genuine"]["value"] is None
        assert not checks["mean_mu_of_genuine"]["ok"]

    def test_no_negative_zero_in_reports(self, capsys, tmp_path):
        # a repair that clips nothing logs +0.0 (it read -0.0), and mu of a
        # basis state is +0.0
        chi_path, basis_path = tmp_path / "chi.json", tmp_path / "basis.json"
        dataset.save_matrix(tomography.noisy_model_chi(), chi_path)
        dataset.save_matrix(algebra.projector(algebra.ket(0)), basis_path)
        runs = [
            ["tomography"],
            ["certify"],
            ["certify", "--matrix", str(basis_path)],
            ["certify", "--batch", "--grid", "1x1", "--matrix", str(chi_path)],
        ]
        reports = []
        for argv in runs:
            code, report = self.run(argv, capsys)
            assert code == 0
            assert not [v for v in _floats(report) if v == 0 and math.copysign(1.0, v) < 0]
            reports.append(report["results"])
        # zeros the check above saw: an unclipped repair, and mu of a basis state
        assert reports[1]["adjustments"]["eigenvalue_clip"] == 0.0
        assert reports[2]["mu"] == 0.0

    def test_report_rejects_nan(self, capsys):
        with pytest.raises(ValueError):
            cli.emit_report("nan", {}, {"value": float("nan")})

    def test_report_written_to_out_dir(self, capsys, tmp_path):
        code, _ = self.run(["teleport_sim", "--out", str(tmp_path)], capsys)
        assert code == 0
        on_disk = json.loads((tmp_path / "teleport_sim.json").read_text())
        assert on_disk["pipeline"] == "teleport_sim"
        assert "config" in on_disk

    def test_reports_reproducible(self, capsys):
        _, r1 = self.run(["tomography", "--seed", "4"], capsys)
        _, r2 = self.run(["tomography", "--seed", "4"], capsys)
        assert r1 == r2
        _, r3 = self.run(["tomography", "--seed", "5"], capsys)
        assert r3 != r1

    def test_full_reproduction_check(self, capsys):
        # the chi refit from the 3-decimal published matrices misses the
        # listed 0.596 by ~0.001 beyond tolerance (documented deviation), so
        # --check exits 5 with exactly that one check failing
        code, report = self.run(["full_reproduction", "--check"], capsys)
        assert code == cli.EXIT_CHECK_FAILED
        failing = [c["name"] for c in report["results"]["checks"] if not c["ok"]]
        assert failing == ["refit_process_fidelity"]

    @pytest.mark.parametrize("command", ["tomography", "process", "full_reproduction"])
    def test_published_states_read_once(self, command, capsys, monkeypatch):
        calls = count_calls(monkeypatch, dataset, "reference_rho")
        assert self.run([command], capsys)[0] == 0
        assert sorted(calls) == [(i,) for i in range(1, 11)]

    def test_certify_batch_builds_the_grid_once(self, capsys, monkeypatch, tmp_path):
        calls = count_calls(monkeypatch, certify, "phase_grid_states")
        code, _ = self.run(["certify", "--batch", "--grid", "3x2", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert len(calls) == 1
        assert len((tmp_path / "certify_batch.csv").read_text().splitlines()) == 7

    def test_certify_builds_no_certificate(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, certify, "certificate")
        code, report = self.run(["certify"], capsys)
        assert code == 0
        assert report["results"]["verdict"] == "qubit_simulable"
        assert calls == []

    def test_mub_study_cli(self, capsys):
        code, report = self.run(["mub_study", "--trials", "5", "--seed", "1"], capsys)
        assert code == 0
        assert 0.6 < report["results"]["mean_mub"] < 0.8


# The commands that also write DIR/<pipeline>.csv with --out DIR.
FOLDED = {
    "certify_batch": ["certify", "--batch", "--grid", "2x3"],
    "mub_study": ["mub_study", "--trials", "2"],
    "convergence": ["convergence", "--trials", "2"],
}


def run_with_out(argv, out_dir, name):
    """Runs a command with --out; returns its JSON report and CSV rows."""
    assert cli.main([*argv, "--out", str(out_dir)]) == 0
    with (out_dir / f"{name}.csv").open(newline="") as f:
        return json.loads((out_dir / f"{name}.json").read_text()), list(csv.reader(f))


@pytest.fixture(scope="module")
def folded_runs(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("folded")
    return {name: run_with_out(argv, out_dir, name) for name, argv in FOLDED.items()}


class TestCsv:
    def test_batch_rows(self, folded_runs):
        report, rows = folded_runs["certify_batch"]
        assert rows[0] == ["phi1", "phi2", "mu", "verdict"] and len(rows) == 1 + 6
        assert rows[2][:2] == ["0.000000", "1.047198"]
        verdicts = [r[3] for r in rows[1:]]
        assert verdicts.count("genuine_qutrit") == report["results"]["n_genuine"] == 3

    def test_mub_study_rows(self, folded_runs):
        report, rows = folded_runs["mub_study"]
        r = report["results"]
        assert rows == [["design", "value", "error"]] + [
            [d, f"{r['mean_' + d]:.6f}", f"{r['err_' + d]:.6f}"] for d in ("mub", "nonmub")
        ]

    def test_convergence_rows(self, folded_runs):
        report, rows = folded_runs["convergence"]
        r = report["results"]
        assert r["n_states"] == [1, 2, 5, 10, 20, 50]
        assert rows == [["n_states", "value", "error"]] + [
            [str(n), f"{r['converged_value']:.6f}", f"{e:.6f}"]
            for n, e in zip(r["n_states"], r["errors"])
        ]

    def test_convergence_mean_mu(self, tmp_path):
        # the one MC path through mu: a strict-JSON report, six CSV rows, and
        # the same files from a second run with the same seed
        argv = ["convergence", "--statistic", "mean_mu", "--trials", "2"]
        runs = [run_with_out(argv, tmp_path / d, "convergence") for d in ("a", "b")]
        assert runs[0] == runs[1]
        report, rows = runs[0]
        json.dumps(report, allow_nan=False)
        r = report["results"]
        assert report["config"]["statistic"] == "mean_mu"
        assert -1.0 <= r["converged_value"] <= 1.0
        assert rows == [["n_states", "value", "error"]] + [
            [str(n), f"{r['converged_value']:.6f}", f"{e:.6f}"]
            for n, e in zip([1, 2, 5, 10, 20, 50], r["errors"], strict=True)
        ]

    def test_no_csv_without_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert [cli.main(argv) for argv in FOLDED.values()] == [0, 0, 0]
        assert list(tmp_path.iterdir()) == []

    def test_batch_matrix_file(self, tmp_path):
        path = tmp_path / "chi.json"
        dataset.save_matrix(tomography.noisy_model_chi(0.7), path)
        argv = ["certify", "--batch", "--grid", "6x5"]
        bundled, _ = run_with_out(argv, tmp_path, "certify_batch")
        report, rows = run_with_out([*argv, "--matrix", str(path)], tmp_path, "certify_batch")
        assert (bundled["config"]["matrix"], report["config"]["matrix"]) == (None, str(path))
        assert bundled["results"]["n_genuine"] < report["results"]["n_genuine"] == 30
        assert {r[3] for r in rows[1:]} == {"genuine_qutrit"}


def test_readme_cli_lines_parse(tmp_path, monkeypatch):
    block = (ROOT / "README.md").read_text().split("## CLI")[1].split("```sh")[1].split("```")[0]
    lines = [shlex.split(line, comments=True) for line in block.strip().splitlines()]
    assert {line[1] for line in lines} == {name for name, _, _ in cli._COMMANDS}
    # --matrix files are read while parsing, so the example files must exist
    monkeypatch.chdir(tmp_path)
    dataset.save_matrix(np.eye(3) / 3, "state.json")
    dataset.save_matrix(tomography.noisy_model_chi(), "chi.json")
    for prog, *argv in lines:
        assert prog == "qutrit-teleport"
        cli.build_parser().parse_args(argv)


def test_cli_is_the_only_entry_point():
    needle = "scripts" + "/"  # split so that this file does not match itself
    files = [ROOT / "README.md", ROOT / "pyproject.toml"]
    files += [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
    assert [str(f) for f in files if needle in f.read_text()] == []
    assert not (ROOT / "scripts").exists()
