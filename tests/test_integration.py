"""End-to-end integration: full CorrectBench runs, cross-method ordering,
determinism, and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import quick_run
from repro.cli import main as cli_main
from repro.eval import EvalLevel
from repro.eval.campaign import (METHOD_AUTOBENCH, METHOD_BASELINE,
                                 METHOD_CORRECTBENCH, default_config,
                                 run_campaign)
from repro.eval.metrics import level_stat

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestQuickRun:
    def test_easy_task_passes(self):
        result, level = quick_run("cmb_mux2to1_1b", seed=0)
        assert level == EvalLevel.EVAL2
        assert result.final_tb.task_id == "cmb_mux2to1_1b"

    def test_deterministic_end_to_end(self):
        a_result, a_level = quick_run("seq_serial_parity", seed=2)
        b_result, b_level = quick_run("seq_serial_parity", seed=2)
        assert a_level == b_level
        assert a_result.final_tb.checker_src == b_result.final_tb.checker_src
        assert a_result.history == b_result.history


class TestMethodOrdering:
    @pytest.fixture(scope="class")
    def slice_result(self):
        from repro.problems import dataset_slice
        tasks = [t.task_id for t in dataset_slice(8, 8, stride=5)]
        return run_campaign(default_config(task_ids=tasks, seeds=(0, 1),
                                           n_jobs=4))

    def test_correctbench_beats_autobench_beats_baseline(
            self, slice_result):
        scores = {
            method: level_stat(slice_result, method, "Total",
                               EvalLevel.EVAL2).ratio
            for method in (METHOD_CORRECTBENCH, METHOD_AUTOBENCH,
                           METHOD_BASELINE)}
        assert scores[METHOD_CORRECTBENCH] >= scores[METHOD_AUTOBENCH]
        assert scores[METHOD_AUTOBENCH] >= scores[METHOD_BASELINE]

    def test_seq_harder_than_cmb_for_baseline(self, slice_result):
        cmb = level_stat(slice_result, METHOD_BASELINE, "CMB",
                         EvalLevel.EVAL2).ratio
        seq = level_stat(slice_result, METHOD_BASELINE, "SEQ",
                         EvalLevel.EVAL2).ratio
        assert cmb >= seq

    def test_correctbench_eval0_near_perfect(self, slice_result):
        eval0 = level_stat(slice_result, METHOD_CORRECTBENCH, "Total",
                           EvalLevel.EVAL0).ratio
        assert eval0 >= 0.9


class TestCli:
    def test_dataset_listing(self, capsys):
        assert cli_main(["dataset"]) == 0
        out = capsys.readouterr().out
        assert "156 tasks" in out

    def test_dataset_show_task(self, capsys):
        assert cli_main(["dataset", "--task", "cmb_eq4",
                         "--show-rtl"]) == 0
        out = capsys.readouterr().out
        assert "top_module" in out

    def test_run_autobench(self, capsys):
        assert cli_main(["run", "cmb_and2", "--method", "autobench"]) == 0
        out = capsys.readouterr().out
        assert "AutoEval:" in out
        assert "tokens:" in out

    def test_validate_prints_matrix(self, capsys):
        assert cli_main(["validate", "cmb_and2"]) == 0
        out = capsys.readouterr().out
        assert "verdict:" in out
        assert "RTL\\Scn" in out

    def test_campaign_small(self, capsys):
        assert cli_main(["campaign", "--tasks", "cmb_and2,seq_dff",
                         "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "TABLE III" in out

    def test_campaign_refuses_a_foreign_store_in_one_line(self, tmp_path,
                                                          capsys):
        store = tmp_path / "v2store"
        store.mkdir()
        (store / "manifest.json").write_text(json.dumps({"version": 2}))
        assert cli_main(["campaign", "--tasks", "cmb_and2",
                         "--methods", "baseline", "--store", str(store),
                         "--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: campaign store {store} has version 2; "
            f"this build reads 3"]


def _cli_campaign(extra_env: dict) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items()
           if key != "REPRO_JOBS"}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "campaign", "--jobs", "2",
         "--tasks", "cmb_alu8,cmb_eq4", "--methods", "baseline"],
        env=env, cwd=REPO_ROOT, capture_output=True, timeout=60)


def test_pooled_campaign_under_context_jobs_matches_plain_run():
    """``REPRO_JOBS`` sets the context's ``jobs`` inside every pooled
    item too; the items' sweeps must still run where the item runs, so
    the campaign finishes and prints the same bytes."""
    plain = _cli_campaign({})
    pooled = _cli_campaign({"REPRO_JOBS": "2"})
    assert plain.returncode == 0, plain.stderr
    assert pooled.returncode == 0, pooled.stderr
    assert pooled.stdout == plain.stdout


def test_campaign_into_a_closed_pipe_exits_quietly():
    """``correctbench campaign ... | head`` used to end with a
    ``BrokenPipeError`` traceback.  Here stdout is a pipe whose reader
    is gone before anything is written: the command stops, prints no
    traceback and exits with the documented status."""
    from repro.cli import EXIT_BROKEN_PIPE

    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "campaign",
             "--tasks", "cmb_eq4", "--methods", "baseline"],
            env=env, cwd=REPO_ROOT, stdout=write_end,
            stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE == 141
    assert proc.stderr == b""
