"""The Fig. 6a labelled-corpus study machinery."""

import pytest

from repro.core.simulation import pool_imap, shutdown_sim_pool
from repro.eval.validator_study import (StudyResult, run_study,
                                        study_one_task)
from repro.hdl import use_context


@pytest.fixture(scope="module")
def small_study():
    return run_study(["cmb_eq4", "cmb_kmap3_a", "seq_tff"],
                     samples_per_task=3, n_jobs=1)


def test_corpus_size(small_study):
    assert len(small_study.records) == 9


def test_every_record_has_all_criteria(small_study):
    for record in small_study.records:
        assert set(record.verdicts) == {"100%-wrong", "70%-wrong",
                                        "50%-wrong"}


def test_accuracy_fields(small_study):
    accuracies = small_study.accuracies()
    for name, acc in accuracies.items():
        assert set(acc) == {"total", "correct", "wrong"}
        assert 0.0 <= acc["total"] <= 1.0


def test_accuracy_definition():
    # Hand-built records: criterion A always right, criterion B always
    # wrong.
    from repro.eval.validator_study import LabelledValidation
    records = [
        LabelledValidation("t", 0, True, {"A": True, "B": False}),
        LabelledValidation("t", 1, False, {"A": False, "B": True}),
    ]
    study = StudyResult(records)
    assert study.accuracy("A") == {"total": 1.0, "correct": 1.0,
                                   "wrong": 1.0}
    assert study.accuracy("B") == {"total": 0.0, "correct": 0.0,
                                   "wrong": 0.0}


def test_single_task_study_deterministic():
    a = study_one_task("cmb_eq4", samples_per_task=2)
    b = study_one_task("cmb_eq4", samples_per_task=2)
    assert [(r.label_correct, r.verdicts) for r in a] == [
        (r.label_correct, r.verdicts) for r in b]


def test_pooled_study_matches_serial(small_study):
    pooled = run_study(["cmb_eq4", "cmb_kmap3_a", "seq_tff"],
                       samples_per_task=3, n_jobs=2)
    assert pooled.records == small_study.records


def test_pooled_study_runs_under_the_callers_context():
    """Pooled study items run under the caller's active context, not
    the workers' own: a tight ``max_stmts`` changes a label, and the
    pooled run must see it as the serial run does."""
    tasks = ["seq_count8_en", "cmb_eq4"]
    shutdown_sim_pool()
    run_study(tasks, samples_per_task=1, group_size=4, n_jobs=1)
    list(pool_imap(str, range(4), 2))  # a fork pool of warm workers
    with use_context(max_stmts=200):
        pooled = run_study(tasks, samples_per_task=2, group_size=4,
                           n_jobs=2)
        serial = run_study(tasks, samples_per_task=2, group_size=4,
                           n_jobs=1)
    shutdown_sim_pool()
    assert not serial.records[0].label_correct
    assert pooled.records == serial.records
