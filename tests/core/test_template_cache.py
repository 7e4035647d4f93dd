"""DesignTemplate caching layers: failure caching, LRU behavior under
campaign-scale churn, and stamped-state isolation between concurrent
checkouts."""

import threading
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.simulation as sim
from repro.core.simulation import (ELABORATION, TEMPLATE_CACHE_SIZE,
                                   clear_simulation_caches,
                                   design_template, run_driver,
                                   simulation_cache_stats)
from repro.codegen import render_driver
from repro.hdl.errors import ElaborationError, VerilogSyntaxError
from repro.problems import get_task

BAD_ELAB = ("module m(output o);\n"
            "assign o = ghost;\n"
            "endmodule")
BAD_SYNTAX = "module m(; endmodule"
GOOD = ("module m(output o);\n"
        "wire ghost = 1'b0;\n"
        "assign o = ghost;\n"
        "endmodule")


def _front_end_must_not_run(*args, **kwargs):
    raise AssertionError("front end re-ran for a cached failure")


class TestFailureCaching:
    def test_elaboration_failure_cached_with_fidelity(self, monkeypatch):
        clear_simulation_caches()
        with pytest.raises(ElaborationError) as first:
            design_template(BAD_ELAB, "m")
        hits_before = simulation_cache_stats()["failure"]["hits"]

        # The recorded failure must re-raise without re-elaborating.
        monkeypatch.setattr(sim, "elaborate", _front_end_must_not_run)
        with pytest.raises(ElaborationError) as second:
            design_template(BAD_ELAB, "m")
        assert type(second.value) is type(first.value)
        assert str(second.value) == str(first.value)
        assert simulation_cache_stats()["failure"]["hits"] \
            == hits_before + 1

    def test_syntax_failure_cached(self, monkeypatch):
        clear_simulation_caches()
        with pytest.raises(VerilogSyntaxError) as first:
            design_template(BAD_SYNTAX, "m")
        monkeypatch.setattr(sim, "parse_cached", _front_end_must_not_run)
        monkeypatch.setattr(sim, "elaborate", _front_end_must_not_run)
        with pytest.raises(VerilogSyntaxError) as second:
            design_template(BAD_SYNTAX, "m")
        assert str(second.value) == str(first.value)

    def test_repeated_hits_do_not_grow_traceback(self):
        """The cached exception instance is shared across hits; each
        re-raise must shed the previous traceback instead of chaining
        frames forever (a hit-proportional memory leak otherwise)."""
        clear_simulation_caches()
        depths = []
        for _ in range(5):
            try:
                design_template(BAD_ELAB, "m")
            except ElaborationError as exc:
                depth, tb = 0, exc.__traceback__
                while tb is not None:
                    depth += 1
                    tb = tb.tb_next
                depths.append(depth)
        assert len(depths) == 5
        # Every cache hit re-raises with the same, constant-depth
        # traceback — no growth across hits.
        assert len(set(depths[1:])) == 1

    def test_source_change_invalidates(self):
        """A fixed source is a new key: the failure for the broken text
        must not shadow the corrected design."""
        clear_simulation_caches()
        with pytest.raises(ElaborationError):
            design_template(BAD_ELAB, "m")
        template = design_template(GOOD, "m")
        result = template.run()
        assert result.design.signal("o").value.to_uint() == 0

    def test_clear_drops_cached_failures(self, monkeypatch):
        clear_simulation_caches()
        with pytest.raises(ElaborationError):
            design_template(BAD_ELAB, "m")
        assert simulation_cache_stats()["failure"]["size"] == 1
        clear_simulation_caches()
        assert simulation_cache_stats()["failure"]["size"] == 0
        # After clearing, the front end genuinely re-runs.
        with pytest.raises(ElaborationError):
            design_template(BAD_ELAB, "m")

    def test_pair_failures_cached_through_run_driver(self):
        """Non-elaborating mutants in a sweep hit the failure cache on
        every run after the first, with an identical detail string."""
        clear_simulation_caches()
        task = get_task("cmb_eq4")
        driver = render_driver(task, task.canonical_scenarios())
        bad_dut = ("module top_module(input x, output y);\n"
                   "assign y = x;\n"
                   "endmodule")
        first = run_driver(driver, bad_dut)
        assert first.status == ELABORATION
        hits_before = simulation_cache_stats()["failure"]["hits"]
        second = run_driver(driver, bad_dut)
        assert second.status == ELABORATION
        assert second.detail == first.detail
        assert simulation_cache_stats()["failure"]["hits"] > hits_before


# ----------------------------------------------------------------------
# LRU behavior under churn
# ----------------------------------------------------------------------
def _tiny_src(index: int) -> str:
    return ("module m;\n"
            f"    localparam V = {index};\n"
            "    wire [9:0] w = V;\n"
            "endmodule")


def test_eviction_order_is_lru():
    clear_simulation_caches()
    first = design_template(_tiny_src(0), "m")
    for index in range(1, TEMPLATE_CACHE_SIZE + 1):
        design_template(_tiny_src(index), "m")
    # One key past capacity: the oldest fell out...
    assert design_template(_tiny_src(0), "m") is not first
    # ...and a recently-inserted key survived (identity preserved).
    recent = design_template(_tiny_src(TEMPLATE_CACHE_SIZE), "m")
    assert design_template(_tiny_src(TEMPLATE_CACHE_SIZE), "m") is recent


#: Random accesses touch keys 0..299; filler keys start above them and
#: leave this much headroom, so an access sequence crosses capacity.
_FILL_HEADROOM = 64


@settings(max_examples=5, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=299),
                min_size=1, max_size=320))
def test_lru_agrees_with_model(accesses):
    """Random access sequences against an explicit LRU model: a key the
    model still holds must return the identical template object; the
    model mirrors lru_cache's move-to-front-on-hit policy exactly.  The
    cache is pre-filled to near ``TEMPLATE_CACHE_SIZE`` so the sequence
    evicts."""
    clear_simulation_caches()
    model: OrderedDict = OrderedDict()
    for index in range(1000, 1000 + TEMPLATE_CACHE_SIZE - _FILL_HEADROOM):
        model[index] = design_template(_tiny_src(index), "m")
    for index in accesses:
        expected = model.get(index)
        template = design_template(_tiny_src(index), "m")
        if expected is not None:
            assert template is expected, \
                "cache dropped or replaced a live entry"
            model.move_to_end(index)
        else:
            model[index] = template
            if len(model) > TEMPLATE_CACHE_SIZE:
                model.popitem(last=False)
    assert simulation_cache_stats()["design"]["size"] == len(model)


# ----------------------------------------------------------------------
# Stamped-state isolation between concurrent checkouts
# ----------------------------------------------------------------------
STATEFUL_TB = """
module tb;
    reg [7:0] count;
    integer i;
    initial begin
        count = 8'd1;
        for (i = 0; i < 5; i = i + 1) count = count + count;
        #3 $display("count=%d t=%0t", count, $time);
        $finish;
    end
endmodule
"""


def test_concurrent_checkouts_are_isolated():
    """Many threads re-running the same (and a second) template must
    each observe a full, uncontaminated run: the template's stamped
    state never leaks between checkouts."""
    clear_simulation_caches()
    template_a = design_template(STATEFUL_TB, "tb")
    template_b = design_template(STATEFUL_TB.replace("5", "3"), "tb")
    ref_a = template_a.run()
    ref_b = template_b.run()
    assert ref_a.stdout != ref_b.stdout  # genuinely different designs

    outcomes: list = []
    errors: list = []

    def worker(template, reference):
        try:
            for _ in range(8):
                result = template.run()
                outcomes.append(
                    (tuple(result.stdout), result.sim_time,
                     result.finished) ==
                    (tuple(reference.stdout), reference.sim_time, True))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(template_a, ref_a))
               for _ in range(3)]
    threads += [threading.Thread(target=worker, args=(template_b, ref_b))
                for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(outcomes) == 48
    assert all(outcomes)
