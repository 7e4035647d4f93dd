"""End-to-end service tests over real sockets.

Every documented endpoint, error code and operational behaviour from
docs/service.md is exercised here: the happy paths, the 4xx surface,
queue-full backpressure (429 + Retry-After), pool break-and-heal
without request loss, drain-on-shutdown, and one shared template cache
whatever tenant a request names.
"""

import http.client
import json
import os
import signal
import threading
import time
from contextlib import contextmanager

import pytest

from repro.codegen import render_driver
from repro.core.caches import caches
from repro.core.simulation import (clear_simulation_caches, get_sim_pool,
                                   run_driver_batch, shutdown_sim_pool,
                                   sim_pool_info)
from repro.hdl import current_context
from repro.problems import get_task
from repro.service import ServiceConfig, ServiceThread

PASSING_TB = """
module tb;
    initial begin
        $display("ALL_TESTS_PASSED");
        $finish;
    end
endmodule
"""


def _fixture():
    task = get_task("cmb_eq4")
    driver = render_driver(task, task.canonical_scenarios())
    return driver, task.golden_rtl()


@contextmanager
def running_service(context=None, **config_kwargs):
    config_kwargs.setdefault("port", 0)
    service = ServiceThread(ServiceConfig(**config_kwargs), context)
    service.start()
    try:
        yield service
    finally:
        service.stop()


def _request(service, method, path, body=None, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", service.port,
                                            timeout=60)
    try:
        payload = json.dumps(body) if isinstance(body, dict) else body
        connection.request(method, path, body=payload,
                           headers=headers or {})
        response = connection.getresponse()
        raw = response.read()
        data = json.loads(raw) if raw else None
        return response.status, data, dict(response.getheaders())
    finally:
        connection.close()


class TestEndpoints:
    def test_healthz(self):
        with running_service() as service:
            status, data, _ = _request(service, "GET", "/v1/healthz")
        assert (status, data) == (200, {"status": "ok"})

    def test_simulate_hybrid_round_trip(self):
        driver, dut = _fixture()
        with running_service() as service:
            status, data, _ = _request(
                service, "POST", "/v1/simulate",
                {"driver": driver, "dut": dut})
        assert status == 200
        assert data["status"] == "ok"
        assert data["records"], "hybrid sweep must return check-points"
        assert {"scenario", "values"} <= set(data["records"][0])

    def test_simulate_monolithic_round_trip(self):
        _, dut = _fixture()
        with running_service() as service:
            status, data, _ = _request(
                service, "POST", "/v1/simulate",
                {"driver": PASSING_TB, "dut": dut, "kind": "monolithic"})
        assert status == 200
        assert data["status"] == "ok"
        assert data["verdict"] is True

    def test_generate_round_trip(self):
        with running_service() as service:
            status, data, _ = _request(
                service, "POST", "/v1/generate",
                {"task": "cmb_and2", "method": "baseline"})
        assert status == 200
        assert data["task"] == "cmb_and2"
        assert data["method"] == "baseline"
        assert {"validated", "corrections", "usage"} <= set(data)

    def test_status_telemetry_shape(self):
        driver, dut = _fixture()
        with running_service() as service:
            _request(service, "POST", "/v1/simulate",
                     {"driver": driver, "dut": dut})
            status, data, _ = _request(service, "GET", "/v1/status")
        assert status == 200
        assert data["service"]["requests_total"] >= 1
        assert data["service"]["queue"]["limit"] \
            == ServiceConfig().queue_limit
        assert {"batches", "jobs", "sizes"} <= set(data["batcher"])
        # The sim_pool block carries the PR-8 load fields.
        assert {"queue_depth", "in_flight"} <= set(data["sim_pool"])
        assert "pair" in data["caches"]
        assert {"hits", "misses", "size", "failures"} \
            <= set(data["caches"]["parse"])

    def test_context_headers_reach_the_simulation(self):
        driver, dut = _fixture()
        with running_service() as service:
            status, data, _ = _request(
                service, "POST", "/v1/simulate",
                {"driver": driver, "dut": dut},
                headers={"X-Repro-Max-Time": "200000",
                         "X-Repro-Max-Stmts": "4000000"})
            starved = _request(
                service, "POST", "/v1/simulate",
                {"driver": driver, "dut": dut},
                headers={"X-Repro-Max-Time": "1"})
            body_override = _request(
                service, "POST", "/v1/simulate",
                {"driver": driver, "dut": dut,
                 "context": {"max_time": 1}})
        assert status == 200 and data["status"] == "ok"
        # A starved time budget reaches the run from either source.
        assert starved[0] == 200 and starved[1]["status"] == "runtime"
        assert body_override[0] == 200
        assert body_override[1]["status"] == "runtime"


class TestErrorSurface:
    def test_unknown_endpoint_404(self):
        with running_service() as service:
            status, data, _ = _request(service, "GET", "/v1/nope")
        assert status == 404
        assert data["error"]["code"] == "not-found"

    def test_wrong_method_405_with_allow(self):
        with running_service() as service:
            status, data, headers = _request(service, "DELETE",
                                             "/v1/simulate")
        assert status == 405
        assert headers["Allow"] == "POST"

    def test_bad_json_400(self):
        with running_service() as service:
            status, data, _ = _request(service, "POST", "/v1/simulate",
                                       "{not json")
        assert status == 400
        assert data["error"]["code"] == "protocol-error"

    def test_missing_driver_400(self):
        with running_service() as service:
            status, data, _ = _request(service, "POST", "/v1/simulate",
                                       {"dut": "module m; endmodule"})
        assert status == 400
        assert data["error"]["code"] == "bad-request"
        assert "driver" in data["error"]["detail"]

    def test_unknown_context_field_400(self):
        driver, dut = _fixture()
        with running_service() as service:
            status, data, _ = _request(
                service, "POST", "/v1/simulate",
                {"driver": driver, "dut": dut, "context": {"jobs": 4}})
        assert status == 400
        assert data["error"]["code"] == "bad-context"
        assert "jobs" in data["error"]["detail"]

    def test_bad_engine_value_400(self):
        # There is one engine: naming any is an unknown request field.
        driver, dut = _fixture()
        with running_service() as service:
            status, data, _ = _request(
                service, "POST", "/v1/simulate",
                {"driver": driver, "dut": dut,
                 "context": {"engine": "compiled"}})
        assert status == 400
        assert data["error"]["code"] == "bad-context"
        assert "('max_time', 'max_stmts')" in data["error"]["detail"]

    def test_bool_limit_400(self):
        # JSON true is not a one-unit limit.
        driver, dut = _fixture()
        with running_service() as service:
            for name in ("max_time", "max_stmts"):
                status, data, _ = _request(
                    service, "POST", "/v1/simulate",
                    {"driver": driver, "dut": dut, "context": {name: True}})
                assert status == 400
                assert data["error"]["code"] == "bad-context"
                assert name in data["error"]["detail"]

    def test_bad_kind_400(self):
        driver, dut = _fixture()
        with running_service() as service:
            status, data, _ = _request(
                service, "POST", "/v1/simulate",
                {"driver": driver, "dut": dut, "kind": "sideways"})
        assert status == 400

    def test_generate_validation_400s(self):
        with running_service() as service:
            for body in ({"task": "no_such_task"},
                         {"task": "cmb_and2", "method": "no_such"},
                         {"task": "cmb_and2", "seed": "zero"},
                         {"task": "cmb_and2", "model": "no_such_model"},
                         {"task": "cmb_and2", "criterion": "no_such"}):
                status, data, _ = _request(service, "POST",
                                           "/v1/generate", body)
                assert status == 400, body
                assert data["error"]["code"] == "bad-request"

    def test_oversized_body_413(self):
        with running_service(max_body=512) as service:
            status, data, _ = _request(
                service, "POST", "/v1/simulate",
                {"driver": "x" * 2048, "dut": "m"})
        assert status == 413


class TestBackendSelector:
    """The /v1/generate ``"backend"`` whitelist: a request may pick
    synthetic or the backend the server was *started* with — never
    point a shared server at a new endpoint."""

    def test_default_server_only_allows_synthetic(self):
        with running_service() as service:
            ok_status, ok_data, _ = _request(
                service, "POST", "/v1/generate",
                {"task": "cmb_and2", "method": "baseline",
                 "backend": "synthetic"})
            bad_status, bad_data, _ = _request(
                service, "POST", "/v1/generate",
                {"task": "cmb_and2", "method": "baseline",
                 "backend": "ollama"})
            type_status, type_data, _ = _request(
                service, "POST", "/v1/generate",
                {"task": "cmb_and2", "method": "baseline",
                 "backend": 7})
        assert ok_status == 200 and ok_data["method"] == "baseline"
        assert bad_status == 400
        assert bad_data["error"]["code"] == "bad-backend"
        assert "synthetic" in bad_data["error"]["detail"]
        assert type_status == 400
        assert type_data["error"]["code"] == "bad-backend"

    def test_enabled_backend_is_selectable_and_records(self, tmp_path):
        context = current_context().evolve(
            llm_backend="fixture+synthetic",
            llm_fixture_dir=str(tmp_path))
        with running_service(context) as service:
            status, data, _ = _request(
                service, "POST", "/v1/generate",
                {"task": "cmb_and2", "method": "baseline",
                 "backend": "fixture+synthetic", "model": "gpt-4o-mini"})
            synth_status, _, _ = _request(
                service, "POST", "/v1/generate",
                {"task": "cmb_and2", "method": "baseline",
                 "backend": "synthetic", "model": "gpt-4o-mini"})
            denied_status, denied_data, _ = _request(
                service, "POST", "/v1/generate",
                {"task": "cmb_and2", "method": "baseline",
                 "backend": "hf"})
        assert status == 200
        fixtures = list(tmp_path.glob("*.fixture.jsonl"))
        assert fixtures, "the selected fixture backend must record"
        assert synth_status == 200
        assert denied_status == 400
        assert denied_data["error"]["code"] == "bad-backend"

    def test_live_model_ids_skip_the_profile_check(self, tmp_path):
        # On a fixture-replay (or live) tier the model is a provider
        # id, not a synthetic profile name — it must not be rejected by
        # the profile table.  (On any tier bottoming out in synthetic
        # it still is: see test_generate_validation_400s.)
        from repro.eval.campaign import run_one

        record_context = current_context().evolve(
            llm_backend="fixture+synthetic", llm_model="qwen2.5:7b",
            llm_fixture_dir=str(tmp_path))
        run_one("baseline", "cmb_and2", 0, profile_name="gpt-4o-mini",
                context=record_context)
        replay_context = current_context().evolve(
            llm_backend="fixture", llm_fixture_dir=str(tmp_path))
        with running_service(replay_context) as service:
            status, data, _ = _request(
                service, "POST", "/v1/generate",
                {"task": "cmb_and2", "method": "baseline",
                 "model": "qwen2.5:7b", "seed": 0})
        assert status == 200
        assert {"level", "usage"} <= set(data)


class TestBackpressure:
    def test_queue_full_429_with_retry_after(self):
        """With queue_limit=1 and a long batch window, the first
        request parks admitted; the second must be rejected with 429 +
        Retry-After — and the first must still complete."""
        driver, dut = _fixture()
        results = {}

        with running_service(queue_limit=1, batch_window_ms=60_000,
                             drain_timeout=60) as service:
            def first():
                results["first"] = _request(
                    service, "POST", "/v1/simulate",
                    {"driver": driver, "dut": dut})

            worker = threading.Thread(target=first)
            worker.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                status, data, _ = _request(service, "GET", "/v1/status")
                if data["service"]["queue"]["admitted"] == 1:
                    break
                time.sleep(0.01)
            else:  # pragma: no cover - diagnostic
                pytest.fail("first request never parked in the window")

            status, data, headers = _request(
                service, "POST", "/v1/simulate",
                {"driver": driver, "dut": dut})
            assert status == 429
            assert data["error"]["code"] == "queue-full"
            assert int(headers["Retry-After"]) >= 1
            # Drain (service.stop in the context exit) flushes the
            # parked window; the admitted request is never dropped.
        worker.join(timeout=60)
        assert results["first"][0] == 200
        assert results["first"][1]["status"] == "ok"

    def test_shutdown_drains_in_flight_work(self):
        driver, dut = _fixture()
        results = {}
        with running_service(batch_window_ms=500) as service:
            def park():
                results["parked"] = _request(
                    service, "POST", "/v1/simulate",
                    {"driver": driver, "dut": dut})

            worker = threading.Thread(target=park)
            worker.start()
            time.sleep(0.1)  # request sits in the open batch window
            # Context exit -> stop(drain=True): flush + wait.
        worker.join(timeout=60)
        assert results["parked"][0] == 200
        assert results["parked"][1]["status"] == "ok"


class TestPoolHealing:
    def test_worker_crash_heals_without_request_loss(self):
        """Kill a sim-pool worker, then serve a coalesced batch that
        fans out to the pool: the batch API heals the pool and every
        request is answered."""
        driver, dut = _fixture()
        # A distinct design (batches dedup DUTs by parse tree, so a
        # comment would not make a second pool item).
        variant = dut.replace("endmodule", "wire variant;\nendmodule")
        shutdown_sim_pool()
        get_sim_pool(2)
        # Workers spawn lazily; run one warm-up batch so there is a
        # live worker to kill.
        run_driver_batch(driver, [dut, variant], jobs=2)
        victim = sim_pool_info()["pids"][0]
        os.kill(victim, signal.SIGKILL)

        context = current_context().evolve(jobs=2)
        results = []
        with running_service(context=context,
                             batch_window_ms=500) as service:
            def post(body):
                results.append(_request(service, "POST", "/v1/simulate",
                                        body))

            workers = [
                threading.Thread(target=post, args=(
                    {"driver": driver, "dut": target},))
                for target in (dut, variant)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)

        assert len(results) == 2
        for status, data, _ in results:
            assert status == 200
            assert data["status"] == "ok"
        assert sim_pool_info()["alive"]
        shutdown_sim_pool()


class TestTenantIgnored:
    def test_tenant_field_and_header_are_ignored(self):
        """Every caller shares one template cache: a ``"tenant"`` field
        and an ``X-Repro-Tenant`` header change nothing."""
        driver, dut = _fixture()
        body = {"driver": driver, "dut": dut}
        clear_simulation_caches()
        with running_service() as service:
            responses = [
                _request(service, "POST", "/v1/simulate",
                         dict(body, tenant="alpha")),
                _request(service, "POST", "/v1/simulate", body,
                         headers={"X-Repro-Tenant": "gamma"}),
                _request(service, "POST", "/v1/simulate", body),
            ]
        assert [status for status, _, _ in responses] == [200] * 3
        payloads = [data for _, data, _ in responses]
        assert payloads[0]["status"] == "ok"
        assert payloads[1] == payloads[0] and payloads[2] == payloads[0]
        assert caches.stats()["pair"]["size"] == 1
        clear_simulation_caches()


class TestBatchingCorrectness:
    def test_coalesced_results_match_serial(self):
        driver, dut = _fixture()
        variants = [dut] + [
            dut.replace("endmodule", f"\n// v{index}\nendmodule")
            for index in range(3)]

        with running_service(batch_max=1) as service:  # serial
            serial = [
                _request(service, "POST", "/v1/simulate",
                         {"driver": driver, "dut": variant})
                for variant in variants]

        batched = [None] * len(variants)
        with running_service(batch_window_ms=200) as service:
            def post(index):
                batched[index] = _request(
                    service, "POST", "/v1/simulate",
                    {"driver": driver, "dut": variants[index]})

            workers = [threading.Thread(target=post, args=(index,))
                       for index in range(len(variants))]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
            _, telemetry, _ = _request(service, "GET", "/v1/status")

        for serial_result, batched_result in zip(serial, batched):
            assert serial_result[0] == batched_result[0] == 200
            assert serial_result[1]["records"] \
                == batched_result[1]["records"]
        # At least one multi-job batch actually formed.
        assert telemetry["batcher"]["max_batch"] >= 2


    def test_oversized_literal_is_typed_for_its_whole_window(self):
        # A 5,000-digit literal once raised a bare ValueError out of the
        # lexer, which failed every request coalesced with it as a 500.
        driver, dut = _fixture()
        hostile = dut.replace("endmodule",
                              f"wire [3:0] w = {'9' * 5000};\nendmodule")
        duts = [dut, hostile]
        results = [None] * len(duts)
        with running_service(batch_window_ms=200) as service:
            def post(index):
                results[index] = _request(
                    service, "POST", "/v1/simulate",
                    {"driver": driver, "dut": duts[index]})

            workers = [threading.Thread(target=post, args=(index,))
                       for index in range(len(duts))]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        (good_status, good), (bad_status, bad) = (
            (status, data) for status, data, _ in results)
        assert (good_status, good["status"]) == (200, "ok")
        assert (bad_status, bad["status"]) == (200, "syntax")
        assert "literal has unsupported width 16610" in bad["detail"]


class TestCliStatus:
    def test_serve_status_prints_telemetry(self, capsys):
        from repro.cli import main
        with running_service() as service:
            code = main(["serve", "--status", "--port",
                         str(service.port)])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert "service" in printed and "sim_pool" in printed

    def test_serve_status_unreachable_fails(self, capsys):
        from repro.cli import main
        code = main(["serve", "--status", "--port", "1"])
        assert code == 1
