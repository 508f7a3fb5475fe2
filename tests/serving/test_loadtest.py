"""Tests for the one bounded load driver, ``repro.serving.run_load_test``.

The driver replays a seeded workload from thread lanes sharing a target or
from spawned client processes against a ``ServingClient``'s server.  These
tests pin its contract at the edges: it refuses to run without a client,
spawned clients inherit the target client's settings, a client process that
dies mid-run is reported as a :class:`LoadTestError` (never a bare
``EOFError``) with every other client reaped, and ``dpsc bench-load`` runs
its lanes end to end.  The server here runs in a thread of the test
process, so no worker process is in the way of the client processes.
"""

from __future__ import annotations

import json
import multiprocessing
import signal
import threading

import pytest

from repro.cli import main
from repro.exceptions import ReproError
from repro.serving import (
    LoadTestError,
    QueryService,
    ServingClient,
    create_server,
    execute_operation,
    generate_workload,
    run_load_test,
)
from tests.serving.test_release_format import make_structure


@pytest.fixture(scope="module")
def service():
    service = QueryService(
        {
            "one": make_structure({"ab": 5.0, "ba": 3.0, "abb": 1.5}),
            "two": make_structure({"ab": 2.0, "bb": 7.25, "bab": 4.0}),
        }
    )
    yield service
    service.close()


@pytest.fixture(scope="module")
def url(service):
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _workload(service, size):
    workload = generate_workload(service, size, seed=5)
    return workload, [execute_operation(service, op) for op in workload]


class TestLanes:
    @pytest.mark.parametrize(
        "lanes", [{"threads": 0}, {"threads": -1}, {"processes": 0}]
    )
    def test_fewer_than_one_client_is_rejected(self, service, lanes):
        workload, expected = _workload(service, 20)
        with pytest.raises(ReproError, match="at least one client"):
            run_load_test(service, workload, expected=expected, **lanes)

    def test_threads_and_processes_together_are_rejected(self, service):
        with pytest.raises(ReproError, match="not both"):
            run_load_test(service, [], threads=2, processes=2)

    def test_processes_need_an_http_target(self, service):
        workload, expected = _workload(service, 20)
        with pytest.raises(ReproError, match="HTTP target"):
            run_load_test(service, workload, processes=1, expected=expected)

    def test_mid_run_is_called_once_after_release(self, service):
        workload, expected = _workload(service, 200)
        calls = []
        result = run_load_test(
            service,
            workload,
            threads=4,
            expected=expected,
            check=True,
            mid_run=lambda: calls.append(True),
        )
        assert calls == [True]
        assert result.threads == 4 and result.processes == 0

    def test_process_lanes_are_bit_identical(self, service, url):
        workload, expected = _workload(service, 120)
        with ServingClient(url) as target:
            result = run_load_test(
                target, workload, processes=2, expected=expected, check=True
            )
        assert result.bit_identical and result.counters_consistent
        assert result.processes == 2 and result.threads == 0
        assert result.operations == 120


class TestClientProcesses:
    def test_child_honours_the_target_timeout(self, service, url):
        workload, expected = _workload(service, 12)
        with ServingClient(url, timeout=1e-6, retries=0) as target:
            result = run_load_test(
                target,
                workload,
                processes=1,
                expected=expected,
                verify_counters=False,
            )
        # a child with the default per-endpoint budgets would answer them all
        assert len(result.errors) == len(workload)
        assert all("deadline of 1e-06s exceeded" in error for error in result.errors)

    def test_dead_client_raises_load_test_error_and_is_reaped(self, service, url):
        workload, expected = _workload(service, 2_000)

        def clients():
            return [
                process
                for process in multiprocessing.active_children()
                if process.name.startswith("loadtest-client-")
            ]

        def kill_clients():
            assert len(clients()) == 2
            for process in clients():
                process.kill()

        with ServingClient(url) as target:
            with pytest.raises(LoadTestError) as raised:
                run_load_test(
                    target,
                    workload,
                    processes=2,
                    expected=expected,
                    mid_run=kill_clients,
                )
        message = str(raised.value)
        assert "client process 0 died before sending its results" in message
        assert f"exit code {-signal.SIGKILL}" in message
        assert clients() == []


class TestBenchLoadCli:
    def test_in_process_thread_lanes(self, tmp_path, capsys):
        output = tmp_path / "rows.json"
        argv = ["bench-load", "--threads", "1,2", "--n", "200", "--ell", "10"]
        argv += ["--ops", "100", "--json", str(output)]
        assert main(argv) == 0
        rows = json.loads(output.read_text())["results"]
        assert [row["threads"] for row in rows] == [1, 2]
        assert all(row["bit_identical"] for row in rows)
        assert all(row["counters_consistent"] for row in rows)
        assert "2t" in capsys.readouterr().out
