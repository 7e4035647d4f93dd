"""What a run loads: a synthetic serial campaign imports none of the
stacks that only the live backends, the thread fan-out, the sim pool
and the service use.

Those stacks are about half of a campaign's peak RSS, so they load on
first use.  Each check runs in a fresh interpreter: in this process,
other tests have already imported them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Modules a synthetic serial campaign must not load.
UNUSED_STACKS = ("urllib.request", "http.client", "ssl", "email", "socket",
                 "multiprocessing", "concurrent.futures", "asyncio")

CAMPAIGN = ["campaign", "--tasks", "cmb_eq4", "--methods", "baseline"]


def _env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def _python(*args: str) -> subprocess.CompletedProcess:
    result = subprocess.run([sys.executable, *args], env=_env(),
                            cwd=REPO_ROOT, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    return result


def _loaded_after(code: str) -> list[str]:
    """The unused stacks loaded once ``code`` ran in a fresh process."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([name for name in {UNUSED_STACKS!r} "
             f"if name in sys.modules]))")
    return json.loads(_python("-c", probe).stdout.splitlines()[-1])


def test_run_campaign_loads_no_unused_stack():
    """Pool telemetry and shutdown work without a pool, too."""
    assert _loaded_after(
        "from repro.core.simulation import sim_pool_info, shutdown_sim_pool\n"
        "from repro.eval.campaign import CampaignConfig, run_campaign\n"
        "result = run_campaign(CampaignConfig(task_ids=('cmb_eq4',),"
        " methods=('baseline',)))\n"
        "assert len(result.runs) == 1\n"
        "assert not sim_pool_info()['alive']\n"
        "shutdown_sim_pool()") == []


def test_cli_campaign_loads_no_unused_stack():
    assert _loaded_after(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    assert main({CAMPAIGN!r}) == 0\n"
        "assert 'TABLE I' in out.getvalue()") == []


def test_pooled_campaign_loads_the_pool_on_first_use():
    serial = _python("-m", "repro.cli", *CAMPAIGN)
    pooled = _python("-m", "repro.cli", *CAMPAIGN, "--jobs", "2")
    assert serial.stdout
    assert pooled.stdout == serial.stdout


def test_post_json_timeout_is_typed_in_a_fresh_process():
    """The transport imports ``urllib`` when it first sends, and a read
    timeout still maps to ``BackendTimeout``."""
    _python("-c", (
        "import sys\n"
        f"sys.path.insert(0, {str(REPO_ROOT / 'tests' / 'llm')!r})\n"
        "from stub_server import StubLLMServer, stall\n"
        "from repro.llm.backends import BackendTimeout\n"
        "from repro.llm.backends.http import post_json\n"
        "assert 'urllib.request' not in sys.modules\n"
        "server = StubLLMServer()\n"
        "server.script([stall(1.0)])\n"
        "try:\n"
        "    post_json(server.base_url + '/api/chat', {}, timeout=0.2,\n"
        "              backend='stub')\n"
        "except BackendTimeout as exc:\n"
        "    assert 'timed out' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('no BackendTimeout')\n"
        "finally:\n"
        "    server.close()\n"))
