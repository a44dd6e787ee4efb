import multiprocessing
import os
import signal
import time

import pytest

from rdgap import _parallel, gapopt, simulator, spectra

TWO_LEVEL = spectra.parse_spectrum("1.8:0.5,0.2:0.5")


# Each case runs at threads=1 and threads=2; trial counts span several units.
SPAWN_CASES = {
    "scheme": lambda threads: simulator.run_universal_scheme(
        simulator.SimConfig(n=8, rate_bits=1.0, spectrum=TWO_LEVEL, trials=600, seed=3,
                            rotation="haar", tau_delta=0.1),
        threads=threads),
    "success": lambda threads: simulator.estimate_codeword_success(
        simulator.SimConfig(n=8, rate_bits=0.5, spectrum=TWO_LEVEL, trials=32, seed=7,
                            eta=0.05, w_batches=6),
        threads=threads),
    "coupling": lambda threads: simulator.simulate_wf_coupling(
        TWO_LEVEL, 0.25, 8, 600, 5, threads=threads),
    "filter": lambda threads: simulator.simulate_mmse_filter(
        TWO_LEVEL, 2.0, 8, 600, 5, threads=threads),
    "sweep": lambda threads: gapopt.sweep((0.2, 0.4), 1, threads=threads),
}


@pytest.mark.parametrize("case", sorted(SPAWN_CASES))
def test_spawn_pool_matches_serial_bit_for_bit(monkeypatch, case):
    # Spawned workers start from a fresh import, so every piece of state a
    # work unit needs must travel with the work, not sit in a module global.
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(_parallel.multiprocessing, "get_context", lambda method=None: spawn)
    serial = SPAWN_CASES[case](1)
    pooled = SPAWN_CASES[case](2)
    assert pooled == serial
    if case in ("scheme", "coupling", "filter"):  # SimReport's == leaves out per_trial
        assert pooled.per_trial.tobytes() == serial.per_trial.tobytes()


def _module_globals(_item):
    return {name: repr(value) for name, value in vars(_parallel).items() if name != "__builtins__"}


@pytest.mark.skipif(os.name != "posix", reason="ordered_map forks only on POSIX")
def test_pool_workers_bind_no_module_state():
    # A forked worker starts with the parent's globals; mapping must add none.
    parent = _module_globals(None)
    assert _parallel.ordered_map(_module_globals, range(4), 2) == [parent] * 4


def _square(x):
    return x * x


def _pid(_item):
    return os.getpid()


def _child_raises(item):
    if item == 1:  # share 1 at threads=2 runs in the child
        raise ValueError(f"bad item {item}")
    return item


def _caller_raises(item):
    if item == 0:  # share 0 runs in the caller
        raise KeyError("caller share")
    time.sleep(30)  # outlasts the alarm unless the child is terminated
    return item


def _child_dies(item):
    if item == 1:
        os._exit(3)
    return item


@pytest.fixture
def alarm():
    """Fail a test that hangs instead of letting it block the suite."""

    def hung(signum, frame):
        raise TimeoutError("ordered_map did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("count,threads", [(7, 3), (2, 5), (1, 2), (0, 2)])
def test_uneven_shares_keep_item_order(count, threads):
    assert _parallel.ordered_map(_square, range(count), threads) == [x * x for x in range(count)]


@pytest.mark.skipif(os.name != "posix", reason="ordered_map forks only on POSIX")
def test_share_zero_runs_in_the_caller():
    pids = _parallel.ordered_map(_pid, range(4), 2)
    assert pids[0] == pids[2] == os.getpid()
    assert pids[1] == pids[3] != os.getpid()


@pytest.mark.skipif(os.name != "posix", reason="ordered_map forks only on POSIX")
def test_child_exception_reaches_the_caller(alarm):
    with pytest.raises(ValueError, match="bad item 1"):
        _parallel.ordered_map(_child_raises, range(4), 2)


@pytest.mark.skipif(os.name != "posix", reason="ordered_map forks only on POSIX")
def test_caller_failure_leaves_no_child(alarm):
    with pytest.raises(KeyError, match="caller share"):
        _parallel.ordered_map(_caller_raises, range(2), 2)
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(os.name != "posix", reason="ordered_map forks only on POSIX")
def test_child_exit_without_result_raises(alarm):
    with pytest.raises(RuntimeError, match="exited with code 3"):
        _parallel.ordered_map(_child_dies, range(2), 2)
    assert multiprocessing.active_children() == []
