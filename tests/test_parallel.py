import multiprocessing
import os

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
