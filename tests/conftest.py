import signal
from contextlib import contextmanager

import pytest

from cutstack.afs4 import AfsParams, ConstRule, preset_infinite_ergodic_index
from cutstack.naive import NaiveTower
from cutstack.vl import ConstR, VlFamily, VlSpec


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {status}")


@pytest.fixture
def deadline():
    """Context manager that fails the body once it runs past ``seconds``."""
    @contextmanager
    def within(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"took longer than {seconds} s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return within


@pytest.fixture(scope="session")
def example_family():
    """Four-cut family with constant spacers (3, 10, 4, 20)."""
    return AfsParams(ConstRule(3), ConstRule(10), ConstRule(4), ConstRule(20),
                     label="example")


@pytest.fixture(scope="session")
def example_naive():
    return NaiveTower.four_cut([(3, 10, 4, 20)] * 7)


@pytest.fixture(scope="session")
def roomy_family():
    """Constant spacers with a tall top block, so the brute-force simulator
    can validate wide shift ranges at small stages."""
    return AfsParams(ConstRule(2), ConstRule(5), ConstRule(7), ConstRule(400),
                     label="roomy")


@pytest.fixture(scope="session")
def roomy_naive():
    return NaiveTower.four_cut([(2, 5, 7, 400)] * 5)


@pytest.fixture(scope="session")
def preset_family():
    return preset_infinite_ergodic_index(8)


@pytest.fixture(scope="session")
def wmin_family():
    """Admissible family with minimal growth spacers; small enough for the
    brute-force simulator through stage 3."""
    from cutstack.afs4 import WMinimalRule
    return AfsParams(ConstRule(2), WMinimalRule(), ConstRule(4), WMinimalRule(),
                     label="wmin")


@pytest.fixture(scope="session")
def vl_small():
    """Two-cut vector family; columns stay tiny for several stages."""
    return VlFamily(VlSpec(1, ConstR(2)))


@pytest.fixture(scope="session")
def vl_small_naive(vl_small):
    vecs = [vl_small.spec.s_of(n)[1] for n in range(1, 7)]
    return NaiveTower.vector_spacers(1, [2] * 6, vecs)
