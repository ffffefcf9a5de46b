import numpy as np
import pytest

from kpplab import medium as med

MASTER = 20260810


def constant_medium(a0=1.0, c0=1.0, X=100.0, h=0.01, stream=0):
    return med.sample_realization(med.ConstantSpec(a0=a0, c0=c0), MASTER,
                                  stream, X, h)


def dimer_spec(c_plus=1.5, c_minus=0.5, a_plus=1.0, a_minus=1.0,
               len1=1.0, len2=1.0, eps=0.2, jitter=None):
    kw = dict(a_plus=a_plus, a_minus=a_minus, c_plus=c_plus, c_minus=c_minus,
              len1=len1, len2=len2, eps=eps)
    if jitter is not None:
        kw.update(length_dist="uniform", jitter=jitter)
    return med.DimerSpec(**kw)


def dimer_medium(X=200.0, h=0.01, stream=0, **kw):
    return med.sample_realization(dimer_spec(**kw), MASTER, stream, X, h)


def trig_spec(freqs=(0.7, 1.9), amps_a=(0.25, 0.1), amps_c=(0.3, 0.2),
              a_min=0.5, c_min=0.5):
    return med.RandomTrigSpec(base_freqs=freqs, amps_a=amps_a, amps_c=amps_c,
                              a_min=a_min, c_min=c_min)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
