"""Joint-law gate for the compact samplers: z-scores of Haar trace moments.

A one-entry marginal cannot see the joint law; low trace moments can. For
Haar O(n), E Tr O = 0, E (Tr O)^2 = 1, E Tr O^2 = 1 and E det O = 0; for
Haar U(n), E Tr U = 0, E |Tr U|^2 = 1, E |Tr U^2|^2 = min(2, n) and
E det U = 0 (Diaconis and Shahshahani, J. Appl. Probab. 31A, 1994). N, the
sizes, the seeds and the threshold (MC_SIGMAS standard errors) were fixed
before any z-score was seen. Two wrong samplers must fail the same gate:
the column flip onto det = 1 (SO(n), and SU(n) over C), whose entries keep
their Haar marginals, and LAPACK's Q without the diag(R) > 0 phase step
(Mezzadri, Notices AMS 54, 2007).
"""

import math

import numpy as np
import pytest

from haar_digits.lie import MC_SIGMAS
from haar_digits.rng import RngStream
from haar_digits.samplers import sample_orthogonal_haar, sample_unitary_haar

N = 100_000
_CASES = [(n, cplx) for cplx in (False, True) for n in (2, 3, 5)]
_IDS = [f"{'U' if cplx else 'O'}{n}" for n, cplx in _CASES]


def _z(values: np.ndarray, target: float) -> float:
    """Standard errors between the mean of `values` and `target`. A constant
    statistic has no standard error: it is 0 away when its mean is the
    target and infinitely far otherwise."""
    mean, sd = values.mean(), values.std(ddof=1)
    if sd == 0.0:
        return 0.0 if mean == target else math.inf
    return float((mean - target) / (sd / math.sqrt(values.size)))


def _moment_z(mats: np.ndarray) -> dict:
    """z-score of each Haar trace moment of a (N, n, n) stack."""
    n = mats.shape[-1]
    tr = np.trace(mats, axis1=1, axis2=2)
    tr_sq = np.einsum("bij,bji->b", mats, mats)  # Tr M^2
    det = np.linalg.det(mats)
    if np.iscomplexobj(mats):
        moments = {
            "Re Tr": (tr.real, 0.0),
            "Im Tr": (tr.imag, 0.0),
            "|Tr|^2": (np.abs(tr) ** 2, 1.0),
            "|Tr U^2|^2": (np.abs(tr_sq) ** 2, float(min(2, n))),
            "Re det": (det.real, 0.0),
            "Im det": (det.imag, 0.0),
        }
    else:
        moments = {
            "Tr": (tr, 0.0),
            "Tr^2": (tr * tr, 1.0),
            "Tr O^2": (tr_sq, 1.0),
            "det": (det, 0.0),
        }
    return {name: _z(values, target) for name, (values, target) in moments.items()}


def _haar(n: int, cplx: bool) -> np.ndarray:
    draw = sample_unitary_haar if cplx else sample_orthogonal_haar
    return draw(n, RngStream(2024 + n, 1 + cplx), N)


def _column_flip(n: int, cplx: bool) -> np.ndarray:
    """Haar draws with column 0 times conj(det): SO(n), or SU(n) over C."""
    mats = _haar(n, cplx)
    mats[:, :, 0] *= np.linalg.det(mats).conj()[:, None]
    return mats


def _lapack_q(n: int, cplx: bool) -> np.ndarray:
    """Q of NumPy's QR of Gaussian matrices, with no phase step."""
    g = RngStream(3033 + n, 1 + cplx).normal((N, n, n * (1 + cplx)))
    return np.linalg.qr(g.view(complex) if cplx else g)[0]


def _failed(z: dict) -> list:
    return [name for name, value in z.items() if not abs(value) < MC_SIGMAS]


@pytest.mark.parametrize("n, cplx", _CASES, ids=_IDS)
def test_haar_samplers_pass_the_trace_moment_gate(n, cplx):
    z = _moment_z(_haar(n, cplx))
    assert not _failed(z), z


@pytest.mark.parametrize("wrong", [_column_flip, _lapack_q], ids=["column-flip", "lapack-q"])
@pytest.mark.parametrize("n, cplx", _CASES, ids=_IDS)
def test_wrong_samplers_fail_the_trace_moment_gate(n, cplx, wrong):
    z = _moment_z(wrong(n, cplx))
    assert _failed(z), z


def test_a_constant_statistic_fails_unless_it_is_its_target():
    ones = np.ones(10)
    assert _z(ones, 1.0) == 0.0
    assert _z(ones, 0.0) == math.inf
    assert _failed({"det": _z(ones, 0.0)}) == ["det"]
