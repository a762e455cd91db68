"""The DG advection rate as ``DGAdvection.rate`` computed it before the
rate tables: einsum sum-factorised gradient, one dense operator pair
``(Mq, Mn)`` per face instance (identity included), ``np.subtract.at``
scatter, every weight recomputed per call.

It reads the face instances from the solver's own builders but shares
none of the classification, folding or index concatenation of
``DGAdvection._finalize_faces``, which is what the parity tests check.
"""

from __future__ import annotations

import numpy as np


def _gradient_einsum(D, ue, n):
    v = ue.reshape(len(ue), n, n, n)  # [e, t, s, r]
    dr = np.einsum("ab,etsb->etsa", D, v).reshape(len(ue), -1)
    ds = np.einsum("ab,etbr->etar", D, v).reshape(len(ue), -1)
    dt = np.einsum("ab,ebsr->easr", D, v).reshape(len(ue), -1)
    return dr, ds, dt


class DGRateOracle:
    """``oracle(u)`` is the reference ``du/dt`` of ``dg`` (built with wind
    ``velocity``)."""

    def __init__(self, dg, velocity):
        self.dg = dg
        self.interior, self.bdry = dg._face_instances(velocity)
        eye = np.eye(dg.n2)
        drive = self.interior["drive"][:, None, None]
        M = self.interior["M"]
        self.Mq = np.where(drive, eye, M)  # my face nodes -> quad points
        self.Mn = np.where(drive, M, eye)  # neighbor face nodes -> quad points

    @property
    def n_interior(self) -> int:
        return len(self.interior["mine"])

    def __call__(self, u: np.ndarray) -> np.ndarray:
        dg, fi, bf = self.dg, self.interior, self.bdry
        ue = u.reshape(dg.ne, dg.n3)
        dr, ds, dt = _gradient_einsum(dg.kern.D, ue, dg.n)
        cr, cs, ct = -dg._cneg  # a . grad(ref_k) at the volume nodes
        res = -(cr * dr + cs * ds + ct * dt).ravel()
        minv = 1.0 / dg.Mdiag.ravel()
        um = np.einsum("iqk,ik->iq", self.Mq, u[fi["mine"]])
        up = np.einsum("iqk,ik->iq", self.Mn, u[fi["nb"]])
        # upwind: f* - f^- = min(a.n, 0) (u+ - u-)
        diff = np.minimum(fi["an"], 0.0) * (up - um)
        lift = np.einsum("iqk,iq->ik", self.Mq, fi["wsj"] * diff)
        np.subtract.at(res, fi["mine"].ravel(), (lift * minv[fi["mine"]]).ravel())
        diff = np.minimum(bf["an"], 0.0) * (bf["uin"] - u[bf["mine"]])
        np.subtract.at(
            res, bf["mine"].ravel(), (bf["wsj"] * diff * minv[bf["mine"]]).ravel()
        )
        return res
