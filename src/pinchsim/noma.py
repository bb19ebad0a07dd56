"""Scalar reference of the power domain: decoding order and SINRs, one
candidate at a time.

With ``channel``, this is the reference that the tests and perfbench's
checks hold the batched kernel to; the package itself never imports it.
The evaluation point (``kernels.RobustGains``, ``kernels.robust_gains``)
and the estimate-error draw (``kernels.apply_csi_error``) are production
code and live in ``kernels``.

Receivers cancel the signals of weaker-ordered users before decoding their
own.  With estimate errors bounded by a relative fraction eps, the true
magnitude order of two users is guaranteed only when their estimated
magnitudes are separated by at least the ratio (1+eps)/(1-eps); adjacent
pairs that fail the test form "uncertainty clusters" whose internal order is
fixed (ascending estimate, index tie-break) to avoid order flips between
nearby evaluations.

The conservative SINR shrinks the desired-signal power by (1-eps)^2,
inflates the uncancelled interference by (1+eta_i*eps)^2, and charges a
residual-cancellation leakage eta_r*eps on already-decoded users' power.
Within a cluster the leakage is applied along the fixed internal order, not
symmetrized.  All SINRs are linear; dB conversion happens at the reporting
boundary only.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import RobustGains, robust_gains


@dataclass(frozen=True)
class DecodingOrder:
    """Decoding permutation plus the ambiguity structure behind it."""

    order: np.ndarray      # user indices, ascending estimated magnitude
    clusters: list         # consecutive groups of order-ambiguous users (index arrays)
    violations: np.ndarray # (K-1,) separation shortfalls of adjacent sorted pairs


def order_violations(mags_sorted, eps):
    """Separation shortfalls of adjacent pairs of ascending magnitudes.

    Pair (k, k+1) is reliably ordered when m[k+1] >= m[k] * (1+eps)/(1-eps);
    the violation is the positive part of the shortfall.
    """
    m = np.asarray(mags_sorted, dtype=float)
    ratio = (1.0 + eps) / (1.0 - eps)
    return np.maximum(ratio * m[:-1] - m[1:], 0.0)


def conservative_order(h_hat, eps) -> DecodingOrder:
    """Decoding order that is safe under the relative error bound.

    Users are sorted by estimated magnitude (ascending, stable in user
    index); adjacent pairs whose separation cannot guarantee the true order
    are merged into one cluster.
    """
    mags = np.abs(np.asarray(h_hat))
    order = np.argsort(mags, kind="stable")
    v = order_violations(mags[order], eps)
    clusters = []
    current = [int(order[0])]
    for k in range(len(order) - 1):
        if v[k] > 0.0:
            current.append(int(order[k + 1]))
        else:
            clusters.append(np.array(current))
            current = [int(order[k + 1])]
    clusters.append(np.array(current))
    return DecodingOrder(order=order, clusters=clusters, violations=v)


def conservative_sinr(h_sq, alpha, gains: RobustGains, tx_power, noise_power):
    """Worst-case SINRs for users given in decoding order.

    h_sq and alpha must already be permuted into the decoding order; user k
    sees inflated interference from the not-yet-decoded users j > k and
    leakage from the already-decoded users j < k.
    """
    h_sq = np.asarray(h_sq, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    before = np.cumsum(alpha) - alpha                    # sum over j < k
    after = np.cumsum(alpha[::-1])[::-1] - alpha         # sum over j > k
    den = (gains.interference_scale * tx_power * h_sq * after
           + gains.leakage_scale * tx_power * h_sq * before
           + noise_power)
    return gains.signal_scale * alpha * tx_power * h_sq / den


def true_sinr(h_sq, alpha, tx_power, noise_power):
    """Nominal SINRs under ideal cancellation (no estimate error, no leakage)."""
    return conservative_sinr(h_sq, alpha, robust_gains(0.0, 1.0, 0.0),
                             tx_power, noise_power)


def sic_decode_sinr(h_sq_j, k, alpha, tx_power, noise_power):
    """SINR at a later-ordered user (channel gain h_sq_j) decoding user k's signal."""
    alpha = np.asarray(alpha, dtype=float)
    after = float(alpha[k + 1:].sum())
    return alpha[k] * tx_power * h_sq_j / (after * tx_power * h_sq_j + noise_power)


def min_sinr(sinrs):
    """Minimum SINR across users, the fairness objective."""
    sinrs = np.asarray(sinrs, dtype=float)
    if sinrs.size == 0:
        raise ValueError("min_sinr of an empty SINR vector")
    return float(sinrs.min())
