"""QR_TP — rank-revealing QR with tournament pivoting (Section II-B / V).

QR_TP finds the ``k`` "most linearly independent" columns of a matrix with a
reduction tree.  Leaves hold (at most) ``2k`` contiguous columns each and
select ``k`` local winners without any cross-leaf data movement — this is
the *local* reduction stage, embarrassingly parallel.  Winners then compete
pairwise up a binary tree (``log2(leaves)`` rounds — the *global* stage) or
sequentially against an accumulator (flat tree).  The final match's winners
are the global selection.

The per-match statistics collected in :class:`TournamentStats` (stage,
candidate nnz, flops) are exactly what the simulated-parallel layer needs:
local-stage matches parallelize across ranks, global-stage rounds serialize
into ``log2 P`` communication steps (Fig. 4's scalability rolloff).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..linalg.cholqr import cross_gram
from ..sparse.ops import extract_columns
from ..sparse.utils import nnz_of, raw_csc
from .select import select_columns


@dataclass
class MatchRecord:
    """Cost record of one tournament match."""

    stage: str            # "leaf" or "round<t>"
    candidates: int       # number of candidate columns entering the match
    nnz: int              # stored entries of the candidate block
    flops: float
    bytes_exchanged: int  # candidate-column payload a pairwise match moves


@dataclass
class TournamentStats:
    """All matches of one QR_TP invocation, grouped by stage."""

    matches: list[MatchRecord] = field(default_factory=list)

    def record(self, rec: MatchRecord) -> None:
        self.matches.append(rec)

    @property
    def leaf_matches(self) -> list[MatchRecord]:
        return [m for m in self.matches if m.stage == "leaf"]

    @property
    def rounds(self) -> int:
        return len({m.stage for m in self.matches if m.stage.startswith("round")})

    @property
    def total_flops(self) -> float:
        return sum(m.flops for m in self.matches)

    def stage_flops(self, stage: str) -> float:
        return sum(m.flops for m in self.matches if m.stage == stage)


@dataclass
class TournamentResult:
    """Outcome of QR_TP.

    Attributes
    ----------
    perm:
        Full column permutation (length ``n``): winners first (in pivot
        order), losers after in original relative order.  ``A[:, perm]`` is
        the matrix ``A P_c`` of Algorithm 2 line 5.
    winners:
        The ``k`` selected global column indices, ``perm[:k]``.
    r11_diag:
        ``|diag(R)|`` from the final match — ``r11_diag[0]`` is the
        ``|R^(1)(1,1)|`` estimate of ``||A||_2`` used by ILUT_CRTP's
        threshold heuristic (equations (23)/(24)).
    stats:
        Per-match cost records.
    """

    perm: np.ndarray
    winners: np.ndarray
    r11_diag: np.ndarray
    stats: TournamentStats


def _leaf_blocks(n: int, leaf_cols: int) -> list[np.ndarray]:
    return [np.arange(s, min(s + leaf_cols, n), dtype=np.intp)
            for s in range(0, n, leaf_cols)]


def _match(A, cand: np.ndarray, k: int, stage: str, stats: TournamentStats,
           *, method: str, strong: bool, block=None,
           gram: np.ndarray | None = None, keep_gram: bool = False,
           tier: str | None = None):
    """Run one match among candidate columns ``cand`` of ``A``.

    Returns ``(winning global indices, |diag(R)|, winner sub-Gram)``; the
    sub-Gram is ``None`` unless ``keep_gram``.  ``block`` and ``gram`` let
    the tournament driver supply the candidate block / its Gram matrix when
    it can build them cheaper than from scratch.
    """
    if block is None:
        block = extract_columns(A, cand) if sp.issparse(A) \
            else np.asarray(A)[:, cand]
    sel = select_columns(block, k, method=method, strong=strong,
                         gram=gram, keep_gram=keep_gram, tier=tier)
    block_nnz = nnz_of(block)
    stats.record(MatchRecord(stage=stage, candidates=len(cand), nnz=block_nnz,
                             flops=sel.flops,
                             bytes_exchanged=16 * block_nnz))
    G_win = None
    if sel.gram is not None:
        wl = sel.order[:sel.k]
        G_win = sel.gram[np.ix_(wl, wl)]
    return cand[sel.winners], sel.r_diag, G_win


def _hstack_csc(B1: sp.csc_matrix, B2: sp.csc_matrix) -> sp.csc_matrix:
    """Concatenate two canonical CSC blocks column-wise (entry-exact: the
    result equals ``extract_columns(A, concat(cols1, cols2))`` bitwise)."""
    idx_dtype = np.result_type(B1.indices.dtype, B2.indices.dtype)
    indptr = np.concatenate([
        B1.indptr.astype(idx_dtype, copy=False),
        (B2.indptr[1:] + B1.indptr[-1]).astype(idx_dtype, copy=False)])
    return raw_csc(
        np.concatenate([B1.data, B2.data]),
        np.concatenate([B1.indices.astype(idx_dtype, copy=False),
                        B2.indices.astype(idx_dtype, copy=False)]),
        indptr, (B1.shape[0], B1.shape[1] + B2.shape[1]))


def _paired_match(A, w1, G1, w2, G2, k, stage, stats, *, method, strong,
                  tier=None):
    """Non-leaf match between two winner sets, reusing the children's
    sub-Gram blocks.

    The parent Gram is ``[[G1, C], [C^T, G2]]`` with only the cross term
    ``C = B1^T B2`` computed fresh: every Gram entry accumulates over
    ascending row index independently of the other columns, so the
    assembled matrix is bitwise identical to a from-scratch Gram of the
    merged block — pivot choices are exactly reproducible.
    """
    cand = np.concatenate([w1, w2])
    if G1 is None or G2 is None or not sp.issparse(A):
        return _match(A, cand, k, stage, stats, method=method, strong=strong,
                      keep_gram=sp.issparse(A) and method == "gram",
                      tier=tier)
    B1 = extract_columns(A, w1)
    B2 = extract_columns(A, w2)
    C = cross_gram(B1, B2, tier=tier)
    G = np.block([[G1, C], [C.T, G2]])
    return _match(A, cand, k, stage, stats, method=method, strong=strong,
                  block=_hstack_csc(B1, B2), gram=G, keep_gram=True,
                  tier=tier)


def qr_tp(A, k: int, *, tree: str = "binary", leaf_cols: int | None = None,
          method: str = "gram", strong: bool = False,
          tier: str | None = None) -> TournamentResult:
    """Tournament pivoting over the columns of ``A``.

    Parameters
    ----------
    A:
        Sparse (preferred) or dense matrix, shape ``(m, n)``.
    k:
        Number of columns to select (capped at ``min(m, n)`` callers' duty).
    tree:
        ``"binary"`` — pairwise reduction, ``log2`` rounds (the parallel
        shape); ``"flat"`` — sequential accumulator (the paper notes both
        have the same asymptotic cost, Section IV).
    leaf_cols:
        Columns per leaf; default ``2k`` as in the paper ("each process owns
        2k columns").
    method, strong:
        Passed through to :func:`repro.pivoting.select.select_columns`.
    tier:
        Kernel tier request threaded into every Gram product (matches and
        cross terms); resolved once per solve by the callers.
    """
    m, n = A.shape
    if k <= 0:
        raise ValueError("k must be positive")
    k = min(k, n)
    if tree not in ("binary", "flat"):
        raise ValueError(f"unknown tree shape {tree!r}")
    stats = TournamentStats()
    leaf_cols = leaf_cols or max(2 * k, 1)

    leaves = _leaf_blocks(n, leaf_cols)
    # non-leaf matches reuse the children's winner sub-Grams (only the
    # cross term is recomputed) — only meaningful for the sparse gram route
    reuse = sp.issparse(A) and method == "gram"
    contenders: list[tuple[np.ndarray, np.ndarray | None]] = []
    r_diag = np.zeros(0)
    for leaf in leaves:
        win, r_diag, Gw = _match(A, leaf, k, "leaf", stats,
                                 method=method, strong=strong,
                                 keep_gram=reuse and len(leaves) > 1,
                                 tier=tier)
        contenders.append((win, Gw))
        if len(leaves) == 1:
            break  # single leaf: the leaf match IS the final match

    if tree == "flat":
        acc, G_acc = contenders[0]
        for t, (nxt, G_nxt) in enumerate(contenders[1:], start=1):
            acc, r_diag, G_acc = _paired_match(
                A, acc, G_acc, nxt, G_nxt, k, f"round{t}", stats,
                method=method, strong=strong, tier=tier)
        winners = acc
    else:
        level = contenders
        t = 1
        while len(level) > 1:
            nxt_level: list[tuple[np.ndarray, np.ndarray | None]] = []
            for i in range(0, len(level), 2):
                if i + 1 < len(level):
                    w1, G1 = level[i]
                    w2, G2 = level[i + 1]
                    win, r_diag, Gw = _paired_match(
                        A, w1, G1, w2, G2, k, f"round{t}", stats,
                        method=method, strong=strong, tier=tier)
                    nxt_level.append((win, Gw))
                else:
                    nxt_level.append(level[i])  # bye
            level = nxt_level
            t += 1
        winners = level[0][0]

    perm = _winners_first(winners, n)
    return TournamentResult(perm=perm, winners=winners, r11_diag=r_diag,
                            stats=stats)


def _winners_first(winners: np.ndarray, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[winners] = True
    losers = np.flatnonzero(~mask)
    return np.concatenate([winners, losers]).astype(np.intp)


def qr_tp_rows(Q: np.ndarray, k: int, *, tree: str = "binary",
               leaf_rows: int | None = None,
               tier: str | None = None) -> TournamentResult:
    """Row tournament: select the ``k`` most linearly independent *rows* of
    a dense tall block ``Q`` (Algorithm 2 line 7 runs QR_TP on ``Q_k^T``).

    Equivalent to :func:`qr_tp` on ``Q.T`` with dense matches (``Q`` is the
    explicit orthogonal factor, dense by construction); returns a
    *row* permutation in ``perm``.
    """
    Q = np.asarray(Q, dtype=np.float64)
    m, kc = Q.shape
    leaf_rows = leaf_rows or max(2 * k, 1)
    res = qr_tp(Q.T, k, tree=tree, leaf_cols=leaf_rows, method="dense",
                tier=tier)
    return res
