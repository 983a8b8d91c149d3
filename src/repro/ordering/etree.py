"""Column elimination tree and postorder traversal.

Section V of the paper: the input matrix is permuted by COLAMD *followed by a
postorder traversal of its column elimination tree* before LU_CRTP runs.
The column elimination tree of ``A`` is the elimination tree of ``A^T A``;
we compute it without forming ``A^T A`` using the classic path-compression
algorithm (Davis, "Direct Methods for Sparse Linear Systems", cs_etree with
``ata=True``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..sparse.utils import ensure_csc
from .colamd import colamd


def col_etree(A: sp.spmatrix) -> np.ndarray:
    """Column elimination tree of ``A``.

    Returns ``parent`` with ``parent[j]`` the parent column of ``j`` or
    ``-1`` for roots.
    """
    A = ensure_csc(A)
    m, n = A.shape
    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    prev = np.full(m, -1, dtype=np.int64)  # last column seen for each row
    indptr, indices = A.indptr, A.indices
    for k in range(n):
        for p in range(indptr[k], indptr[k + 1]):
            row = indices[p]
            i = prev[row]
            # walk from i to the root of its subtree, compressing the path
            while i != -1 and i < k:
                inext = ancestor[i]
                ancestor[i] = k
                if inext == -1:
                    parent[i] = k
                i = inext
            prev[row] = k
    return parent


def postorder(parent: np.ndarray) -> np.ndarray:
    """Postorder permutation of a forest given parent pointers.

    Children are visited in ascending index order (deterministic), parents
    after all their children; roots are processed in ascending order.
    """
    n = len(parent)
    # build child lists
    head = np.full(n, -1, dtype=np.int64)
    nxt = np.full(n, -1, dtype=np.int64)
    for v in range(n - 1, -1, -1):  # reversed so lists end up ascending
        p = parent[v]
        if p >= 0:
            nxt[v] = head[p]
            head[p] = v
    order = np.empty(n, dtype=np.intp)
    idx = 0
    stack: list[int] = []
    for root in range(n):
        if parent[root] != -1:
            continue
        stack.append(root)
        while stack:
            v = stack[-1]
            c = head[v]
            if c != -1:
                head[v] = nxt[c]  # defer v, descend into c first
                stack.append(c)
            else:
                stack.pop()
                order[idx] = v
                idx += 1
    if idx != n:
        raise ValueError("parent array does not describe a forest")
    return order


def colamd_preprocess(A: sp.spmatrix) -> np.ndarray:
    """The paper's full preprocessing permutation: COLAMD, then postorder of
    the column elimination tree of the COLAMD-permuted matrix.

    Returns a single column permutation vector combining both steps.
    """
    p1 = colamd(A)
    Ap = ensure_csc(A)[:, p1]
    parent = col_etree(Ap)
    p2 = postorder(parent)
    return p1[p2]
