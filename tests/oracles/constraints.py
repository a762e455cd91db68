"""Whole-mesh forms of the hanging-node constraint search in
``repro.mesh.extract``: the probe of every edge and face of every element
that ``_find_hanging_constraints`` narrowed to the edges and faces a
smaller element touches, and the per-node loop de-duplication that
``_first_discovery`` vectorised."""

from __future__ import annotations

import numpy as np

from repro.mesh.extract import _CORNER, _EDGES, _FACES, node_keys


def first_discovery_loop(child, parent, weight):
    """Keep, for every hanging node, the first block of rows in discovery
    order: 2 rows when that block is an edge block (weight 1/2), else 4."""
    if not len(child):
        return child, parent, weight
    order = np.argsort(child, kind="stable")
    child_s, parent_s, weight_s = child[order], parent[order], weight[order]
    starts = np.flatnonzero(np.r_[True, child_s[1:] != child_s[:-1]])
    keep_rows = []
    for s in starts:
        take = 2 if weight_s[s] == 0.5 else 4
        keep_rows.append(np.arange(s, s + take))
    keep = np.concatenate(keep_rows)
    return child_s[keep], parent_s[keep], weight_s[keep]


def find_hanging_full(
    keys: np.ndarray,
    elements,  # OctantArray of the leaves
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Identify hanging nodes and their direct parent lists by probing
    all 12 edge midpoints and 6 face centres of every element and looking
    every parent corner up by key.

    Returns ``(child_idx, parent_idx, weight)`` COO triplets where
    ``child_idx`` are node indices of hanging nodes (repeated per parent).
    Candidate node keys are resolved by binary search in the sorted key
    array.
    """
    h = elements.lengths()
    if len(h) and int(h.min()) < 2:
        raise ValueError("mesh extraction requires element level <= MAX_LEVEL - 1")
    anchors = np.stack([elements.x, elements.y, elements.z], axis=1)

    key_sorter = np.argsort(keys)
    keys_sorted = keys[key_sorter]

    def lookup(cand_keys: np.ndarray) -> np.ndarray:
        """Node index of each key, or -1 if not a mesh node."""
        pos = np.searchsorted(keys_sorted, cand_keys)
        pos_c = np.clip(pos, 0, len(keys_sorted) - 1)
        hit = keys_sorted[pos_c] == cand_keys
        return np.where(hit, key_sorter[pos_c], -1)

    children, parents, weights = [], [], []

    # corner coordinates per element, (ne, 8, 3)
    corner_xyz = anchors[:, None, :] + _CORNER[None, :, :] * h[:, None, None]

    # Edge midpoints: if the midpoint of an element's edge is a mesh node,
    # it hangs on that edge (weight 1/2 to each endpoint).
    for e0, e1 in _EDGES:
        mid = (corner_xyz[:, e0, :] + corner_xyz[:, e1, :]) // 2
        mid_idx = lookup(node_keys(mid))
        present = mid_idx >= 0
        if not present.any():
            continue
        p0 = node_keys(corner_xyz[present, e0, :])
        p1 = node_keys(corner_xyz[present, e1, :])
        i0 = lookup(p0)
        i1 = lookup(p1)
        m = mid_idx[present]
        children.append(np.concatenate([m, m]))
        parents.append(np.concatenate([i0, i1]))
        weights.append(np.full(2 * len(m), 0.5))

    # Face centers: weight 1/4 to each of the four face corners.
    for quad in _FACES:
        ctr = corner_xyz[:, quad, :].sum(axis=1) // 4
        ctr_idx = lookup(node_keys(ctr))
        present = ctr_idx >= 0
        if not present.any():
            continue
        m = ctr_idx[present]
        for q in quad:
            children.append(m)
            parents.append(lookup(node_keys(corner_xyz[present, q, :])))
        weights.append(np.full(4 * len(m), 0.25))

    if not children:
        empty_i = np.zeros(0, dtype=np.int64)
        return empty_i, empty_i, np.zeros(0)
    child = np.concatenate(children)
    parent = np.concatenate([p for p in parents])
    weight = np.concatenate(weights)
    if np.any(parent < 0):
        raise AssertionError("constraint parent is not a mesh node")
    return child, parent, weight
