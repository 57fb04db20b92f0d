"""Graph-attention feature selection for tabular data.

Subjects are graph nodes; edges connect pairs whose standardized feature
vectors have cosine similarity above a threshold chosen to hit a target
average degree.  A three-layer multi-head attention network is trained
full-batch (transductively) for node classification with cross-entropy,
Adam, and exact hand-rolled reverse-mode gradients.  Feature importance is
the validation AUROC drop when a feature column is zeroed.

Every per-head attention layer computes, for edge (v, u):

    logit_vu = LeakyReLU(a_s.(W h_v) + a_d.(W h_u) + e_vu * (a_e.w_e))
    alpha_vu = softmax over u in N(v)
    h'_v     = sum_u alpha_vu (W h_u)

Heads are averaged at every layer; a single linear layer decodes the last
representations into two class logits.  Self-loops with edge weight 1 are
always present so no softmax row is empty.

Attention is computed on the edge list of the adjacency (message passing),
not on dense V x V matrices: the E edges are sorted by destination v, so
each softmax over N(v) is one contiguous segment, reduced with
``np.maximum.reduceat`` / ``np.add.reduceat``, and the aggregation is a
CSR product.  The backward pass uses the same segments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import svm
from .metrics import auroc


class _Edges(NamedTuple):
    """Attention edges (v <- u), self-loops included, sorted by ``dst``,
    and the transposed structure: the same edges in ``perm`` order, sorted
    by ``src`` and, within a source, by ``dst``."""
    dst: np.ndarray                 # (E,) node v whose softmax holds the edge
    src: np.ndarray                 # (E,) neighbour u
    indptr: np.ndarray              # (V + 1,) CSR bounds of each dst segment
    weight: np.ndarray              # (E,) edge weight e_vu
    perm: np.ndarray                # (E,) stable argsort of src
    t_dst: np.ndarray               # (E,) dst[perm]
    t_indptr: np.ndarray            # (V + 1,) CSR bounds of each src segment


@dataclass(frozen=True)
class SubjectGraph:
    """Subjects as nodes; ``edges`` is built once, when the graph is made."""
    node_features: np.ndarray       # (V, d0), standardized
    edge_weights: np.ndarray        # (V, V) cosine sims; self-loop diag = 1
    adjacency: np.ndarray           # (V, V) bool incl. self-loops
    threshold: float
    labels: np.ndarray              # (V,) in {0,1}
    train_mask: np.ndarray          # (V,) bool
    val_mask: np.ndarray            # (V,) bool
    feature_names: list[str]
    edges: _Edges = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = self.n_nodes
        if not np.all(np.diagonal(self.adjacency)):
            raise ValueError("every node needs its self-loop in the adjacency")
        # row-major order sorts the edges by destination; no segment is empty
        dst, src = np.divmod(np.flatnonzero(self.adjacency), v)
        indptr = np.searchsorted(dst, np.arange(v + 1))
        perm = np.argsort(src, kind="stable")
        t_indptr = np.searchsorted(src[perm], np.arange(v + 1))
        object.__setattr__(self, "edges", _Edges(
            dst, src, indptr, self.edge_weights[dst, src], perm, dst[perm],
            t_indptr))

    @property
    def n_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def n_features(self) -> int:
        return self.node_features.shape[1]


@dataclass
class GatConfig:
    hidden_dims: tuple[int, ...] = (64, 64, 64)
    heads: int = 3
    leaky_slope: float = 0.25
    dropout: float = 0.5
    edge_dim: int = 8
    learning_rate: float = 0.01
    epochs: int = 400
    seed: int = 0


@dataclass
class GatModel:
    config: GatConfig
    in_dim: int
    params: dict[str, np.ndarray]
    loss_history: list[float] = field(default_factory=list)


@dataclass
class FeatureImportanceReport:
    baseline_auroc: float
    deltas: np.ndarray              # baseline - ablated, per feature
    ranking: np.ndarray             # feature indices, best first
    selected: list[str]             # top-theta feature names
    theta: int
    feature_names: list[str]
    convergence: dict               # the ranked model's training summary

    def to_csv(self) -> str:
        lines = ["feature_name,delta_auroc,rank,selected"]
        rank_of = {int(j): r for r, j in enumerate(self.ranking)}
        chosen = set(self.ranking[: self.theta].tolist())
        for j, name in enumerate(self.feature_names):
            lines.append(
                f"{name},{self.deltas[j]:.10g},{rank_of[j] + 1},"
                f"{int(j in chosen)}"
            )
        return "\n".join(lines) + "\n"


def build_graph(features: np.ndarray, target_degree: int, labels=None,
                train_mask=None, val_mask=None,
                feature_names: list[str] | None = None,
                standardize: bool = True) -> SubjectGraph:
    """Cosine-similarity graph with threshold tuned to the target degree.

    ``standardize`` puts the features through ``svm.standardize`` first,
    fitted on the ``train_mask`` rows (all rows if none is set).
    """
    x = np.asarray(features, dtype=np.float64)
    v = x.shape[0]
    if v < 2:
        raise ValueError("graph needs at least 2 nodes")
    if target_degree >= v:
        raise ValueError(f"target_degree {target_degree} must be < {v} nodes")
    train_mask = (np.zeros(v, dtype=bool) if train_mask is None
                  else np.asarray(train_mask, dtype=bool))
    if standardize:
        fit = train_mask if train_mask.any() else None
        x, _, _ = svm.standardize(x, fit)
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("all-zero feature row: cosine similarity undefined")
    sims = (x / norms[:, None]) @ (x / norms[:, None]).T
    np.clip(sims, -1.0, 1.0, out=sims)

    iu = np.triu_indices(v, k=1)
    all_pairs = np.sort(sims[iu])[::-1]
    # only positive similarities are edge candidates: theta_e never drops
    # below 0, so orthogonal/dissimilar pairs cannot be forced into edges
    pair_sims = all_pairs[all_pairs > 0.0]
    # keep the k highest-similarity pairs whose mean degree 2k/V is closest
    # to the target (the smallest such k); theta_e sits strictly between
    # kept and dropped values, so k only ends a group of tied similarities
    ks = np.r_[0, np.flatnonzero(pair_sims[1:] != pair_sims[:-1]) + 1,
               len(pair_sims)]
    best_k = int(ks[np.argmin(np.abs(2.0 * ks / v - target_degree))])
    if best_k == 0:
        threshold = float(pair_sims[0]) if len(pair_sims) else 0.0
        warnings.warn("cosine threshold selection produced an empty edge set")
    elif best_k == len(pair_sims):
        threshold = 0.0
    else:
        threshold = float((pair_sims[best_k - 1] + pair_sims[best_k]) / 2.0)

    adjacency = sims > threshold
    np.fill_diagonal(adjacency, True)  # mandatory self-loops
    edge_weights = np.where(adjacency, sims, 0.0)
    np.fill_diagonal(edge_weights, 1.0)

    if feature_names is None:
        feature_names = [f"feature_{j}" for j in range(x.shape[1])]
    return SubjectGraph(
        node_features=x,
        edge_weights=edge_weights,
        adjacency=adjacency,
        threshold=threshold,
        labels=(np.zeros(v, dtype=np.int64) if labels is None
                else np.asarray(labels, dtype=np.int64)),
        train_mask=train_mask,
        val_mask=(np.zeros(v, dtype=bool) if val_mask is None
                  else np.asarray(val_mask, dtype=bool)),
        feature_names=list(feature_names),
    )


def mean_degree(g: SubjectGraph) -> float:
    """Average retained degree, self-loops excluded."""
    return float((g.adjacency.sum() - g.n_nodes) / g.n_nodes)


# --- parameters ------------------------------------------------------------

def init_params(config: GatConfig, in_dim: int,
                rng: np.random.Generator) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    d_in = in_dim
    for l, d_out in enumerate(config.hidden_dims):
        for k in range(config.heads):
            p = f"l{l}.h{k}."
            s = np.sqrt(6.0 / (d_in + d_out))
            params[p + "W"] = rng.uniform(-s, s, size=(d_out, d_in))
            sa = np.sqrt(6.0 / (d_out + 1))
            params[p + "a_s"] = rng.uniform(-sa, sa, size=d_out)
            params[p + "a_d"] = rng.uniform(-sa, sa, size=d_out)
            se = np.sqrt(6.0 / (config.edge_dim + 1))
            params[p + "a_e"] = rng.uniform(-se, se, size=config.edge_dim)
            params[p + "w_e"] = rng.uniform(-se, se, size=config.edge_dim)
        d_in = d_out
    s = np.sqrt(6.0 / (d_in + 2))
    params["dec.W"] = rng.uniform(-s, s, size=(2, d_in))
    params["dec.b"] = np.zeros(2)
    return params


def _leaky(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


def _leaky_grad(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0, 1.0, slope)


def _segment_ordered_sum(values: np.ndarray, edges: _Edges) -> np.ndarray:
    """Per-destination sum of edge ``values`` in value-sorted order, which
    makes it permutation invariant.

    Segments are zero-padded to the largest degree; padding with zeros
    does not change a sorted sum.
    """
    v = len(edges.indptr) - 1
    slot = np.arange(len(edges.dst)) - edges.indptr[edges.dst]
    padded = np.zeros((v, int(slot.max()) + 1) + values.shape[1:])
    padded[edges.dst, slot] = values
    return np.cumsum(np.sort(padded, axis=1), axis=1)[:, -1]


def _forward(params: dict[str, np.ndarray], config: GatConfig,
             edges: _Edges, h: np.ndarray,
             dropout_rng: np.random.Generator | None,
             order_invariant: bool):
    """Logits and the per-edge backward cache (see :func:`forward`)."""
    # imported here, not with the package: ``scipy.sparse`` is about 0.3 s
    # of a cold start, and a process that only generates or loads a study
    # never runs the GAT
    from scipy import sparse

    h = np.asarray(h, dtype=np.float64)
    v = h.shape[0]
    starts = edges.indptr[:-1]
    # one CSR per call: each head writes its alpha into the data
    attn = sparse.csr_array((np.empty(len(edges.dst)), edges.src,
                             edges.indptr), shape=(v, v))
    cache = {"inputs": [], "heads": [], "drop": []}

    for l in range(len(config.hidden_dims)):
        cache["inputs"].append(h)
        head_caches = []
        out_sum = None
        for k in range(config.heads):
            p = f"l{l}.h{k}."
            w, a_s, a_d = params[p + "W"], params[p + "a_s"], params[p + "a_d"]
            a_e, w_e = params[p + "a_e"], params[p + "w_e"]
            z = h @ w.T
            s_term = z @ a_s
            d_term = z @ a_d
            c = float(a_e @ w_e)
            raw = s_term[edges.dst] + d_term[edges.src] + edges.weight * c
            act = _leaky(raw, config.leaky_slope)
            exps = np.exp(act - np.maximum.reduceat(act, starts)[edges.dst])
            if order_invariant:
                denom = _segment_ordered_sum(exps, edges)
            else:
                denom = np.add.reduceat(exps, starts)
            alpha = exps / denom[edges.dst]
            if order_invariant:
                out_k = _segment_ordered_sum(alpha[:, None] * z[edges.src],
                                             edges)
            else:
                attn.data[:] = alpha
                out_k = attn @ z
            head_caches.append({"z": z, "raw": raw, "edge_alpha": alpha})
            out_sum = out_k if out_sum is None else out_sum + out_k
        h = out_sum / config.heads
        cache["heads"].append(head_caches)
        if dropout_rng is not None and config.dropout > 0:
            keep = dropout_rng.random(h.shape) >= config.dropout
            scale = keep / (1.0 - config.dropout)
            h = h * scale
            cache["drop"].append(scale)
        else:
            cache["drop"].append(None)

    cache["last"] = h
    logits = h @ params["dec.W"].T + params["dec.b"]
    return logits, cache


def forward(params: dict[str, np.ndarray], config: GatConfig, g: SubjectGraph,
            dropout_rng: np.random.Generator | None = None,
            features_override: np.ndarray | None = None,
            return_cache: bool = False,
            order_invariant: bool = False):
    """Full forward pass; returns (V, 2) logits (and a backward cache).

    Attention runs on the edge list of ``g.adjacency``: logits on the E
    edges, a segment softmax per destination node, and aggregation as a
    sparse (CSR) product.  The cache's per-head ``"raw"`` logits and
    ``"edge_alpha"`` weights are per edge, ``"attn"`` is the (V, V) CSR
    attention matrix and ``"alpha"`` its dense form, zero off the edges.

    ``dropout_rng`` enables dropout after every attention layer.
    ``order_invariant`` makes all neighbor reductions value-sorted so logits
    are bit-identical under node relabeling (used by property tests; slower).
    """
    h = g.node_features if features_override is None else features_override
    logits, cache = _forward(params, config, g.edges, h, dropout_rng,
                             order_invariant)
    if not return_cache:
        return logits
    from scipy import sparse

    edges, v = g.edges, g.n_nodes
    for layer in cache["heads"]:
        for head in layer:
            head["attn"] = sparse.csr_array(
                (head["edge_alpha"], edges.src, edges.indptr), shape=(v, v))
            head["alpha"] = head["attn"].toarray()
    return logits, cache


def cross_entropy(logits: np.ndarray, labels: np.ndarray,
                  mask: np.ndarray) -> float:
    idx = np.flatnonzero(mask)
    z = logits[idx]
    z = z - z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-np.mean(log_probs[np.arange(len(idx)), labels[idx]]))


def loss_and_grads(params: dict[str, np.ndarray], config: GatConfig,
                   g: SubjectGraph,
                   dropout_rng: np.random.Generator | None = None
                   ) -> tuple[float, dict[str, np.ndarray]]:
    """Cross-entropy over train-masked nodes and exact gradients."""
    from scipy import sparse

    edges = g.edges
    logits, cache = _forward(params, config, edges, g.node_features,
                             dropout_rng, order_invariant=False)
    loss = cross_entropy(logits, g.labels, g.train_mask)
    if not np.isfinite(loss):
        raise RuntimeError(f"non-finite training loss: {loss}")

    v = g.n_nodes
    idx = np.flatnonzero(g.train_mask)
    z = logits[idx] - logits[idx].max(axis=1, keepdims=True)
    probs = np.exp(z)
    probs /= probs.sum(axis=1, keepdims=True)
    d_logits = np.zeros((v, 2))
    d_logits[idx] = probs
    d_logits[idx, g.labels[idx]] -= 1.0
    d_logits /= len(idx)

    h_last = cache["last"]
    grads = {"dec.W": d_logits.T @ h_last, "dec.b": d_logits.sum(axis=0)}
    d_h = d_logits @ params["dec.W"]

    starts = edges.indptr[:-1]
    # attn.T as a CSR of its own, for every head: each writes its alpha in
    # the transposed order, which sums each source's terms in dst order as
    # the CSC form of attn.T does
    attn_t = sparse.csr_array((np.empty(len(edges.dst)), edges.t_dst,
                               edges.t_indptr), shape=(v, v))
    for l in reversed(range(len(config.hidden_dims))):
        scale = cache["drop"][l]
        if scale is not None:
            d_h = d_h * scale
        d_out = d_h / config.heads
        h_in = cache["inputs"][l]
        d_h = np.zeros_like(h_in)
        for k in range(config.heads):
            p = f"l{l}.h{k}."
            w, a_s, a_d = params[p + "W"], params[p + "a_s"], params[p + "a_d"]
            a_e, w_e = params[p + "a_e"], params[p + "w_e"]
            hc = cache["heads"][l][k]
            z_k, raw, alpha = hc["z"], hc["raw"], hc["edge_alpha"]

            # one BLAS product and a gather beat a per-edge row dot product
            d_alpha = (d_out @ z_k.T)[edges.dst, edges.src]
            attn_t.data[:] = alpha[edges.perm]
            d_z = attn_t @ d_out
            d_logit = alpha * (d_alpha - np.add.reduceat(d_alpha * alpha,
                                                         starts)[edges.dst])
            d_g = d_logit * _leaky_grad(raw, config.leaky_slope)
            d_s = np.add.reduceat(d_g, starts)
            d_d = np.bincount(edges.src, weights=d_g, minlength=v)
            d_c = float(d_g @ edges.weight)
            d_z += d_s[:, None] * a_s[None, :] + d_d[:, None] * a_d[None, :]
            grads[p + "a_s"] = z_k.T @ d_s
            grads[p + "a_d"] = z_k.T @ d_d
            grads[p + "a_e"] = d_c * w_e
            grads[p + "w_e"] = d_c * a_e
            grads[p + "W"] = d_z.T @ h_in
            d_h += d_z @ w
    return loss, grads


def train(g: SubjectGraph, config: GatConfig) -> GatModel:
    """Full-batch Adam training; bit-reproducible for a fixed seed."""
    if not g.train_mask.any():
        raise ValueError("empty train mask")
    if len(np.unique(g.labels[g.train_mask])) < 2:
        raise ValueError("train mask must contain both classes")

    rng = np.random.default_rng(config.seed)
    params = init_params(config, g.n_features, rng)
    m = {name: np.zeros_like(p) for name, p in params.items()}
    vv = {name: np.zeros_like(p) for name, p in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    history = []
    for t in range(1, config.epochs + 1):
        loss, grads = loss_and_grads(params, config, g, dropout_rng=rng)
        history.append(loss)
        for name in params:
            m[name] = beta1 * m[name] + (1 - beta1) * grads[name]
            vv[name] = beta2 * vv[name] + (1 - beta2) * grads[name] ** 2
            m_hat = m[name] / (1 - beta1 ** t)
            v_hat = vv[name] / (1 - beta2 ** t)
            params[name] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return GatModel(config=config, in_dim=g.n_features, params=params,
                    loss_history=history)


def predict_scores(model: GatModel, g: SubjectGraph,
                   features_override: np.ndarray | None = None) -> np.ndarray:
    """Class-1 margin (logit difference) per node, dropout disabled."""
    logits = forward(model.params, model.config, g,
                     features_override=features_override)
    return logits[:, 1] - logits[:, 0]


def ablation_importance(model: GatModel, g: SubjectGraph,
                        theta: int) -> FeatureImportanceReport:
    """Rank features by validation AUROC drop when zeroed in the input.

    The graph edges are kept fixed during ablation so the measured drop
    reflects the feature's contribution, not a structure change.  The
    report's ``convergence`` holds the model's epoch count, first, last
    and minimum training loss, and the graph's attention edge count
    (self-loops included) and mean degree (self-loops excluded).
    """
    if not g.val_mask.any():
        raise ValueError("empty validation mask")
    val = g.val_mask
    baseline = auroc(predict_scores(model, g)[val], g.labels[val])
    deltas = np.empty(g.n_features)
    for j in range(g.n_features):
        if not np.any(g.node_features[:, j]):
            deltas[j] = 0.0  # zeroing an all-zero column is a no-op
            continue
        ablated = g.node_features.copy()
        ablated[:, j] = 0.0
        scores = predict_scores(model, g, features_override=ablated)
        deltas[j] = baseline - auroc(scores[val], g.labels[val])
    ranking = np.lexsort((np.arange(g.n_features), -deltas))
    theta = min(theta, g.n_features)
    losses = model.loss_history
    return FeatureImportanceReport(
        baseline_auroc=float(baseline),
        deltas=deltas,
        ranking=ranking,
        selected=[g.feature_names[j] for j in ranking[:theta]],
        theta=theta,
        feature_names=list(g.feature_names),
        convergence={
            "epochs": len(losses),
            "loss_first": losses[0] if losses else None,
            "loss_last": losses[-1] if losses else None,
            "loss_min": min(losses, default=None),
            "attention_edges": int(g.adjacency.sum()),
            "mean_degree": mean_degree(g),
        },
    )
