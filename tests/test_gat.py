"""GAT tests: graph construction against a brute-force cosine oracle, a
pencil-and-paper forward pass, a dense V x V reference of the edge-list
attention, finite-difference gradient checks, permutation equivariance,
and ablation ranking.
"""

import numpy as np
import pytest

from cardiofuse import gat
from cardiofuse.gat import GatConfig, SubjectGraph
from cardiofuse.metrics import auroc


def small_graph(seed=0, n=6, d=4, target_degree=2, informative=True):
    rng = np.random.default_rng(seed)
    labels = np.array([0, 1] * (n // 2) + [0] * (n % 2))
    x = rng.normal(size=(n, d))
    if informative:
        x[:, 0] += 2.0 * labels
    train = np.ones(n, dtype=bool)
    train[-2:] = False
    val = ~train
    return gat.build_graph(x, target_degree, labels, train, val)


def dense_forward(params, config, g, dropout_rng=None, features_override=None):
    """Reference attention on dense (V, V) logit, mask and alpha matrices."""
    h = g.node_features if features_override is None else features_override
    mask, e = g.adjacency, g.edge_weights
    cache = {"inputs": [], "heads": [], "drop": []}
    for l in range(len(config.hidden_dims)):
        cache["inputs"].append(h)
        heads, out_sum = [], 0.0
        for k in range(config.heads):
            p = f"l{l}.h{k}."
            z = h @ params[p + "W"].T
            c = float(params[p + "a_e"] @ params[p + "w_e"])
            raw = ((z @ params[p + "a_s"])[:, None]
                   + (z @ params[p + "a_d"])[None, :] + e * c)
            act = np.where(raw > 0, raw, config.leaky_slope * raw)
            shifted = act - np.max(np.where(mask, act, -np.inf),
                                   axis=1, keepdims=True)
            exps = np.exp(np.where(mask, shifted, -np.inf))
            alpha = exps / exps.sum(axis=1, keepdims=True)
            heads.append({"z": z, "raw": raw, "alpha": alpha})
            out_sum = out_sum + alpha @ z
        h = out_sum / config.heads
        cache["heads"].append(heads)
        scale = None
        if dropout_rng is not None and config.dropout > 0:
            keep = dropout_rng.random(h.shape) >= config.dropout
            scale = keep / (1.0 - config.dropout)
            h = h * scale
        cache["drop"].append(scale)
    cache["last"] = h
    return h @ params["dec.W"].T + params["dec.b"], cache


def dense_loss_and_grads(params, config, g, dropout_rng=None):
    """Reference backward pass through :func:`dense_forward`."""
    logits, cache = dense_forward(params, config, g, dropout_rng)
    loss = gat.cross_entropy(logits, g.labels, g.train_mask)
    grads = {}
    idx = np.flatnonzero(g.train_mask)
    z = logits[idx] - logits[idx].max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    d_logits = np.zeros((g.n_nodes, 2))
    d_logits[idx] = probs
    d_logits[idx, g.labels[idx]] -= 1.0
    d_logits /= len(idx)
    grads["dec.W"] = d_logits.T @ cache["last"]
    grads["dec.b"] = d_logits.sum(axis=0)
    d_h = d_logits @ params["dec.W"]
    for l in reversed(range(len(config.hidden_dims))):
        if cache["drop"][l] is not None:
            d_h = d_h * cache["drop"][l]
        d_out = d_h / config.heads
        h_in = cache["inputs"][l]
        d_h = np.zeros_like(h_in)
        for k in range(config.heads):
            p = f"l{l}.h{k}."
            hc = cache["heads"][l][k]
            z_k, raw, alpha = hc["z"], hc["raw"], hc["alpha"]
            d_alpha = d_out @ z_k.T
            d_z = alpha.T @ d_out
            d_logit = alpha * (d_alpha
                               - (d_alpha * alpha).sum(axis=1, keepdims=True))
            d_g = d_logit * np.where(raw > 0, 1.0, config.leaky_slope)
            d_s, d_d = d_g.sum(axis=1), d_g.sum(axis=0)
            d_c = float((d_g * g.edge_weights).sum())
            d_z += (d_s[:, None] * params[p + "a_s"][None, :]
                    + d_d[:, None] * params[p + "a_d"][None, :])
            grads[p + "a_s"] = z_k.T @ d_s
            grads[p + "a_d"] = z_k.T @ d_d
            grads[p + "a_e"] = d_c * params[p + "w_e"]
            grads[p + "w_e"] = d_c * params[p + "a_e"]
            grads[p + "W"] = d_z.T @ h_in
            d_h += d_z @ params[p + "W"]
    return loss, grads


def isolate_node(g, v):
    """Cut every edge of node ``v`` except its self-loop."""
    keep = np.ones(g.n_nodes, dtype=bool)
    keep[v] = False
    g.adjacency[v, keep] = g.adjacency[keep, v] = False
    g.edge_weights[v, keep] = g.edge_weights[keep, v] = 0.0
    return g


class TestBuildGraph:
    def test_identical_rows_weight_one(self):
        x = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        g = gat.build_graph(x, 1, standardize=False)
        off_diag = g.adjacency & ~np.eye(2, dtype=bool)
        assert off_diag[0, 1] and off_diag[1, 0]
        assert g.edge_weights[0, 1] == pytest.approx(1.0)

    def test_orthogonal_rows_empty_with_warning(self):
        x = np.eye(4)
        with pytest.warns(UserWarning):
            g = gat.build_graph(x, 2, standardize=False)
        assert not np.any(g.adjacency & ~np.eye(4, dtype=bool))

    def test_mean_degree_near_target_vs_bruteforce(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 8))
        g = gat.build_graph(x, 10, standardize=False)
        # brute-force oracle: recount edges from the full cosine matrix
        norm = x / np.linalg.norm(x, axis=1, keepdims=True)
        sims = norm @ norm.T
        expected = (sims > g.threshold) & ~np.eye(100, dtype=bool)
        np.testing.assert_array_equal(
            g.adjacency & ~np.eye(100, dtype=bool), expected)
        assert abs(gat.mean_degree(g) - 10) <= 1.0

    def test_undirected(self):
        g = small_graph(seed=2, n=20, target_degree=4)
        np.testing.assert_array_equal(g.adjacency, g.adjacency.T)
        np.testing.assert_allclose(g.edge_weights, g.edge_weights.T)

    def test_self_loops_present_with_unit_weight(self):
        g = small_graph(seed=3)
        assert np.all(np.diag(g.adjacency))
        np.testing.assert_allclose(np.diag(g.edge_weights), 1.0)

    def test_all_zero_row_rejected(self):
        x = np.vstack([np.zeros(3), np.ones((3, 3))])
        with pytest.raises(ValueError):
            gat.build_graph(x, 1, standardize=False)

    def test_target_degree_too_large(self):
        with pytest.raises(ValueError):
            gat.build_graph(np.ones((3, 2)), 3)


class TestForward:
    def test_attention_rows_sum_to_one(self):
        g = small_graph(seed=4, n=10, target_degree=3)
        cfg = GatConfig(hidden_dims=(5, 4), heads=2, seed=0)
        params = gat.init_params(cfg, g.n_features, np.random.default_rng(0))
        _, cache = gat.forward(params, cfg, g, return_cache=True)
        for layer in cache["heads"]:
            for head in layer:
                row_sums = head["alpha"].sum(axis=1)
                np.testing.assert_allclose(row_sums, 1.0, atol=1e-10)

    def test_zero_attention_vectors_give_uniform_attention(self):
        g = small_graph(seed=5, n=8, target_degree=2)
        cfg = GatConfig(hidden_dims=(4,), heads=1, seed=0)
        params = gat.init_params(cfg, g.n_features, np.random.default_rng(1))
        params["l0.h0.a_s"][:] = 0.0
        params["l0.h0.a_d"][:] = 0.0
        params["l0.h0.a_e"][:] = 0.0
        _, cache = gat.forward(params, cfg, g, return_cache=True)
        alpha = cache["heads"][0][0]["alpha"]
        for v in range(g.n_nodes):
            nbrs = np.flatnonzero(g.adjacency[v])
            np.testing.assert_allclose(alpha[v, nbrs], 1.0 / len(nbrs),
                                       atol=1e-12)

    def test_path_graph_manual_forward(self):
        """Step-by-step oracle on a 5-node path, 2-dim features, 1 head."""
        n = 5
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                      [-1.0, 0.5], [0.5, -0.5]])
        adjacency = np.eye(n, dtype=bool)
        weights = np.eye(n)
        for i in range(n - 1):
            adjacency[i, i + 1] = adjacency[i + 1, i] = True
            weights[i, i + 1] = weights[i + 1, i] = 0.5
        g = SubjectGraph(node_features=x, edge_weights=weights,
                         adjacency=adjacency, threshold=0.0,
                         labels=np.zeros(n, dtype=np.int64),
                         train_mask=np.ones(n, dtype=bool),
                         val_mask=np.zeros(n, dtype=bool),
                         feature_names=["f0", "f1"])
        cfg = GatConfig(hidden_dims=(2,), heads=1, edge_dim=2,
                        leaky_slope=0.25)
        w = np.array([[0.3, -0.2], [0.1, 0.4]])
        a_s = np.array([0.5, -0.3])
        a_d = np.array([0.2, 0.1])
        a_e = np.array([0.4, 0.6])
        w_e = np.array([1.0, -0.5])
        dec_w = np.array([[1.0, 0.0], [0.0, 1.0]])
        params = {"l0.h0.W": w, "l0.h0.a_s": a_s, "l0.h0.a_d": a_d,
                  "l0.h0.a_e": a_e, "l0.h0.w_e": w_e,
                  "dec.W": dec_w, "dec.b": np.zeros(2)}

        # pencil-and-paper evaluation, node by node
        z = x @ w.T
        c = a_e @ w_e
        expected_h = np.zeros((n, 2))
        for v in range(n):
            nbrs = np.flatnonzero(adjacency[v])
            logits = []
            for u in nbrs:
                raw = a_s @ z[v] + a_d @ z[u] + weights[v, u] * c
                logits.append(raw if raw > 0 else 0.25 * raw)
            logits = np.array(logits)
            alpha = np.exp(logits - logits.max())
            alpha /= alpha.sum()
            expected_h[v] = sum(a * z[u] for a, u in zip(alpha, nbrs))
        expected_logits = expected_h @ dec_w.T

        out = gat.forward(params, cfg, g)
        np.testing.assert_allclose(out, expected_logits, atol=1e-9)

    def test_missing_self_loop_rejected(self):
        g = small_graph(seed=4, n=6)
        g.adjacency[2, 2] = False
        cfg = GatConfig(hidden_dims=(3,), heads=1)
        params = gat.init_params(cfg, g.n_features, np.random.default_rng(0))
        with pytest.raises(ValueError, match="self-loop"):
            gat.forward(params, cfg, g)

    def test_permutation_equivariance_bit_exact(self):
        g = small_graph(seed=6, n=9, target_degree=3)
        cfg = GatConfig(hidden_dims=(6, 5), heads=2, seed=0)
        params = gat.init_params(cfg, g.n_features, np.random.default_rng(2))
        logits = gat.forward(params, cfg, g, order_invariant=True)

        perm = np.random.default_rng(3).permutation(g.n_nodes)
        g_perm = SubjectGraph(
            node_features=g.node_features[perm],
            edge_weights=g.edge_weights[np.ix_(perm, perm)],
            adjacency=g.adjacency[np.ix_(perm, perm)],
            threshold=g.threshold,
            labels=g.labels[perm],
            train_mask=g.train_mask[perm],
            val_mask=g.val_mask[perm],
            feature_names=g.feature_names,
        )
        logits_perm = gat.forward(params, cfg, g_perm, order_invariant=True)
        assert np.array_equal(logits_perm, logits[perm])


class TestDenseOracle:
    """The edge-list attention against :func:`dense_forward`."""

    CASES = [(0, 7, False), (1, 12, True), (2, 20, False), (3, 9, True)]

    @staticmethod
    def _setup(seed, n, isolated):
        g = small_graph(seed=seed, n=n, d=5, target_degree=3)
        if isolated:
            isolate_node(g, 1)
            assert g.adjacency[1].sum() == 1
        cfg = GatConfig(hidden_dims=(6, 5), heads=3, edge_dim=4, seed=seed)
        params = gat.init_params(cfg, g.n_features,
                                 np.random.default_rng(seed + 20))
        return g, cfg, params

    @pytest.mark.parametrize("seed,n,isolated", CASES)
    def test_logits_and_attention_match(self, seed, n, isolated):
        g, cfg, params = self._setup(seed, n, isolated)
        expected, ref = dense_forward(params, cfg, g)
        logits, cache = gat.forward(params, cfg, g, return_cache=True)
        np.testing.assert_allclose(logits, expected, rtol=1e-10, atol=0)
        for layer, ref_layer in zip(cache["heads"], ref["heads"]):
            for head, ref_head in zip(layer, ref_layer):
                np.testing.assert_allclose(head["alpha"], ref_head["alpha"],
                                           rtol=1e-10)
        ordered = gat.forward(params, cfg, g, order_invariant=True)
        np.testing.assert_allclose(ordered, expected, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("seed,n,isolated", CASES)
    def test_loss_and_every_gradient_match(self, seed, n, isolated, dropout):
        g, cfg, params = self._setup(seed, n, isolated)
        def rng():
            return np.random.default_rng(seed + 30) if dropout else None

        loss, grads = gat.loss_and_grads(params, cfg, g, dropout_rng=rng())
        ref_loss, ref_grads = dense_loss_and_grads(params, cfg, g,
                                                   dropout_rng=rng())
        assert loss == pytest.approx(ref_loss, rel=1e-10)
        assert grads.keys() == ref_grads.keys()
        # the floor covers exactly-zero gradients (a_s: s_v is constant over
        # v's softmax), where only summation-order noise (~1e-18) is left
        for name in grads:
            np.testing.assert_allclose(grads[name], ref_grads[name],
                                       rtol=1e-10, atol=1e-15, err_msg=name)

    def test_ablation_deltas_equal_per_column_oracle(self):
        rng = np.random.default_rng(12)
        n = 40
        labels = rng.integers(0, 2, n)
        x = rng.normal(size=(n, 6))
        x[:, 0] += 2.0 * labels
        train = np.ones(n, dtype=bool)
        train[-15:] = False
        g = gat.build_graph(x, 4, labels, train, ~train)
        model = gat.train(g, GatConfig(hidden_dims=(8,), heads=2, epochs=30,
                                       seed=0))
        report = gat.ablation_importance(model, g, theta=3)

        def val_auroc(features):
            logits, _ = dense_forward(model.params, model.config, g,
                                      features_override=features)
            scores = logits[:, 1] - logits[:, 0]
            return auroc(scores[g.val_mask], g.labels[g.val_mask])

        baseline = val_auroc(g.node_features)
        expected = np.empty(g.n_features)
        for j in range(g.n_features):
            ablated = g.node_features.copy()
            ablated[:, j] = 0.0
            expected[j] = baseline - val_auroc(ablated)
        assert report.baseline_auroc == baseline
        np.testing.assert_array_equal(report.deltas, expected)


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_central_finite_differences(self, seed):
        g = small_graph(seed=seed, n=7, d=3, target_degree=2)
        cfg = GatConfig(hidden_dims=(4, 3), heads=2, edge_dim=3,
                        dropout=0.0, seed=seed)
        rng = np.random.default_rng(seed + 10)
        params = gat.init_params(cfg, g.n_features, rng)
        _, grads = gat.loss_and_grads(params, cfg, g)

        eps = 1e-5
        for name, p in params.items():
            p_flat = np.atleast_1d(np.asarray(p, dtype=np.float64)).ravel()
            g_flat = np.atleast_1d(grads[name]).ravel()
            numeric = np.empty_like(p_flat)
            for i in range(len(p_flat)):
                orig = p_flat[i]
                p_flat[i] = orig + eps
                plus, _ = gat.loss_and_grads(
                    {**params, name: p_flat.reshape(np.shape(p))}, cfg, g)
                p_flat[i] = orig - eps
                minus, _ = gat.loss_and_grads(
                    {**params, name: p_flat.reshape(np.shape(p))}, cfg, g)
                p_flat[i] = orig
                numeric[i] = (plus - minus) / (2 * eps)
            diff = np.linalg.norm(g_flat - numeric)
            denom = max(np.linalg.norm(numeric), np.linalg.norm(g_flat), 1e-8)
            # a near-zero true gradient leaves only cancellation noise in the
            # central difference; accept on absolute agreement there
            assert diff / denom < 1e-4 or diff < 1e-8, \
                f"{name}: rel {diff / denom}, abs {diff}"


class TestTraining:
    def test_loss_decreases(self):
        g = small_graph(seed=7, n=20, target_degree=4)
        model = gat.train(g, GatConfig(hidden_dims=(8,), heads=2, epochs=50,
                                       dropout=0.0, seed=0))
        assert model.loss_history[-1] < model.loss_history[0]

    def test_two_cluster_graph_high_train_accuracy(self):
        rng = np.random.default_rng(8)
        n = 40
        labels = np.array([0] * 20 + [1] * 20)
        x = rng.normal(size=(n, 6)) + 3.0 * labels[:, None]
        train = np.ones(n, dtype=bool)
        train[::5] = False
        g = gat.build_graph(x, 6, labels, train, ~train)
        model = gat.train(g, GatConfig(epochs=400, seed=0))
        logits = gat.forward(model.params, model.config, g)
        preds = np.argmax(logits, axis=1)
        assert np.mean(preds[train] == labels[train]) >= 0.95

    def test_single_class_train_mask_rejected(self):
        g = small_graph(seed=9, n=8, target_degree=2)
        g.labels[:] = 0
        with pytest.raises(ValueError):
            gat.train(g, GatConfig(epochs=1))

    def test_seeded_determinism(self):
        g = small_graph(seed=10, n=12, target_degree=3)
        cfg = GatConfig(hidden_dims=(8, 6), heads=2, epochs=20, seed=5)
        m1 = gat.train(g, cfg)
        m2 = gat.train(g, cfg)
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name], m2.params[name])


class TestAblation:
    def _trained(self, seed=11):
        rng = np.random.default_rng(seed)
        n = 60
        labels = rng.integers(0, 2, n)
        x = rng.normal(size=(n, 8))
        x[:, 0] += 3.0 * labels  # feature 0 carries the entire signal
        train = np.ones(n, dtype=bool)
        train[-20:] = False
        g = gat.build_graph(x, 5, labels, train, ~train)
        model = gat.train(g, GatConfig(hidden_dims=(16,), heads=2,
                                       epochs=150, seed=0))
        return model, g

    def test_determining_feature_ranked_first(self):
        model, g = self._trained()
        report = gat.ablation_importance(model, g, theta=3)
        assert report.ranking[0] == 0

    def test_all_zero_column_delta_exactly_zero(self):
        model, g = self._trained()
        g.node_features[:, 5] = 0.0
        report = gat.ablation_importance(model, g, theta=3)
        assert report.deltas[5] == 0.0

    def test_theta_full_returns_all_ranked(self):
        model, g = self._trained()
        report = gat.ablation_importance(model, g, theta=g.n_features)
        assert len(report.selected) == g.n_features
        assert sorted(report.ranking.tolist()) == list(range(g.n_features))
        # ranking really is delta-descending
        deltas = report.deltas[report.ranking]
        assert all(deltas[i] >= deltas[i + 1] for i in range(len(deltas) - 1))

    def test_convergence_summary(self):
        model, g = self._trained()
        conv = gat.ablation_importance(model, g, theta=3).convergence
        assert conv["epochs"] == 150
        assert conv["loss_first"] == model.loss_history[0]
        assert conv["loss_last"] == model.loss_history[-1]
        assert conv["loss_min"] == min(model.loss_history)
        assert conv["attention_edges"] == g.adjacency.sum()
        assert conv["mean_degree"] == gat.mean_degree(g)
        model.loss_history = []  # a run configured with zero epochs
        conv = gat.ablation_importance(model, g, theta=3).convergence
        assert conv["epochs"] == 0 and conv["loss_min"] is None

    def test_untrained_model_rejected(self):
        model, g = self._trained()
        model.trained = False
        with pytest.raises(ValueError):
            gat.ablation_importance(model, g)

    def test_report_deterministic_and_csv_shape(self):
        model, g = self._trained()
        r1 = gat.ablation_importance(model, g, theta=4)
        r2 = gat.ablation_importance(model, g, theta=4)
        np.testing.assert_array_equal(r1.deltas, r2.deltas)
        np.testing.assert_array_equal(r1.ranking, r2.ranking)
        lines = r1.to_csv().strip().split("\n")
        assert lines[0] == "feature_name,delta_auroc,rank,selected"
        assert len(lines) == 1 + g.n_features
        assert sum(line.endswith(",1") for line in lines[1:]) == 4

    def test_baseline_matches_direct_auroc(self):
        model, g = self._trained()
        report = gat.ablation_importance(model, g, theta=3)
        scores = gat.predict_scores(model, g)
        expected = auroc(scores[g.val_mask], g.labels[g.val_mask])
        assert report.baseline_auroc == pytest.approx(expected, abs=1e-12)
