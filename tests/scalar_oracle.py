"""Straight-line scalar re-implementation of the model, used as a test oracle.

Everything here is deliberately dumb: plain Python floats, nested lists and
explicit loops, no numpy. The point is that this file shares no code (and no
vectorization bugs) with the package; the real implementation must agree with
it to tight tolerances.

Conventions match the package:
  * forward direction of node i = in-edges (neighbors are heads of edges
    ending at i); backward = out-edges (neighbors are tails).
  * attention is normalized within each (node, relation, direction) group.
  * per direction: h_dir[i] = relu( sum_r sum_j alpha_ij * W_r h_j + W0 h_i )
  * layer output: h' + h''
  * readout: f[i] = sum_{in-edges e} g_rel(e) * H[head(e)]
                  + sum_{out-edges e} g_rel(e) * H[tail(e)]

Parameters are passed as plain nested lists:
  params = {
    "embedding": [[...], ...],                 # |V| x D
    "layers": [ { "att_W": DxD, "self_W": DxD,
                  "blocks": { "fwd": {rel: [block, ...]},   # B blocks, each
                              "bwd": {rel: [block, ...]} } }, ... ],
    "gates": [g_0, ..., g_{R-1}],
    "cls_W": DxK,                              # classification head
    "rel_re": |R| x D/2, "rel_im": |R| x D/2,  # complex decoder
    "rel_diag": |R| x D,                       # distmult decoder
  }

Dropout is never applied here (evaluation-mode oracle).
"""

import math


def dot(u, v):
    s = 0.0
    for a, b in zip(u, v):
        s += a * b
    return s


def mat_vec(m, v):
    return [dot(row_t, v) for row_t in transpose(m)]


def transpose(m):
    return [[m[i][j] for i in range(len(m))] for j in range(len(m[0]))]


def vec_mat(v, m):
    # v (len n) times m (n x k) -> len k
    out = []
    for j in range(len(m[0])):
        s = 0.0
        for i in range(len(v)):
            s += v[i] * m[i][j]
        out.append(s)
    return out


def leaky_relu_scalar(x, slope):
    return x if x > 0.0 else slope * x


def softmax_scalars(vals):
    m = max(vals)
    exps = [math.exp(v - m) for v in vals]
    z = sum(exps)
    return [e / z for e in exps]


def block_transform(v, blocks):
    """Apply the block-diagonal matrix diag(blocks) to vector v."""
    b = len(blocks)
    din_b = len(blocks[0])
    out = []
    for k in range(b):
        piece = v[k * din_b:(k + 1) * din_b]
        out.extend(vec_mat(piece, blocks[k]))
    return out


def in_out_edges(triples, num_entities):
    in_e = [[] for _ in range(num_entities)]
    out_e = [[] for _ in range(num_entities)]
    for (h, r, t) in triples:
        in_e[t].append((h, r))
        out_e[h].append((t, r))
    return in_e, out_e


def attention_weights(states_wx, i, neighbors, slope):
    """alpha over `neighbors` given precomputed W*x rows."""
    scores = [leaky_relu_scalar(dot(states_wx[i], states_wx[j]), slope)
              for j in neighbors]
    return softmax_scalars(scores)


def encode(triples, num_entities, num_relations, params, num_blocks,
           leaky_slope=0.2):
    in_e, out_e = in_out_edges(triples, num_entities)
    h = [list(row_e) for row_e in params["embedding"]]

    for layer in params["layers"]:
        att_w = layer["att_W"]
        self_w = layer["self_W"]
        wx = [vec_mat(h[i], att_w) for i in range(num_entities)]
        d_out = len(self_w[0])
        nxt = []
        for i in range(num_entities):
            total = [0.0] * d_out
            for dirname, edges in (("fwd", in_e[i]), ("bwd", out_e[i])):
                pre = vec_mat(h[i], self_w)
                by_rel = {}
                for (j, r) in edges:
                    by_rel.setdefault(r, []).append(j)
                for r in sorted(by_rel):
                    neigh = by_rel[r]
                    alphas = attention_weights(wx, i, neigh, leaky_slope)
                    blocks = layer["blocks"][dirname][r]
                    for a, j in zip(alphas, neigh):
                        msg = block_transform(h[j], blocks)
                        for k in range(d_out):
                            pre[k] += a * msg[k]
                for k in range(d_out):
                    total[k] += max(pre[k], 0.0)
            nxt.append(total)
        h = nxt

    gates = params["gates"]
    feats = []
    for i in range(num_entities):
        f = [0.0] * len(h[0])
        for (j, r) in in_e[i]:
            for k in range(len(f)):
                f[k] += gates[r] * h[j][k]
        for (j, r) in out_e[i]:
            for k in range(len(f)):
                f[k] += gates[r] * h[j][k]
        feats.append(f)
    return feats


def classify_logits(feats, cls_w, node_ids):
    return [vec_mat(feats[i], cls_w) for i in node_ids]


def classify_probs(feats, cls_w, node_ids):
    return [softmax_scalars(row)
            for row in classify_logits(feats, cls_w, node_ids)]


def classification_loss(logit_rows, class_ids):
    """Summed softmax cross entropy: per row, log-sum-exp minus the true
    logit."""
    loss = 0.0
    for row, k in zip(logit_rows, class_ids):
        m = max(row)
        loss += m + math.log(sum(math.exp(z - m) for z in row)) - row[k]
    return loss


def complex_score(w_re, w_im, f_s, f_o):
    """Four-term scoring on a split feature: first half real, second half imag."""
    half = len(f_s) // 2
    s_re, s_im = f_s[:half], f_s[half:]
    o_re, o_im = f_o[:half], f_o[half:]
    score = 0.0
    for d in range(half):
        score += w_re[d] * s_re[d] * o_re[d]
        score += w_re[d] * s_im[d] * o_im[d]
        score += w_im[d] * s_re[d] * o_im[d]
        score -= w_im[d] * s_im[d] * o_re[d]
    return score


def distmult_score(w_diag, f_s, f_o):
    score = 0.0
    for d in range(len(f_s)):
        score += w_diag[d] * f_s[d] * f_o[d]
    return score


def sigmoid_scalar(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def link_loss(scores, labels):
    """Mean binary cross entropy in bits."""
    total = 0.0
    for s, y in zip(scores, labels):
        p = sigmoid_scalar(s)
        if y == 1:
            total -= math.log2(max(p, 1e-300))
        else:
            total -= math.log2(max(1.0 - p, 1e-300))
    return total / len(scores)


def l2_sum(coeff, matrices):
    total = 0.0
    for m in matrices:
        for row_m in m:
            for v in row_m:
                total += v * v
    return coeff * total
