"""Training loops and end-to-end evaluation helpers.

Classification trains full-batch over the labeled nodes; link prediction
samples a batch of positive triples per iteration, corrupts them 1:1, and
re-encodes the full graph. Both run plain gradient descent by default
(`optimizer="adam"` switches). Every randomized choice flows from one
seeded generator, so a fixed seed gives bit-identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import decoders, evaluation
from . import tensor as T
from .encoder import encode
from .model import init_params
from .tensor import NumericFailure, Tape


@dataclass
class TrainResult:
    params: object
    log: list  # (iteration, loss, valid_metric or None)


def _classify_step(graph, params, enc_cfg, config, ids, classes, rng):
    feats = encode(graph, params, enc_cfg, training=True, rng=rng)
    probs = decoders.classify_forward(feats, params.head, ids)
    return decoders.classification_loss(probs, classes, params.all_params(),
                                        config.l2)


def _linkpred_step(graph, params, enc_cfg, config, triples, known, rng):
    batch = min(config.batch_size, len(triples))
    positives = triples[rng.integers(0, len(triples), batch)]
    samples, labels = decoders.sample_negatives(
        positives, graph.num_entities, rng, known=known,
        filtered=config.filtered_negatives)
    feats = encode(graph, params, enc_cfg, training=True, rng=rng)
    scores, used = decoders.score_triples(params, feats, samples,
                                          config.decoder)
    return decoders.link_loss(scores, labels, params.all_params(), used,
                              config.l2)


def train(graph, splits, config, task, seed, log_path=None, progress=None):
    """Train a model; returns TrainResult(params, log).

    `splits` carries task inputs: classification wants `labels_train` (and
    optionally `labels_valid`); link prediction trains on the graph's own
    triples and optionally validates on `valid` (an id-triple array), with
    `filter_triples` defining the filtered-metric positive set.
    """
    config.validate()
    enc_cfg = config.encoder_config()
    rng = np.random.default_rng(seed)

    valid_fn = None
    if task == "classify":
        labels = splits["labels_train"]
        num_classes = splits.get("num_classes", labels.num_classes)
        params = init_params(graph.num_entities, graph.num_relations, enc_cfg,
                             task, rng, num_classes=num_classes,
                             decoder=config.decoder, init=config.init)

        def step():
            return _classify_step(graph, params, enc_cfg, config,
                                  labels.entities, labels.classes, rng)

        valid_labels = splits.get("labels_valid")
        if valid_labels is not None:
            def valid_fn():
                return evaluate_classification(graph, params, enc_cfg,
                                               valid_labels)
    elif task == "linkpred":
        triples = graph.triple_array()
        known = graph.known_triples() if config.filtered_negatives else None
        params = init_params(graph.num_entities, graph.num_relations, enc_cfg,
                             task, rng, decoder=config.decoder,
                             init=config.init)

        def step():
            return _linkpred_step(graph, params, enc_cfg, config, triples,
                                  known, rng)

        valid_triples = splits.get("valid")
        if valid_triples is not None and len(valid_triples):
            filter_triples = splits.get("filter_triples")
            if filter_triples is None:
                filter_triples = np.concatenate([triples, valid_triples])
            filter_index = evaluation.FilterIndex(filter_triples)

            def valid_fn():
                results = evaluate_links(graph, params, enc_cfg,
                                         config.decoder, valid_triples,
                                         filter_index)
                return evaluation.mrr(results, "filtered")
    else:
        raise ValueError(f"unknown task {task!r}")

    log = []
    log_lines = ["iteration,loss,valid_metric\n"]
    for iteration in range(1, config.iterations + 1):
        try:
            with Tape() as tape:
                loss = step()
        except NumericFailure as exc:
            raise NumericFailure(f"iteration {iteration}: {exc}") from exc
        loss_value = loss.item()
        if not np.isfinite(loss_value):
            raise NumericFailure(
                f"non-finite loss at iteration {iteration}")
        tape.backward(loss)
        if config.optimizer == "adam":
            if iteration == 1:
                adam_state = T.AdamState()
            T.adam_step(params.all_params(), adam_state, config.learning_rate)
        else:
            T.sgd_step(params.all_params(), config.learning_rate)

        at_interval = (iteration % config.eval_interval == 0
                       or iteration == config.iterations)
        metric = valid_fn() if (valid_fn is not None and at_interval) else None
        log.append((iteration, loss_value, metric))
        if at_interval:
            metric_str = "" if metric is None else f"{metric:.6f}"
            log_lines.append(f"{iteration},{loss_value:.6f},{metric_str}\n")
        if progress is not None and at_interval:
            progress(iteration, loss_value, metric)
    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as fh:
            fh.writelines(log_lines)
    return TrainResult(params=params, log=log)


# ---------------------------------------------------------------------------
# evaluation entry points (dropout off)


def evaluate_classification(graph, params, enc_cfg, labels):
    """Test accuracy of the classification head over a LabelSet."""
    feats = encode(graph, params, enc_cfg)
    probs = decoders.classify_forward(feats, params.head, labels.entities)
    return evaluation.classification_accuracy(probs.values, labels.classes)


def evaluate_links(graph, params, enc_cfg, decoder, test_triples, known):
    """Both-sides RankingResults for the given test triples."""
    feats = encode(graph, params, enc_cfg)
    scorer = decoders.query_scorer(feats.values, params, decoder)
    return evaluation.evaluate_ranking(test_triples, scorer, known)
