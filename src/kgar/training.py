"""Training loops and end-to-end evaluation helpers.

Classification trains full-batch over the labeled nodes; link prediction
samples a batch of positive triples per iteration, corrupts them 1:1, and
re-encodes the full graph; filtered negative sampling and validation
ranking read the known triples from one `evaluation.FilterIndex` each,
and every step scores its batch in the run's one `decoders.ScoreBuffers`.
Both tasks run plain gradient descent by default (`optimizer="adam"`
switches). The encoder, the step and the evaluation helpers all read one
`RunConfig`; the scorers tell the decoder from the model's parameters.
Every randomized choice flows from one seeded generator, so a fixed seed
gives bit-identical runs. A step hands it to `encode`, which makes that a
training pass with dropout; the evaluation helpers hand it none.

Each step returns its data loss (summed softmax cross entropy for
classification, mean binary cross entropy in bits for link prediction) and
the feature rows it names for L2. `train` alone adds the L2 term:
`config.l2` times the sum of squared entries of the schema's `regularized`
parameters (the relation blocks for classification, the relation
embeddings for link prediction) and of those rows (for link prediction,
the batch's head and tail rows, each as often as it is named).
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


def _classify_step(graph, params, config, ids, classes, rng):
    feats = encode(graph, params, config, rng)
    logits = decoders.classify_forward(feats, params.head, ids)
    return T.softmax_cross_entropy(logits, classes), []


def _linkpred_step(graph, params, config, triples, known, rng, buffers):
    batch = min(config.batch_size, len(triples))
    positives = triples[rng.integers(0, len(triples), batch)]
    samples, labels = decoders.sample_negatives(
        positives, graph.num_entities, rng, known=known)
    feats = encode(graph, params, config, rng)
    scores = decoders.score_triples(params, feats, samples, buffers)
    rows = ([T.gather_rows(feats, samples[:, [0, 2]].ravel())]
            if config.l2 else [])
    return T.binary_cross_entropy_bits(scores, labels), rows


def train(graph, splits, config, task, seed, progress=None):
    """Train a model; returns TrainResult(params).

    `splits` carries task inputs: classification wants `labels_train` (and
    optionally `labels_valid`); link prediction trains on the graph's own
    triples and optionally validates on `valid` (an id-triple array),
    filtering the training and validation triples from its ranking.
    Every `eval_interval` iterations and at the last one, the run reports
    `progress(iteration, loss, metric)`, where `metric` is the validation
    metric, or None without a validation split. Without a `progress` the
    run validates nothing. `task` and `seed` must be the config's own
    (ValueError otherwise).
    """
    if (task, seed) != (config.task, config.seed):
        raise ValueError(f"train(task={task!r}, seed={seed!r}) disagrees "
                         f"with its config (task={config.task!r}, "
                         f"seed={config.seed!r})")
    rng = np.random.default_rng(seed)
    labels = splits["labels_train"] if task == "classify" else None
    params = init_params(
        graph.num_entities, graph.num_relations, config, task, rng,
        num_classes=None if labels is None else labels.num_classes,
        decoder=config.decoder, init=config.init)

    valid_fn = None
    if task == "classify":
        def step():
            return _classify_step(graph, params, config, labels.entities,
                                  labels.classes, rng)

        valid_labels = splits.get("labels_valid")
        if valid_labels is not None and len(valid_labels.entities):
            def valid_fn():
                return evaluate_classification(graph, params, config,
                                               valid_labels)
    else:
        triples = graph.triple_array()
        dims = graph.num_entities, graph.num_relations
        known = (evaluation.FilterIndex(triples, *dims).contains
                 if config.filtered_negatives else None)
        buffers = decoders.ScoreBuffers()

        def step():
            return _linkpred_step(graph, params, config, triples, known,
                                  rng, buffers)

        valid_triples = splits.get("valid")
        if valid_triples is not None and len(valid_triples):
            filter_index = evaluation.FilterIndex(
                np.concatenate([triples, valid_triples]), *dims)

            def valid_fn():
                results = evaluate_links(graph, params, config,
                                         valid_triples, filter_index)
                return evaluation.mrr(results, "filtered")

    penalized = [p for p in params.all_params() if p.regularized]
    adam_state = T.AdamState()
    for iteration in range(1, config.iterations + 1):
        # a failure in the step, the update or the validation names the
        # iteration
        try:
            with Tape() as tape:
                loss, rows = step()
                if config.l2:
                    loss = T.add(loss, T.l2_penalty(penalized + rows,
                                                    config.l2))
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise NumericFailure("non-finite loss")
            tape.backward(loss)
            if config.optimizer == "adam":
                T.adam_step(params.all_params(), adam_state,
                            config.learning_rate)
            else:
                T.sgd_step(params.all_params(), config.learning_rate)
            report = progress is not None and (
                iteration % config.eval_interval == 0
                or iteration == config.iterations)
            metric = valid_fn() if report and valid_fn is not None else None
        except NumericFailure as exc:
            raise NumericFailure(f"iteration {iteration}: {exc}") from exc
        if report:
            progress(iteration, loss_value, metric)
    return TrainResult(params=params)


# ---------------------------------------------------------------------------
# evaluation entry points (dropout off)


def evaluate_classification(graph, params, config, labels):
    """Test accuracy of the classification head over a LabelSet."""
    feats = encode(graph, params, config)
    logits = decoders.classify_forward(feats, params.head, labels.entities)
    return evaluation.classification_accuracy(logits.values, labels.classes)


def evaluate_links(graph, params, config, test_triples, known):
    """(raw, filtered) rank arrays of both sides of the test triples,
    scored with the decoder whose relation embeddings `params` holds."""
    feats = encode(graph, params, config)
    scorer = decoders.query_scorer(feats.values, params)
    return evaluation.evaluate_ranking(test_triples, scorer, known)
