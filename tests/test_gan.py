from collections import Counter

import numpy as np
import pytest

from hashattack import gan
from hashattack import tensor as T
from hashattack.config import ExperimentConfig
from hashattack.data import unique_labels
from hashattack.errors import (
    DimensionError,
    InputError,
    TargetUnsatisfiableError,
    TrainingDivergedError,
)
from hashattack.gan import (
    AttackStack,
    Discriminator,
    Generator,
    _BatchLosses,
    _pick_targets,
    loss_adversarial,
    loss_discriminator,
    loss_hamming,
    loss_reconstruction,
    targeted_examples,
    train_attack_gan,
)
from hashattack.hashing import HashModel, encode_database
from hashattack.layers import MLP, DenseLayer, watch_parameters
from hashattack.prototype import PrototypeNet

from conftest import assert_grad_close, finite_difference


def test_loss_hamming_frozen_values():
    target = np.array([1.0, -1.0])
    assert float(loss_hamming(target, T.Tensor([0.5, 0.5])).values) == pytest.approx(1.0, abs=1e-12)
    assert float(loss_hamming(target, T.Tensor(target.copy())).values) == pytest.approx(0.0, abs=1e-12)
    assert float(loss_hamming(target, T.Tensor(-target)).values) == pytest.approx(2.0, abs=1e-12)
    pair_sum = loss_hamming(np.tile(target, (2, 1)), T.Tensor([[0.5, 0.5], [0.5, 0.5]]))
    assert float(pair_sum.values) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(DimensionError):
        loss_hamming(np.ones(3), T.Tensor([0.5, 0.5]))


def test_loss_hamming_range(rng):
    from hashattack.hashing import binarize
    for _ in range(1000):
        k = int(rng.integers(2, 17))
        target = binarize(rng.normal(size=k))
        u = rng.uniform(-1.0, 1.0, size=k)
        value = float(loss_hamming(target, T.Tensor(u)).values)
        assert 0.0 <= value <= 2.0


def test_loss_reconstruction_frozen_values():
    x = T.Tensor([0.0, 0.0])
    x_adv = T.Tensor([0.1, 0.1])
    assert float(loss_reconstruction(x, x_adv).values) == pytest.approx(0.02, abs=1e-12)
    assert float(loss_reconstruction(x_adv, x).values) == pytest.approx(0.02, abs=1e-12)
    assert float(loss_reconstruction(x, T.Tensor([0.0, 0.0])).values) == 0.0
    with pytest.raises(DimensionError):
        loss_reconstruction(T.Tensor([0.0]), T.Tensor([0.0, 0.0]))


def test_loss_adversarial_frozen_values():
    scores = T.Tensor([0.5, 0.5])
    assert float(loss_adversarial(scores, [1.0]).values) == pytest.approx(0.5, abs=1e-12)
    exact = T.Tensor([1.0, 0.0])
    assert float(loss_adversarial(exact, [1.0]).values) == 0.0
    with pytest.raises(DimensionError):
        loss_adversarial(T.Tensor([0.5, 0.5, 0.5]), [1.0, 0.0, 0.0])


def test_loss_adversarial_mask_keeps_realness_node_only():
    scores = T.Tensor([0.9, 0.4])
    mask = np.array([0.0, 1.0])
    masked = loss_adversarial(scores, [1.0], class_mask=mask)
    assert float(masked.values) == pytest.approx(0.4 ** 2, abs=1e-12)


def test_loss_discriminator_frozen_values():
    real = T.Tensor([0.5, 0.5])
    fake = T.Tensor([0.5, 0.5])
    value = float(loss_discriminator(real, [1.0], fake, [1.0]).values)
    assert value == pytest.approx(0.5, abs=1e-12)
    perfect_real = T.Tensor([1.0, 0.0])
    perfect_fake = T.Tensor([1.0, 1.0])
    assert float(loss_discriminator(perfect_real, [1.0], perfect_fake, [1.0]).values) == 0.0
    with pytest.raises(DimensionError):
        loss_discriminator(T.Tensor([0.5]), [1.0], fake, [1.0])
    with pytest.raises(DimensionError):
        loss_discriminator(real, [1.0], T.Tensor([0.5, 0.5, 0.5]), [1.0])


def test_generator_loss_composition_arithmetic():
    # two identical pairs with per-pair components 1, 0.02, 0.5 and
    # weights 50 / 1 give 2*(1 + 50*0.02 + 0.5) = 5
    targets = np.array([[1.0, -1.0], [1.0, -1.0]])
    u = T.Tensor([[0.5, 0.5], [0.5, 0.5]])
    x = T.Tensor([[0.0, 0.0], [0.0, 0.0]])
    x_adv = T.Tensor([[0.1, 0.1], [0.1, 0.1]])
    scores = T.Tensor([[0.5, 0.5], [0.5, 0.5]])
    total = T.add(loss_hamming(targets, u),
                  T.add(T.scale(loss_reconstruction(x, x_adv), 50.0),
                        T.scale(loss_adversarial(scores, [[1.0], [1.0]]), 1.0)))
    assert float(total.values) == pytest.approx(5.0, abs=1e-12)


def _zero_generator(pixels=3, rep=2):
    decoder = MLP([DenseLayer(np.zeros((rep, 4)), np.zeros(4), "relu"),
                   DenseLayer(np.zeros((4, pixels)), np.zeros(pixels), "sigmoid")])
    core = MLP([DenseLayer(np.zeros((2 * pixels, 4)), np.zeros(4), "relu"),
                DenseLayer(np.zeros((4, pixels)), np.zeros(pixels), "relu")])
    head = DenseLayer(np.zeros((2 * pixels, pixels)), np.zeros(pixels), "sigmoid")
    return Generator(decoder, core, head)


def test_zero_generator_emits_midrange_pixels(rng):
    gen = _zero_generator()
    x = rng.random((2, 3))
    rep = rng.random((2, 2))
    out = gen.forward(x, rep).values
    assert np.array_equal(out, np.full((2, 3), 0.5))


def test_generator_forward_deterministic_and_bounded(rng):
    gen = Generator.create(rng, 3, 5, decoder_hidden=4, bottleneck=4)
    x = rng.random((4, 5))
    rep = rng.normal(size=(4, 3))
    a = gen.forward(x, rep).values
    b = gen.forward(x, rep).values
    assert np.array_equal(a, b)
    assert a.min() > 0.0 and a.max() < 1.0
    tape = T.Tape()
    watch_parameters(tape, gen)
    traced = gen.forward(T.Tensor(x), T.Tensor(rep))
    assert traced.tape is tape
    assert np.array_equal(traced.values, a)


def test_generator_guards(rng):
    gen = Generator.create(rng, 3, 5, decoder_hidden=128, bottleneck=128)
    with pytest.raises(DimensionError):
        gen.forward(np.zeros((2, 5)), np.zeros((3, 3)))
    with pytest.raises(DimensionError):
        Generator(MLP.create(rng, [3, 4, 5], ["relu", "sigmoid"]),
                  MLP.create(rng, [8, 4, 5], ["relu", "relu"]),
                  DenseLayer.create(rng, 10, 5, "sigmoid"))
    with pytest.raises(InputError):
        Generator(MLP.create(rng, [3, 4, 5], ["relu", "sigmoid"]),
                  MLP.create(rng, [10, 4, 5], ["relu", "relu"]),
                  DenseLayer.create(rng, 10, 5, "tanh"))


def test_discriminator_shape_and_range(rng):
    disc = Discriminator.create(rng, 6, 3, hidden=(5,))
    scores = disc.forward(rng.random((4, 6))).values
    assert scores.shape == (4, 4)
    assert scores.min() > 0.0 and scores.max() < 1.0
    with pytest.raises(DimensionError):
        Discriminator(MLP.create(rng, [6, 5, 3], ["relu", "sigmoid"]), 3)
    with pytest.raises(InputError):
        Discriminator(MLP.create(rng, [6, 5, 4], ["relu", "tanh"]), 3)


def _mini_setup(seed=0, **overrides):
    rng = np.random.default_rng(seed)
    pixels, classes, code_length = 2, 2, 2
    config_args = dict(attack_epochs=1, attack_batch_size=3, attack_learning_rate=1e-3,
                       prototype_hidden_widths=(4,), representation_width=3,
                       decoder_hidden=4, generator_bottleneck=4,
                       discriminator_hidden_widths=(4,))
    config_args.update(overrides)
    config = ExperimentConfig(**config_args)
    hash_model = HashModel.create(rng, pixels, code_length, hidden_widths=(4,))
    images = rng.random((6, pixels))
    labels = np.zeros((6, classes))
    labels[np.arange(6), rng.integers(0, classes, 6)] = 1.0
    labels[0, :] = 1.0
    label_set = unique_labels(labels)
    code_matrix = encode_database(hash_model, images)
    return config, hash_model, images, labels, label_set, code_matrix


def _build_mini_stack(seed, config, hash_model, pixels, classes):
    rng = np.random.default_rng(seed)
    return AttackStack(
        prototype=PrototypeNet.create(rng, classes, hash_model.code_length,
                                      hidden_widths=config.prototype_hidden_widths,
                                      representation_width=config.representation_width),
        generator=Generator.create(rng, config.representation_width, pixels,
                                   decoder_hidden=config.decoder_hidden,
                                   bottleneck=config.generator_bottleneck),
        discriminator=Discriminator.create(rng, pixels, classes,
                                           hidden=config.discriminator_hidden_widths),
    )


def test_minimax_objective_gradients_match_finite_differences():
    config, hash_model, images, labels, label_set, code_matrix = _mini_setup(seed=4)
    stack = _build_mini_stack(1, config, hash_model, 2, 2)
    batch = images[:3]
    batch_labels = labels[:3]
    targets = label_set[np.array([0, 1, 0])]

    # the sign targets inside the losses are piecewise constant; make
    # sure the base point is far from every flip so differences are clean
    h_cont = stack.prototype.forward(targets).continuous_code.values
    assert np.min(np.abs(h_cont)) > 1e-3

    params = (stack.prototype.parameters() + stack.generator.parameters()
              + stack.discriminator.parameters())
    base = [p.values.copy() for p in params]

    def objective_value(*arrays):
        for p, a in zip(params, arrays):
            p.values = np.array(a, copy=True)
        losses = _BatchLosses(stack, hash_model, code_matrix, batch, batch_labels,
                              targets, labels, config, stack.prototype)
        pair, gen, dis = losses.values()
        for p, a in zip(params, base):
            p.values = a.copy()
        return (pair + gen - dis) / 3.0

    tape = T.Tape()
    for p in params:
        tape.watch(p)
    losses = _BatchLosses(stack, hash_model, code_matrix, batch, batch_labels,
                          targets, labels, config, stack.prototype)
    objective = T.scale(losses.minimax(), 1.0 / 3.0)
    grads = T.backward(tape, objective)
    analytic = [grads.wrt(p) for p in params]
    for p in params:
        T.detach(p)
    numeric = finite_difference(objective_value, base)
    for got, want in zip(analytic, numeric):
        assert_grad_close(got, want)


def test_watching_only_the_stepped_network_keeps_its_gradient_exact():
    config, hash_model, images, labels, label_set, code_matrix = _mini_setup(seed=4)
    stack = _build_mini_stack(1, config, hash_model, 2, 2)
    targets = label_set[np.array([0, 1, 0])]
    nets = (stack.prototype, stack.generator, stack.discriminator)

    def gradients(watched, stepped, flip):
        stack.detach()
        tape = T.Tape()
        watch_parameters(tape, *watched)
        losses = _BatchLosses(stack, hash_model, code_matrix, images[:3], labels[:3],
                              targets, labels, config, stack.prototype)
        minimax = losses.minimax()
        if flip:
            minimax = T.scale(minimax, -1.0)
        grads = T.backward(tape, T.scale(minimax, 1.0 / 3.0))
        return [grads.wrt(p) for p in stepped.parameters()]

    for net, flip in zip(nets, (False, False, True)):
        alone = gradients((net,), net, flip)
        joint = gradients(nets, net, flip)
        assert any(np.any(g != 0.0) for g in alone)
        for a, b in zip(alone, joint):
            assert np.array_equal(a, b)
    stack.detach()


@pytest.mark.parametrize("disable_hamming_loss", [False, True])
@pytest.mark.parametrize("disable_discriminator_classes", [False, True])
def test_pruned_steps_keep_the_stepped_gradient_exact(monkeypatch, disable_hamming_loss,
                                                      disable_discriminator_classes):
    config, hash_model, images, labels, label_set, code_matrix = _mini_setup(
        seed=4, disable_hamming_loss=disable_hamming_loss,
        disable_discriminator_classes=disable_discriminator_classes)
    stack = _build_mini_stack(1, config, hash_model, 2, 2)
    targets = label_set[np.array([0, 1, 0])]
    calls = Counter()

    def count(owner, name, term):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[term] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(stack.discriminator, "forward", "discriminator")
    count(hash_model, "forward", "hash")
    count(gan, "loss_prototype", "pair")
    count(gan, "loss_reconstruction", "reconstruction")

    def step(net, stepped, flip):
        stack.detach()
        calls.clear()
        tape = T.Tape()
        watch_parameters(tape, net)
        losses = _BatchLosses(stack, hash_model, code_matrix, images[:3], labels[:3],
                              targets, labels, config, stepped=stepped)
        minimax = losses.minimax()
        if flip:
            minimax = T.scale(minimax, -1.0)
        grads = T.backward(tape, T.scale(minimax, 1.0 / 3.0))
        return [grads.wrt(p) for p in net.parameters()], len(tape.nodes), Counter(calls)

    hash_forwards = 0 if disable_hamming_loss else 1
    expected = (  # terms each step still builds
        (stack.prototype, False, dict(discriminator=2, hash=hash_forwards, pair=1,
                                      reconstruction=1)),
        (stack.generator, False, dict(discriminator=1, hash=hash_forwards, pair=0,
                                      reconstruction=1)),
        (stack.discriminator, True, dict(discriminator=2, hash=0, pair=0, reconstruction=0)),
    )
    for net, flip, built in expected:
        full, full_nodes, _ = step(net, stack.prototype, flip)
        pruned, pruned_nodes, pruned_built = step(net, net, flip)
        assert pruned_built == Counter(built)
        assert any(np.any(g != 0.0) for g in full)
        for a, b in zip(pruned, full):
            assert np.array_equal(a, b)
        # the prototype reaches every term; the other two must prune
        if net is stack.prototype:
            assert pruned_nodes == full_nodes
        else:
            assert pruned_nodes < full_nodes
    stack.detach()


def _pick_targets_per_row(rng, labels, label_set):
    """The row-by-row draw the vectorized one must reproduce bit for bit."""
    choices = []
    for own in labels:
        candidates = [j for j, cand in enumerate(label_set) if not np.array_equal(cand, own)]
        if not candidates:
            raise TargetUnsatisfiableError("no candidate")
        choices.append(candidates[int(rng.integers(0, len(candidates)))])
    return label_set[np.asarray(choices, dtype=np.intp)]


def test_pick_targets_matches_the_per_row_draw():
    source = np.random.default_rng(17)
    for trial in range(60):
        classes = int(source.integers(1, 5))
        label_set = np.unique((source.random((int(source.integers(2, 7)), classes)) < 0.5)
                              .astype(float), axis=0)
        if label_set.shape[0] < 2:
            continue
        # rows drawn from the set plus rows whose own label is not in it
        rows = label_set[source.integers(0, label_set.shape[0], 25)]
        outside = (source.random((5, classes)) < 0.5).astype(float) + 2.0
        labels = source.permutation(np.concatenate([rows, outside]))
        fast, slow = np.random.default_rng(trial), np.random.default_rng(trial)
        assert np.array_equal(_pick_targets(fast, labels, label_set),
                              _pick_targets_per_row(slow, labels, label_set))
        assert fast.random() == slow.random()


def test_pick_targets_excludes_own_label():
    rng = np.random.default_rng(0)
    label_set = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    labels = np.tile([1.0, 0.0], (200, 1))
    targets = _pick_targets(rng, labels, label_set)
    for t in targets:
        assert not np.array_equal(t, [1.0, 0.0])


def test_pick_targets_uniform_over_candidates():
    rng = np.random.default_rng(1)
    label_set = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    labels = np.tile([1.0, 0.0, 0.0], (10000, 1))
    targets = _pick_targets(rng, labels, label_set)
    counts = np.all(targets[:, None, :] == label_set[None, 1:, :], axis=2).sum(axis=0)
    assert counts.sum() == 10000
    # three candidates: expected 10000/3 each, sigma = sqrt(n p (1-p))
    expected = 10000 / 3.0
    sigma = np.sqrt(10000 * (1 / 3) * (2 / 3))
    assert np.all(np.abs(counts - expected) <= 3.0 * sigma)


def test_pick_targets_unsatisfiable():
    rng = np.random.default_rng(0)
    label_set = np.array([[1.0, 0.0]])
    with pytest.raises(TargetUnsatisfiableError):
        _pick_targets(rng, np.array([[1.0, 0.0]]), label_set)
    # only a later row lacks a candidate
    labels = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    assert _pick_targets(rng, labels[:2], label_set).shape == (2, 2)
    with pytest.raises(TargetUnsatisfiableError):
        _pick_targets(rng, labels, label_set)


def test_training_updates_all_three_networks_and_freezes_hash_model():
    config, hash_model, images, labels, label_set, code_matrix = _mini_setup()
    frozen = [p.values.copy() for p in hash_model.net.parameters()]
    stack, history = train_attack_gan(images, labels, hash_model, config, 5)
    # identical seed replays the trainer's initialization order, so any
    # difference from it is an applied update
    fresh = _build_mini_stack(5, config, hash_model, 2, 2)
    for trained, initial in (
        (stack.prototype.parameters(), fresh.prototype.parameters()),
        (stack.generator.parameters(), fresh.generator.parameters()),
        (stack.discriminator.parameters(), fresh.discriminator.parameters()),
    ):
        assert any(not np.array_equal(a.values, b.values)
                   for a, b in zip(trained, initial))
    for p, before in zip(hash_model.net.parameters(), frozen):
        assert np.array_equal(p.values, before)
    assert len(history) == config.attack_epochs
    assert len(history[0]) == 4
    assert all(np.isfinite(row[1:]).all() for row in np.asarray(history))


def test_training_is_bit_reproducible():
    config, hash_model, images, labels, label_set, code_matrix = _mini_setup(
        seed=2, attack_epochs=2)
    run = lambda: train_attack_gan(images, labels, hash_model, config, 11)
    stack_a, history_a = run()
    stack_b, history_b = run()
    assert history_a == history_b
    for nets in (("prototype",), ("generator",), ("discriminator",)):
        net = nets[0]
        for pa, pb in zip(getattr(stack_a, net).parameters(),
                          getattr(stack_b, net).parameters()):
            assert np.array_equal(pa.values, pb.values)


def test_training_input_guards():
    config, hash_model, images, labels, label_set, code_matrix = _mini_setup()
    with pytest.raises(InputError):
        train_attack_gan(np.zeros((0, 2)), np.zeros((0, 2)), hash_model, config, 0)
    with pytest.raises(DimensionError):
        train_attack_gan(images, labels[:-1], hash_model, config, 0)


def test_training_refuses_non_finite_weights_left_by_the_last_batch(monkeypatch):
    # one epoch, one batch: a NaN the prototype step writes into
    # label_head is read only by the pair loss, which the generator and
    # discriminator steps skip, so no later objective turns non-finite
    config, hash_model, images, labels, label_set, code_matrix = _mini_setup(
        attack_batch_size=6)
    prototypes = []
    create = gan.PrototypeNet.create
    monkeypatch.setattr(gan.PrototypeNet, "create",
                        lambda *args, **kw: prototypes.append(create(*args, **kw))
                        or prototypes[-1])

    class PoisonedAdam(gan.Adam):
        def step(self, grads):
            super().step(grads)
            head = prototypes[0].label_head.weight
            if any(p is head for p in self.params):
                head.values[0, 0] = np.nan

    monkeypatch.setattr(gan, "Adam", PoisonedAdam)
    with pytest.raises(TrainingDivergedError) as caught:
        train_attack_gan(images, labels, hash_model, config, 5)
    assert caught.value.epoch == 0

def test_targeted_examples_shapes_and_bounds():
    config, hash_model, images, labels, label_set, code_matrix = _mini_setup()
    stack, _ = train_attack_gan(images, labels, hash_model, config, 3)
    targets = label_set[np.zeros(4, dtype=int)]
    perturbed = targeted_examples(stack, images[:4], targets)
    assert perturbed.shape == images[:4].shape
    assert perturbed.min() >= 0.0 and perturbed.max() <= 1.0
    again = targeted_examples(stack, images[:4], targets)
    assert np.array_equal(perturbed, again)
    with pytest.raises(DimensionError):
        targeted_examples(stack, images[:3], targets)
