import numpy as np
import pytest

from hashattack import tensor as T
from hashattack.data import unique_labels
from hashattack.errors import (
    DimensionError,
    InputError,
    TargetUnsatisfiableError,
)
from hashattack.gan import (
    AttackStack,
    Discriminator,
    GanConfig,
    Generator,
    _BatchLosses,
    _pick_targets,
    augment_label,
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


def test_augment_label_examples():
    assert np.array_equal(augment_label([1, 0, 0], "real"), [1, 0, 0, 0])
    assert np.array_equal(augment_label([0, 1, 0], "fake"), [0, 1, 0, 1])
    batch = augment_label(np.array([[1, 0], [0, 1]]), "fake")
    assert np.array_equal(batch, [[1, 0, 1], [0, 1, 1]])
    assert augment_label(np.zeros(5), "real").shape == (6,)
    with pytest.raises(InputError):
        augment_label([1, 0], "synthetic")
    with pytest.raises(DimensionError):
        augment_label(np.zeros((2, 2, 2)), "real")


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
    gen = Generator.create(rng, 3, 5)
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
    config_args = dict(epochs=1, batch_size=3, learning_rate=1e-3,
                       prototype_hidden=(4,), representation_width=3,
                       decoder_hidden=4, generator_bottleneck=4,
                       discriminator_hidden=(4,))
    config_args.update(overrides)
    config = GanConfig(**config_args)
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
                                      hidden_widths=config.prototype_hidden,
                                      representation_width=config.representation_width),
        generator=Generator.create(rng, config.representation_width, pixels,
                                   decoder_hidden=config.decoder_hidden,
                                   bottleneck=config.generator_bottleneck),
        discriminator=Discriminator.create(rng, pixels, classes,
                                           hidden=config.discriminator_hidden),
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
                              targets, labels, config)
        pair, gen, dis = losses.values()
        for p, a in zip(params, base):
            p.values = a.copy()
        return (pair + gen - dis) / 3.0

    tape = T.Tape()
    for p in params:
        tape.watch(p)
    losses = _BatchLosses(stack, hash_model, code_matrix, batch, batch_labels,
                          targets, labels, config)
    objective = T.scale(T.sub(T.add(losses.loss_pair, losses.loss_generator),
                              losses.loss_discriminator), 1.0 / 3.0)
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
                              targets, labels, config)
        minimax = T.sub(T.add(losses.loss_pair, losses.loss_generator),
                        losses.loss_discriminator)
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
    counts = np.array([
        sum(np.array_equal(t, cand) for t in targets) for cand in label_set[1:]
    ])
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


def test_training_updates_all_three_networks_and_freezes_hash_model():
    config, hash_model, images, labels, label_set, code_matrix = _mini_setup()
    frozen = [p.values.copy() for p in hash_model.net.parameters()]
    stack, history = train_attack_gan(images, labels, label_set, hash_model,
                                      code_matrix, config, 5)
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
    assert len(history) == config.epochs
    assert len(history[0]) == 4
    assert all(np.isfinite(row[1:]).all() for row in np.asarray(history))


def test_training_is_bit_reproducible():
    config, hash_model, images, labels, label_set, code_matrix = _mini_setup(
        seed=2, epochs=2)
    run = lambda: train_attack_gan(images, labels, label_set, hash_model,
                                   code_matrix, config, 11)
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
        train_attack_gan(np.zeros((0, 2)), np.zeros((0, 2)), label_set,
                         hash_model, code_matrix, config, 0)
    with pytest.raises(InputError):
        train_attack_gan(images, labels, np.zeros((0, 2)), hash_model,
                         code_matrix, config, 0)
    with pytest.raises(DimensionError):
        train_attack_gan(images, labels[:-1], label_set, hash_model,
                         code_matrix, config, 0)
    with pytest.raises(InputError):
        GanConfig(epochs=0).validate()
    with pytest.raises(InputError):
        GanConfig(learning_rate=-1.0).validate()
    with pytest.raises(InputError):
        GanConfig(reconstruction_weight=-0.5).validate()


def test_targeted_examples_shapes_and_bounds():
    config, hash_model, images, labels, label_set, code_matrix = _mini_setup()
    stack, _ = train_attack_gan(images, labels, label_set, hash_model,
                                code_matrix, config, 3)
    targets = label_set[np.zeros(4, dtype=int)]
    perturbed = targeted_examples(stack, images[:4], targets)
    assert perturbed.shape == images[:4].shape
    assert perturbed.min() >= 0.0 and perturbed.max() <= 1.0
    again = targeted_examples(stack, images[:4], targets)
    assert np.array_equal(perturbed, again)
    with pytest.raises(DimensionError):
        targeted_examples(stack, images[:3], targets)
