"""Attack estimator tests against ground-truth permutations."""

import numpy as np
import pytest

from permofdm import (
    AmbiguousMatchWarning,
    BruteForceCostError,
    Permutation,
    SecretKey,
    ShapeError,
    averaging_attack,
    brute_force_attack,
    derive_permutation,
    encrypt_block,
    match_noiseless,
    recovery_rate,
)

KEY = SecretKey(bytes(range(32)))


def _probe(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


class TestMatchNoiseless:
    def test_identity(self):
        x = np.arange(1, 9, dtype=complex)
        p = match_noiseless(x, x)
        assert np.array_equal(p.map, np.arange(8))

    def test_exact_recovery(self):
        rng = np.random.default_rng(50)
        for size in (4, 16, 256):
            x = _probe(rng, size)
            true = derive_permutation(KEY, size, size)
            y = encrypt_block(x, true)
            got = match_noiseless(x, y)
            assert np.array_equal(got.map, true.map)

    def test_duplicates_warn_but_return_valid_permutation(self):
        x = np.array([1.0, 1.0, 2.0, 3.0], dtype=complex)
        y = x[[2, 0, 1, 3]]
        with pytest.warns(AmbiguousMatchWarning):
            p = match_noiseless(x, y)
        assert np.array_equal(np.sort(p.map), np.arange(4))
        # the unambiguous positions are still right
        assert p.map[0] == 2 and p.map[3] == 3

    def test_mild_noise_tolerated(self):
        rng = np.random.default_rng(51)
        x = _probe(rng, 64)
        true = derive_permutation(KEY, 1, 64)
        y = encrypt_block(x, true) + 1e-6 * _probe(rng, 64)
        got = match_noiseless(x, y)
        assert np.array_equal(got.map, true.map)

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            match_noiseless(np.ones(3, dtype=complex), np.ones(4, dtype=complex))


class TestAveragingAttack:
    def _observations(self, rng, x, perm, k, sigma2):
        y = encrypt_block(x, perm)
        obs = np.broadcast_to(y, (k, x.size)).copy()
        noise = np.sqrt(sigma2 / 2) * (
            rng.standard_normal(obs.shape) + 1j * rng.standard_normal(obs.shape))
        return obs + noise

    def test_recovery_improves_with_repeats(self):
        rng = np.random.default_rng(52)
        size = 32
        x = _probe(rng, size)
        true = derive_permutation(KEY, 2, size)
        rates = []
        for k in (1, 16, 512):
            obs = self._observations(rng, x, true, k, sigma2=1.0)
            est = averaging_attack(x, obs)
            rates.append(recovery_rate(est, true))
        assert rates[-1] >= rates[0]
        assert rates[-1] >= 0.99

    def test_single_observation_equals_direct_match(self):
        rng = np.random.default_rng(53)
        x = _probe(rng, 16)
        true = derive_permutation(KEY, 3, 16)
        y = encrypt_block(x, true) + 0.3 * _probe(rng, 16)
        a = averaging_attack(x, y[None, :])
        b = match_noiseless(x, y)
        assert np.array_equal(a.map, b.map)

    def test_fresh_permutations_defeat_averaging(self):
        rng = np.random.default_rng(54)
        size = 32
        x = _probe(rng, size)
        obs = np.empty((1000, size), dtype=complex)
        for t in range(1000):
            obs[t] = encrypt_block(x, derive_permutation(KEY, 100 + t, size))
        obs += np.sqrt(0.5) * (rng.standard_normal(obs.shape)
                               + 1j * rng.standard_normal(obs.shape))
        est = averaging_attack(x, obs)
        rate = recovery_rate(est, derive_permutation(KEY, 100, size))
        assert rate < 0.25  # collapses toward 1/size chance

    def test_input_validation(self):
        with pytest.raises(ShapeError):
            averaging_attack(np.ones(4, dtype=complex),
                             np.ones((0, 4), dtype=complex))
        # one observation may come as a 1-D block
        x = _probe(np.random.default_rng(58), 8)
        true = derive_permutation(KEY, 3, 8)
        assert np.array_equal(averaging_attack(x, encrypt_block(x, true)).map, true.map)


class TestBruteForce:
    def test_trivial_size_one(self):
        p = brute_force_attack(np.array([1.0 + 0j]), np.array([1.0 + 0j]))
        assert p.map.tolist() == [0]

    def test_exact_at_size_four_all_permutations(self):
        import itertools
        x = np.array([1.0, 2.0, 3.5, -1.0], dtype=complex)
        for true in itertools.permutations(range(4)):
            y = x[list(true)]
            got = brute_force_attack(x, y)
            assert got.map.tolist() == list(true)

    def test_noisy_size_six(self):
        rng = np.random.default_rng(55)
        sigma2 = 10 ** (-20 / 10)
        hits = 0
        trials = 200
        for t in range(trials):
            x = _probe(rng, 6)
            true = derive_permutation(KEY, 1000 + t, 6)
            y = encrypt_block(x, true)
            y = y + np.sqrt(sigma2 / 2) * _probe(rng, 6)
            got = brute_force_attack(x, y)
            hits += int(np.array_equal(got.map, true.map))
        assert hits / trials >= 0.95

    def test_tie_resolves_to_lexicographically_smallest(self):
        x = np.array([1.0, 1.0, 2.0], dtype=complex)
        got = brute_force_attack(x, x)
        assert got.map.tolist() == [0, 1, 2]

    def test_agrees_with_greedy_on_noiseless(self):
        rng = np.random.default_rng(56)
        x = _probe(rng, 6)
        true = derive_permutation(KEY, 4, 6)
        y = encrypt_block(x, true)
        assert np.array_equal(brute_force_attack(x, y).map,
                              match_noiseless(x, y).map)

    def test_size_mismatch(self):
        for x, y in ((np.ones(3), np.ones(4)), (np.ones(0), np.ones(0))):
            with pytest.raises(ShapeError, match="equal nonzero size"):
                brute_force_attack(x, y)

    def test_refusal_above_size_eight(self):
        x = np.zeros(9, dtype=complex)
        with pytest.raises(BruteForceCostError):
            brute_force_attack(x, x)

    def test_cost_wall_at_size_256(self):
        x = np.zeros(256, dtype=complex)
        with pytest.raises(BruteForceCostError) as exc:
            brute_force_attack(x, x)
        assert exc.value.bits > 1683.0
        assert "1684.0 bits" in str(exc.value)


class TestRecoveryRate:
    def test_values(self):
        a = Permutation(map=np.array([0, 1, 2, 3]))
        b = Permutation(map=np.array([0, 1, 3, 2]))
        assert recovery_rate(a, a) == 1.0
        assert recovery_rate(a, b) == 0.5
        with pytest.raises(ShapeError):
            recovery_rate(a, Permutation.identity(3))
