//! Seeded inputs, and the soundness check every UAP verdict gets.
//!
//! Inputs come from the same generators, with the same generator seeds, as
//! the model zoo's training data (`raven_bench::models`), continued past
//! the examples the zoo trains and tests on. So every point is drawn from
//! the distribution the network learned, never seen in training. Only
//! correctly classified points are kept, and the ledger's `--seed` shuffles
//! them: the same seed gives the same batches, another seed other batches.

use raven::replay_uap_delta;
use raven_nn::data::{synth_digits, synth_rgb, Dataset};
use raven_nn::Network;

/// Examples `raven_bench::models` generates for the digit and RGB sets.
const ZOO_DIGITS: usize = 280;
const ZOO_RGB: usize = 240;

/// Attack steps per batch for the empirical hamming bound.
const ATTACK_STEPS: usize = 10;

/// Labeled points for one network, in seeded order.
pub type Pool = Vec<(Vec<f64>, usize)>;

/// The digit stream of `raven_bench::models::digits_dataset`, extended.
fn digits(n: usize) -> Dataset {
    synth_digits(6, 4, ZOO_DIGITS + n, 0.15, 42)
}

/// The RGB stream of `raven_bench::models::rgb_dataset`, extended.
fn rgb(n: usize) -> Dataset {
    synth_rgb(4, 4, ZOO_RGB + n, 0.07, 43)
}

fn pool(net: &Network, data: Dataset, skip: usize, seed: u64) -> Pool {
    let mut points: Pool = data
        .inputs
        .into_iter()
        .zip(data.labels)
        .skip(skip)
        .filter(|(x, y)| net.classify(x) == *y)
        .collect();
    raven_tensor::Rng::new(seed).shuffle(&mut points);
    points
}

/// `n` fresh 6×6 digit points, correctly classified by `net`, shuffled.
pub fn digit_pool(net: &Network, n: usize, seed: u64) -> Pool {
    pool(net, digits(n), ZOO_DIGITS, seed)
}

/// `n` fresh 3×4×4 RGB points, correctly classified by `net`, shuffled.
pub fn rgb_pool(net: &Network, n: usize, seed: u64) -> Pool {
    pool(net, rgb(n), ZOO_RGB, seed)
}

/// Batch `index` of `k` consecutive pool points (wrapping around the pool).
pub fn batch(pool: &Pool, index: usize, k: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let batches = pool.len() / k;
    assert!(batches > 0, "pool smaller than one batch");
    pool[(index % batches) * k..][..k]
        .iter()
        .map(|(x, y)| (x.clone(), *y))
        .unzip()
}

/// Checks a UAP verdict against attacks: the certified worst-case
/// `hamming` must be at least the number of inputs one shared perturbation
/// really misclassifies, found by `raven_nn::attack::uap` and by replaying
/// the verdict's own `witness` perturbation.
pub fn check_uap_sound(
    net: &Network,
    inputs: &[Vec<f64>],
    labels: &[usize],
    eps: f64,
    hamming: f64,
    witness: Option<&[f64]>,
) -> Result<(), String> {
    let attack = raven_nn::attack::uap(net, inputs, labels, eps, ATTACK_STEPS, eps / 4.0);
    let mut accuracy = replay_uap_delta(net, inputs, labels, &attack.delta);
    if let Some(witness) = witness {
        accuracy = accuracy.min(replay_uap_delta(net, inputs, labels, witness));
    }
    let k = inputs.len() as f64;
    let empirical = (k * (1.0 - accuracy)).round();
    if hamming + 1e-6 < empirical {
        return Err(format!(
            "unsound UAP verdict: certified hamming {hamming} < empirical {empirical} (eps {eps})"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_continue_the_zoo_streams() {
        assert_eq!(
            &digits(0),
            raven_bench::models::digits_dataset(),
            "digit generator drifted from the model zoo"
        );
        assert_eq!(
            &rgb(0),
            raven_bench::models::rgb_dataset(),
            "rgb generator drifted from the model zoo"
        );
    }
}
