//! Seeded inputs. Every workload draws from one fixed synthetic-MNIST
//! pool, so the class prototypes (and with them the task's difficulty)
//! never change; the run seed picks which images train and test, and in
//! what order.

use pipelayer::functional::downsample;
use pipelayer_nn::data::{Dataset, SyntheticMnist};
use pipelayer_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const POOL_SEED: u64 = 0x5eed_da7a;

/// A seeded train/test split of `n_train`/`n_test` images out of a pool
/// twice that size, optionally downsampled by `factor` per side.
pub fn mnist_split(n_train: usize, n_test: usize, seed: u64, factor: usize) -> SyntheticMnist {
    let pool = SyntheticMnist::generate(2 * n_train, 2 * n_test, POOL_SEED);
    let mut rng = StdRng::seed_from_u64(seed);
    SyntheticMnist {
        train: pick(&pool.train, n_train, factor, &mut rng),
        test: pick(&pool.test, n_test, factor, &mut rng),
    }
}

fn pick(pool: &Dataset, n: usize, factor: usize, rng: &mut StdRng) -> Dataset {
    let mut order: Vec<usize> = (0..pool.len()).collect();
    order.shuffle(rng);
    let image = |i: usize| -> Tensor {
        if factor > 1 {
            downsample(&pool.images[i], factor)
        } else {
            pool.images[i].clone()
        }
    };
    Dataset {
        images: order[..n].iter().map(|&i| image(i)).collect(),
        labels: order[..n].iter().map(|&i| pool.labels[i]).collect(),
    }
}
