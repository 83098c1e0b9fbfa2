//! # sqvae-nn
//!
//! A minimal, dependency-free neural-network substrate for the DATE 2022
//! SQ-VAE reproduction: the classical halves of the paper's hybrid
//! quantum-classical autoencoders (PyTorch's role in the original stack).
//!
//! Layers follow an explicit forward/backward [`Module`] contract, with a
//! keep-nothing `infer` for evaluation, so that quantum layers
//! (adjoint-differentiated circuits living in `sqvae-core`) compose with
//! classical ones in a single backpropagation chain.
//!
//! ## Example: one training step of a tiny regressor
//!
//! ```
//! use sqvae_nn::{loss, Activation, ActivationKind, Adam, Linear, Matrix, Module,
//!                Optimizer, Sequential};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), sqvae_nn::NnError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut model = Sequential::new();
//! model.push(Linear::new(2, 8, &mut rng));
//! model.push(Activation::new(ActivationKind::Relu));
//! model.push(Linear::new(8, 1, &mut rng));
//!
//! let x = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]])?;
//! let target = Matrix::from_rows(&[&[1.0], &[0.0]])?;
//!
//! let mut opt = Adam::new(0.01);
//! model.zero_grad();
//! let pred = model.forward(&x)?;
//! let (_, grad) = loss::mse(&pred, &target)?;
//! model.backward(&grad)?;
//! let mut params = model.parameters();
//! opt.step(&mut params)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod activation;
mod error;
mod linear;
mod matrix;
mod module;
mod optim;
mod sequential;

pub mod backend;
pub mod exec;
pub mod init;
pub mod loss;
pub mod parallel;
pub mod serialize;

pub use activation::{Activation, ActivationKind};
pub use backend::BackendKind;
pub use error::{NnError, Result};
pub use exec::ExecPolicy;
pub use linear::Linear;
pub use matrix::Matrix;
pub use module::{Module, ParamTensor};
pub use optim::{Adam, Optimizer, Sgd};
pub use parallel::Threads;
pub use sequential::Sequential;
