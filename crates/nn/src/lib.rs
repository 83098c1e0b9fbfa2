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
//! use sqvae_nn::{loss, Activation, ActivationKind, Adam, Linear, Matrix, Module, Optimizer};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), sqvae_nn::NnError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut hidden = Linear::new(2, 8, &mut rng);
//! let mut relu = Activation::new(ActivationKind::Relu);
//! let mut out = Linear::new(8, 1, &mut rng);
//!
//! let x = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]])?;
//! let target = Matrix::from_rows(&[&[1.0], &[0.0]])?;
//!
//! // Forward through each layer, then backward in reverse order.
//! let h = relu.forward(&hidden.forward(&x)?)?;
//! let pred = out.forward(&h)?;
//! let (_, grad) = loss::mse(&pred, &target)?;
//! hidden.backward(&relu.backward(&out.backward(&grad)?)?)?;
//!
//! let mut opt = Adam::new(0.01);
//! let mut params = hidden.parameters();
//! params.extend(out.parameters());
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
