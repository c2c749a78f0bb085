pub mod krylov;
pub mod vec_ops;
