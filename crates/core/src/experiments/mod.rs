//! One driver per table and figure of the paper's evaluation.

pub mod cluster_sweep;
pub mod fault_sweep;
pub mod fig1;
pub mod fig2;
pub mod fig5;
pub mod fig6;
mod grid;
pub mod hedge_sweep;
pub mod rack_sweep;
pub mod sweep;
pub mod tables;
pub mod timeline;
