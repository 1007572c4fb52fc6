//! Shared infrastructure for the figure/table binaries.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation section (see DESIGN.md §4 for the index); this library holds
//! the common pieces: an aligned-column table printer, geometric means,
//! the standard workload sizes, and the paper-reported reference values
//! that EXPERIMENTS.md compares against.

pub mod paper;
pub mod report;
pub mod workloads;

pub use report::{fmt_f, fmt_si, geomean, write_results, Table};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }
}
