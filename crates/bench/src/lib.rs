//! # sixg-bench — the reproduction harness
//!
//! One binary per paper artefact (`repro_fig1` … `repro_all`) regenerates
//! the corresponding table or figure from the simulator and prints a
//! paper-vs-measured comparison. The crate also holds the `sixg-cli`
//! runner and the `sixg-serve` daemon ([`serve`], [`serve_client`]).
//! Performance is measured by the separate `perfbench/` package.
//!
//! Run every paper check with:
//!
//! ```text
//! cargo run -p sixg-bench --release --bin repro_all
//! ```

use sixg_measure::klagenfurt::KlagenfurtScenario;
use std::sync::OnceLock;

pub mod serve;
pub mod serve_client;

/// The scenario seed used by every reproduction binary (so their outputs
/// agree with each other and with the golden tests).
pub const REPRO_SEED: u64 = 0x6B6C_7531;

/// A lazily built, shared Klagenfurt scenario.
pub fn shared_scenario() -> &'static KlagenfurtScenario {
    static S: OnceLock<KlagenfurtScenario> = OnceLock::new();
    S.get_or_init(|| KlagenfurtScenario::paper(REPRO_SEED))
}

/// Prints a section header in the binaries' common style.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints a `paper vs measured` comparison row.
pub fn compare(label: &str, paper: impl std::fmt::Display, measured: impl std::fmt::Display) {
    println!("{label:<52} paper: {paper:>12}   measured: {measured:>12}");
}

/// Formats milliseconds with one decimal.
pub fn ms(v: f64) -> String {
    format!("{v:.1} ms")
}

/// Formats a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{v:.1} %")
}

/// Formats kilometres with no decimals.
pub fn km(v: f64) -> String {
    format!("{v:.0} km")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_scenario_is_cached() {
        let a = shared_scenario() as *const _;
        let b = shared_scenario() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(61.04), "61.0 ms");
        assert_eq!(pct(270.55), "270.6 %");
        assert_eq!(km(2543.7), "2544 km");
    }
}
