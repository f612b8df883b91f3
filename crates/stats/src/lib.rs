#![warn(missing_docs)]
//! Statistics and plain-text reporting utilities for SATIN experiments.
//!
//! The SATIN paper reports its measurements as average/max/min triples
//! (Tables I and II), boxplots (Figure 4), and normalized bar charts
//! (Figure 7). This crate provides the corresponding machinery:
//!
//! - [`Summary`] / [`OnlineStats`] — streaming mean/min/max/stddev;
//! - [`FiveNumber`] — boxplot five-number summaries with Tukey whiskers and
//!   outlier extraction (Figure 4);
//! - [`hist::render_count_rows`] — ASCII histogram rows for labelled counts;
//! - [`table::Table`] — aligned plain-text tables matching the paper's rows;
//! - [`chart`] — ASCII bar charts and boxplot strips for terminal reports;
//! - [`fmt_sci`] — the paper's `x.xx e-y s` scientific time formatting.

pub(crate) mod boxplot;
pub mod chart;
pub mod hist;
pub mod summary;
pub mod table;

pub use boxplot::FiveNumber;
pub use summary::{OnlineStats, Summary};

/// Formats a number in the paper's scientific notation, e.g. `2.61e-4`.
///
/// # Example
///
/// ```
/// assert_eq!(satin_stats::fmt_sci(2.61e-4, 2), "2.61e-4");
/// assert_eq!(satin_stats::fmt_sci(0.0, 2), "0.00e0");
/// assert_eq!(satin_stats::fmt_sci(-6.67e-9, 2), "-6.67e-9");
/// ```
pub fn fmt_sci(value: f64, decimals: usize) -> String {
    if value == 0.0 {
        return format!("{:.*}e0", decimals, 0.0);
    }
    let sign = if value < 0.0 { "-" } else { "" };
    let v = value.abs();
    let mut exp = v.log10().floor() as i32;
    let mut mantissa = v / 10f64.powi(exp);
    // Guard against rounding like 9.9995 -> "10.00e-5".
    if format!("{mantissa:.*}", decimals)
        .parse::<f64>()
        .unwrap_or(mantissa)
        >= 10.0
    {
        mantissa /= 10.0;
        exp += 1;
    }
    format!("{sign}{mantissa:.*}e{exp}", decimals)
}

/// Formats a fraction as a percentage with the given precision, e.g. `0.711%`.
///
/// # Example
///
/// ```
/// assert_eq!(satin_stats::fmt_percent(0.00711, 3), "0.711%");
/// ```
pub fn fmt_percent(fraction: f64, decimals: usize) -> String {
    format!("{:.*}%", decimals, fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_matches_paper_style() {
        assert_eq!(fmt_sci(6.71e-9, 2), "6.71e-9");
        assert_eq!(fmt_sci(1.8e-3, 2), "1.80e-3");
        assert_eq!(fmt_sci(8.04e-2, 2), "8.04e-2");
        assert_eq!(fmt_sci(1.07e-4, 2), "1.07e-4");
        assert_eq!(fmt_sci(152.0, 1), "1.5e2");
    }

    #[test]
    fn sci_rounding_carry() {
        // 9.999e-4 at 2 decimals must carry to 1.00e-3, not 10.00e-4.
        assert_eq!(fmt_sci(9.999e-4, 2), "1.00e-3");
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(fmt_percent(0.03556, 3), "3.556%");
        assert_eq!(fmt_percent(0.0, 1), "0.0%");
        assert_eq!(fmt_percent(1.0, 0), "100%");
    }
}
