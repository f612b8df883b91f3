//! ASCII rendering of labelled counts.

/// Renders labelled counts as an ASCII histogram: one row per label, bars
/// scaled so the largest count spans `width` characters. The renderer
/// behind the telemetry layer's log-bucket duration histograms.
///
/// # Example
///
/// ```
/// let out = satin_stats::hist::render_count_rows(
///     &[("[1us, 2us)".to_string(), 30), ("[2us, 4us)".to_string(), 10)],
///     20,
/// );
/// assert!(out.contains("[1us, 2us)"));
/// assert!(out.lines().count() == 2);
/// ```
pub fn render_count_rows(rows: &[(String, u64)], width: usize) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let max = rows.iter().map(|(_, c)| *c).max().unwrap_or(0);
    let label_w = rows
        .iter()
        .map(|(l, _)| l.chars().count())
        .max()
        .unwrap_or(0);
    let count_w = rows
        .iter()
        .map(|(_, c)| c.to_string().len())
        .max()
        .unwrap_or(1);
    let mut out = String::new();
    for (label, count) in rows {
        let bar_len = if max > 0 {
            ((*count as f64 / max as f64) * width as f64).round() as usize
        } else {
            0
        };
        let pad = label_w - label.chars().count();
        out.push_str(label);
        out.extend(std::iter::repeat(' ').take(pad));
        out.push_str(&format!(" | {count:>count_w$} "));
        out.extend(std::iter::repeat('#').take(bar_len));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_count_rows_scales_bars() {
        let rows = vec![("a".to_string(), 4), ("bb".to_string(), 2)];
        let out = render_count_rows(&rows, 8);
        let lines: Vec<_> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].matches('#').count(), 8);
        assert_eq!(lines[1].matches('#').count(), 4);
        assert!(render_count_rows(&[], 8).is_empty());
    }
}
