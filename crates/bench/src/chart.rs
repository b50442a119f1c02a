//! Terminal bar charts for the `figures` binary (`--chart`).
//!
//! The paper's figures are grouped bar charts (Figures 2, 8, 9, 10) and
//! line families (Figures 6, 7). A horizontal-bar rendering keeps both
//! readable in a terminal and in committed text output.

/// Render a grouped bar chart: one block per group, one bar per series.
/// `groups` are `(group_label, values)` with `values.len() == series.len()`.
pub fn grouped_bar_chart(
    title: &str,
    series: &[&str],
    groups: &[(String, Vec<f64>)],
    width: usize,
) -> String {
    let mut out = format!("{title}\n");
    let max = groups
        .iter()
        .flat_map(|(_, vs)| vs.iter().copied())
        .fold(0.0f64, f64::max);
    let label_w = series
        .iter()
        .map(|s| s.len())
        .chain(groups.iter().map(|(g, _)| g.len()))
        .max()
        .unwrap_or(0);
    for (group, values) in groups {
        out.push_str(&format!("{group}\n"));
        for (s, v) in series.iter().zip(values) {
            let filled = if max > 0.0 {
                ((v / max) * width as f64).round() as usize
            } else {
                0
            };
            out.push_str(&format!("  {s:<label_w$} |{} {v:.2}\n", "█".repeat(filled)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_chart_emits_all_series() {
        let groups = vec![
            ("G1".to_string(), vec![1.0, 2.0]),
            ("G2".to_string(), vec![2.0, 4.0]),
        ];
        let c = grouped_bar_chart("t", &["PT", "RaCCD"], &groups, 12);
        assert_eq!(c.matches("PT").count(), 2);
        assert_eq!(c.matches("RaCCD").count(), 2);
        assert!(c.contains("G1\n"));
        // Largest value (4.0) spans the full width.
        assert!(c.contains(&"█".repeat(12)));
    }
}
