//! Shared helpers for the experiment binaries (E1–E12 and `explore`).
//! See `EXPERIMENTS.md` at the workspace root for the mapping from
//! experiments to paper claims.

#![forbid(unsafe_code)]

pub mod gauntlet;

/// Prints an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row.clone());
    }
}

/// Deterministic seed list for multi-seed experiments.
pub fn seeds(k: usize) -> Vec<u64> {
    (0..k as u64).map(|i| 0xE4B5 + i * 7919).collect()
}

/// Formats a `min..max (sum)` summary of a slice.
pub fn summarize(xs: &[u64]) -> String {
    if xs.is_empty() {
        return "-".to_string();
    }
    format!(
        "{}..{} (S{})",
        xs.iter().min().unwrap(),
        xs.iter().max().unwrap(),
        xs.iter().sum::<u64>()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_formats() {
        assert_eq!(summarize(&[1, 5, 3]), "1..5 (S9)");
        assert_eq!(summarize(&[]), "-");
    }

    #[test]
    fn seeds_are_distinct() {
        let s = seeds(10);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), s.len());
    }
}
