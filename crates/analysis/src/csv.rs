//! Minimal CSV export (no third-party dependency needed for plain numeric
//! tables).

use std::fs::File;
use std::io::{BufWriter, Result, Write};
use std::path::Path;

/// Writes a header plus numeric rows (each as wide as the header) to
/// `path`.
pub fn write_csv(path: impl AsRef<Path>, header: &[&str], rows: &[Vec<f64>]) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "{}", header.join(","))?;
    for row in rows {
        assert_eq!(row.len(), header.len(), "CSV row width mismatch");
        let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        writeln!(w, "{}", cells.join(","))?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("gcs_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.csv");
        write_csv(&path, &["a", "b"], &[vec![1.0, 2.5], vec![3.0, 4.0]]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2.5\n3,4\n");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_row_rejected() {
        let dir = std::env::temp_dir().join("gcs_csv_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let _ = write_csv(dir.join("bad.csv"), &["a", "b"], &[vec![1.0]]);
    }
}
