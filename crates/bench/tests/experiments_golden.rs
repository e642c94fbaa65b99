//! The paper's tables, pinned byte for byte: E1–E11 at seed 7, rendered
//! exactly as `experiments all --seed 7` prints them, must equal the
//! committed golden `tests/goldens/experiments_all_seed7.txt` (repo root).
//! Any change to an experiment, a substrate it runs on, the RNG stream or
//! the table renderer shows up here as a drifted line.
//!
//! Regenerate intentionally with `REGENERATE_GOLDENS=1 cargo test -p
//! fi-bench --test experiments_golden`.

use fi_bench::run_all;

/// `run_all(seed)` as the `experiments` binary prints it: each table's
/// rendering followed by a newline.
fn render(seed: u64) -> String {
    run_all(seed)
        .iter()
        .map(|table| format!("{}\n", table.render()))
        .collect()
}

#[test]
fn experiment_tables_match_golden() {
    let actual = render(7);
    if std::env::var_os("REGENERATE_GOLDENS").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/goldens/experiments_all_seed7.txt"
        );
        std::fs::write(path, &actual).expect("golden fixture written");
        // The compiled-in include_str! still holds the pre-regeneration
        // bytes; the next (recompiled) run asserts against the fresh ones.
        return;
    }
    let golden = include_str!("../../../tests/goldens/experiments_all_seed7.txt");
    for (line, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            a,
            g,
            "experiment tables drifted from the golden at line {} — regenerate \
             it with REGENERATE_GOLDENS=1 if the change is intentional",
            line + 1
        );
    }
    assert_eq!(actual, golden, "experiment tables differ from the golden");
}
