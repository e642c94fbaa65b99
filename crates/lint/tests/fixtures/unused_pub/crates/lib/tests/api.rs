//! An integration test: never scanned, so it names nothing.

#[test]
fn only_tested_runs() {
    lib::items::only_tested();
    lib::items::never_named();
}
