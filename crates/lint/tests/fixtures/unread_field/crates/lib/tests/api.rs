//! An integration test: never scanned, so it reads nothing.

#[test]
fn only_tested_reads() {
    let r = lib::fields::Report::default();
    assert_eq!(r.only_tested + r.only_written + r.only_built, 0);
}
