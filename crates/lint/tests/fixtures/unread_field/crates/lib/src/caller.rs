//! Library code in another file: what it reads counts, what it builds or
//! assigns does not.

use crate::fields::Report;

pub(crate) fn build() -> Report {
    let only_built = 5;
    Report {
        read_by_dot: 1,
        read_by_pattern: 2,
        compared: 3,
        only_written: 4,
        only_built,
        only_tested: 6,
        for_example: 7,
        for_bin: 8,
        for_bench: 9,
        marked: 10,
        marked_but_read: 11,
    }
}

pub(crate) fn touch(r: &mut Report) -> u32 {
    r.only_written = 2;
    r.only_written += 1;
    if r.compared == 3 {
        return 0;
    }
    let Report {
        read_by_pattern, ..
    } = r.clone();
    r.read_by_dot + read_by_pattern + r.marked_but_read
}

#[cfg(test)]
mod tests {
    #[test]
    fn only_tested_reads() {
        let r = super::build();
        assert_eq!(r.only_tested, 6);
    }
}
