//! Library code in another file: what it names counts as a use.

use crate::items::{marked_but_used, used_elsewhere, USED_CONST};

pub(crate) fn call() -> u32 {
    marked_but_used();
    used_elsewhere() + USED_CONST
}

#[cfg(test)]
mod tests {
    /// Test code is not library code: no finding.
    pub fn helper() {}

    #[test]
    fn only_tested_runs() {
        helper();
        crate::items::only_tested();
    }
}
