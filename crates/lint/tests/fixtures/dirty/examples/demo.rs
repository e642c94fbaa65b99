//! Dirty fixture caller: names every public function of the library but
//! `harmless`, which is the tree's `unused-pub` finding.

fn main() {
    let _ = (app::digest, app::unrecovered, app::wrong_order);
    let _ = (app::serve::first, app::serve::third, app::serve::background);
}
