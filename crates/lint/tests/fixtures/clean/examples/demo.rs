//! Clean fixture caller: names every public function of the library, so
//! none is an `unused-pub` finding.

fn main() {
    let _ = (app::digest, app::recovered, app::allowlisted, app::right_order);
    let _ = (app::serve::first, app::serve::third);
}
