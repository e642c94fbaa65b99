//! Dirty fixture serving module: unmarked panic sources and a spawn.

pub fn first(xs: &[u32]) -> u32 {
    xs.first().copied().unwrap()
}

pub fn third(xs: &[u32]) -> u32 {
    xs[2]
}

pub fn background(xs: Vec<u32>) {
    std::thread::spawn(move || drop(xs));
}
