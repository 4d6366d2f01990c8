// L004 fixture: concurrency policy. Linted under a synthetic
// crates/<lib>/src path; never compiled. Atomic orderings are not checked
// here: rustc rejects an atomic call without one.

use std::sync::mpsc::Sender;
use std::sync::Arc;

pub fn bad_spawn() {
    std::thread::spawn(|| {}); // line 9: fires (detached thread)
}

pub struct BadShared {
    pub tx: Arc<Sender<u32>>, // line 13: fires (shared channel endpoint)
}

pub fn ok_scoped() {
    std::thread::scope(|s| {
        s.spawn(|| {});
    });
}
