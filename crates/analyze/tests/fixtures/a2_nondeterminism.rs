// A2 fixture: nondeterminism sources in a deterministic crate.
// Line numbers are asserted exactly — append only at the end.

use std::collections::HashMap; // line 4: HashMap
use std::collections::HashSet; // line 5: HashSet
use std::time::Instant; // line 6: Instant

pub fn ordered() -> std::collections::BTreeMap<u32, u32> {
    // "HashMap" in a comment or "HashMap" in a string must not fire.
    let label = "HashMap";
    let mut m = std::collections::BTreeMap::new();
    m.insert(label.len() as u32, 0);
    m
}

pub fn wall_clock() -> Instant {
    Instant::now() // line 17: Instant again
}

thread_local!(static SCRATCH: u32 = 0); // line 20: per-thread state (was rule A8's)
