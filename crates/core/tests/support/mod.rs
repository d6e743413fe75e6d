//! Helpers shared by the tests that drive the real `experiments` binary.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static SCRATCH: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty scratch directory, unique to this test process and call.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "autoreconf-cli-{}-{}-{tag}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Extract `guest_instructions` from a `--counters` JSON file.
pub fn guest_instructions(counters: &Path) -> u64 {
    let text = std::fs::read_to_string(counters).expect("counters file");
    let needle = "\"guest_instructions\":";
    let start = text.find(needle).expect("guest_instructions field") + needle.len();
    text[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("guest_instructions value")
}
