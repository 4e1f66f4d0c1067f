//! Helpers shared by the integration suites that write files.

use std::path::PathBuf;

/// A scratch directory private to one test: named after the test and the
/// process id, so tests running on parallel libtest threads, or in test
/// binaries running side by side, never share a path. Starts empty and is
/// removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create (or empty) the scratch directory for the test named `test`.
    pub fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("vani-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    /// A path for `name` inside the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
