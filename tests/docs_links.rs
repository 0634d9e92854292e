//! Link check for the repo's markdown documentation pages.
//!
//! `cargo doc -D warnings` (the CI docs job) catches broken *intra-doc*
//! links in rustdoc, but nothing validates the standalone markdown
//! front door. This test walks every `](...)` target in the checked
//! pages and asserts that relative links point at files that exist, so
//! a moved crate or renamed doc fails CI instead of rotting quietly.

use std::path::{Path, PathBuf};

/// The documentation pages under link check. README and ARCHITECTURE
/// are the front door — their absence is itself a failure.
const PAGES: &[&str] = &[
    "README.md",
    "docs/ARCHITECTURE.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs/SURFACE.md",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Extract every inline markdown link target: the `target` of
/// `[text](target)`. Skips images' size suffixes and reference-style
/// definitions (the repo uses inline links only).
fn link_targets(markdown: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let bytes = markdown.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
            let start = i + 2;
            if let Some(off) = markdown[start..].find(')') {
                targets.push(markdown[start..start + off].trim().to_string());
                i = start + off;
            }
        }
        i += 1;
    }
    targets
}

#[test]
fn markdown_pages_exist_and_their_relative_links_resolve() {
    let root = repo_root();
    let mut broken: Vec<String> = Vec::new();
    for page in PAGES {
        let path = root.join(page);
        let Ok(text) = std::fs::read_to_string(&path) else {
            broken.push(format!("{page}: page missing"));
            continue;
        };
        let base = path.parent().unwrap_or(Path::new("."));
        for target in link_targets(&text) {
            // external links and pure in-page anchors are out of scope
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with('#')
                || target.is_empty()
            {
                continue;
            }
            // strip an in-file anchor from a relative path
            let file_part = target.split('#').next().unwrap_or(&target);
            let resolved = base.join(file_part);
            if !resolved.exists() {
                broken.push(format!("{page}: broken link `{target}`"));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken documentation links:\n{}",
        broken.join("\n")
    );
}

#[test]
fn front_door_covers_the_advertised_entry_points() {
    // The README must mention the public API surface it exists to
    // explain; a rename that forgets the front door fails here.
    let readme = std::fs::read_to_string(repo_root().join("README.md"))
        .expect("README.md is the repo front door; it must exist");
    for needle in [
        "Solver",
        "Solver::batch",
        "ThreadedBackend",
        "SimulatedBackend",
        "cargo test",
        "benchmark/",
        "QueueDiscipline",
        "FaultPlan",
    ] {
        assert!(
            readme.contains(needle),
            "README.md no longer mentions `{needle}`"
        );
    }
    let arch = std::fs::read_to_string(repo_root().join("docs/ARCHITECTURE.md"))
        .expect("docs/ARCHITECTURE.md must exist");
    for needle in ["Backend", "Chase-Lev", "dratio", "steal", "rescue"] {
        assert!(
            arch.contains(needle),
            "docs/ARCHITECTURE.md no longer mentions `{needle}`"
        );
    }
}

#[test]
fn surface_inventory_keeps_a_section_per_audited_crate() {
    // The public-surface inventory is audited crate by crate; losing a
    // crate's section would silently drop its items from the audit.
    let surface = std::fs::read_to_string(repo_root().join("docs/SURFACE.md"))
        .expect("docs/SURFACE.md is the public-surface inventory");
    let sections: Vec<&str> = surface
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .collect();
    for krate in [
        "calu-sched",
        "calu-core",
        "calu-serve",
        "calu",
        "calu-dag",
        "calu-kernels",
        "calu-matrix",
        "calu-sim",
        "calu-trace",
        "calu-model",
    ] {
        assert!(
            sections
                .iter()
                .any(|s| s.split_whitespace().next() == Some(krate)),
            "docs/SURFACE.md has no `## {krate}` section"
        );
    }
}
