//! The binary trace encoding, pinned across commits: the byte length and
//! FNV-1a of every suite application's `.sstraceb` image at `tiny` scale,
//! diffed against a golden file an earlier commit wrote. Every existing
//! binary trace file and every content hash (campaign cache keys) depends
//! on these bytes, so a change to the encoder must leave them alone unless
//! it changes the format version.
//!
//! After a deliberate format change (which must bump the version byte),
//! regenerate with:
//!
//! ```sh
//! UPDATE_SSTB_BYTES=1 cargo test -p swiftsim-trace --test sstb_bytes
//! ```

use std::fmt::Write as _;
use std::path::Path;
use swiftsim_config::fnv1a64;
use swiftsim_workloads::Scale;

#[test]
fn suite_binary_images_match_the_golden_file() {
    let mut current = String::from("# app tiny-sstb-bytes fnv1a64(sstb)\n");
    for workload in swiftsim_workloads::suite() {
        let bytes = workload.generate(Scale::Tiny).to_binary();
        writeln!(
            current,
            "{} {} {:016x}",
            workload.name,
            bytes.len(),
            fnv1a64(&bytes)
        )
        .unwrap();
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sstb_bytes.txt");
    if std::env::var_os("UPDATE_SSTB_BYTES").is_some() {
        std::fs::write(&path, &current).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("read golden file");
    assert_eq!(
        current, golden,
        "the binary encoding of a suite application changed"
    );
}
