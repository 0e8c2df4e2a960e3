//! Keyed entity resolution: dedup user records by any shared identifier.
//!
//! The classic record-linkage shape: each incoming record carries several
//! identifiers (email, username, device id), and two records belong to the
//! same user if they share *any* identifier. That is union-find over
//! string keys — no dense ids exist up front, records arrive concurrently
//! from many ingest threads, and queries race ingestion.
//!
//! `KeyedDsu<String>` does the whole job lock-free: keys hash into a
//! CAS-claimed id table that assigns dense ids on first touch (and
//! migrates into a doubled table as it fills), and
//! all merging runs on the same packed word-per-element core as the dense
//! structure (Jayanti & Tarjan's randomized linking underneath).
//!
//! Run with: `cargo run --release --example keyed_dedup`
//!
//! See `ARCHITECTURE.md` for where the keyed layer sits in the stack and
//! `docs/benchmarks.md` for its measured cost over the raw core.

use jt_dsu::KeyedDsu;
use std::thread;

/// One synthetic ingest record: a handful of identifiers that all refer
/// to the same underlying user.
fn record(user: usize, variant: usize) -> Vec<String> {
    let mut ids = vec![format!("email:user{user}@example.com")];
    // Every third variant also mentions the username, every fifth a device
    // — the cross-links that make the identifier graph connected per user.
    if variant.is_multiple_of(3) {
        ids.push(format!("name:user-{user}"));
    }
    if variant.is_multiple_of(5) {
        ids.push(format!("device:{:08x}", user * 7919 + variant));
    }
    ids
}

fn main() {
    let users = 10_000;
    let variants = 6;
    let dsu: KeyedDsu<String> = KeyedDsu::new();

    println!("resolving {} records across 8 ingest threads…", users * variants);
    let start = std::time::Instant::now();
    thread::scope(|s| {
        for t in 0..8 {
            let dsu = &dsu;
            s.spawn(move || {
                // Threads interleave over users, so identifiers of the
                // same user are constantly claimed and merged by racing
                // threads — the case the id table's CAS protocol exists
                // for.
                for user in (t..users).step_by(8) {
                    for v in 0..variants {
                        let ids = record(user, v);
                        // Chain-merge the record's identifiers: after this,
                        // they are all in one set, whichever thread got
                        // each pair first.
                        for pair in ids.windows(2) {
                            dsu.merge_keys(&pair[0], &pair[1]);
                        }
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();

    // Every identifier of a user resolves to one set; different users
    // never collide.
    assert!(dsu.same_set(&"email:user42@example.com".to_string(), &"name:user-42".to_string()));
    assert!(!dsu.same_set(&"email:user42@example.com".to_string(), &"name:user-43".to_string()));
    // Unseen identifiers are implicit singletons — no insertion on query.
    assert!(!dsu.same_set(&"email:unknown@example.com".to_string(), &"name:user-1".to_string()));

    println!(
        "done in {:.1} ms — {} identifiers resolved into {} users ({} id-table growths)",
        elapsed.as_secs_f64() * 1e3,
        dsu.key_count(),
        dsu.set_count(),
        dsu.id_table_resizes(),
    );
    assert_eq!(dsu.set_count(), users);

    // Bursts go through the batch path: resolve the keys in gather waves
    // (hash a wave, load its home groups together, resolve in order), then
    // route the dense edges through `unite_batch` waves.
    let burst: Vec<(String, String)> = (0..users / 2)
        .map(|u| {
            (
                format!("email:user{u}@example.com"),
                format!("email:user{}@example.com", u + users / 2),
            )
        })
        .collect();
    let linked = dsu.merge_keys_batch(&burst);
    println!(
        "batched a {}-pair merge burst: {linked} links, {} users left",
        burst.len(),
        dsu.set_count()
    );
    assert_eq!(dsu.set_count(), users / 2);
}
